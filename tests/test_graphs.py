"""Graph ingestion, tropical conversion, and brute-force path oracles."""

import numpy as np
import pytest

from minplus import (
    INF,
    DomainError,
    Graph,
    ParseError,
    TropicalMatrix,
    graph_to_adjacency,
    graph_to_tropical,
    is_idempotent,
    load_edge_list,
    load_gml_subset,
    mp_multiply,
    mp_power,
    shortest_path_matrix,
)
from minplus.graphs import _tokenize_gml, _unquote

from conftest import MALFORMED_GML, random_nonneg_graph_matrix
from oracles import (
    ScaleRefusalError,
    oracle_min_path_fixed_length,
    ref_graph_to_adjacency,
    ref_graph_to_tropical,
    ref_tokenize_gml,
    render_edge_list,
)

GML_TRIANGLE = """
graph [
  node [ id 1 ]
  node [ id 2 ]
  node [ id 3 ]
  edge [ source 1 target 2 ]
  edge [ source 2 target 3 ]
  edge [ source 3 target 1 ]
]
"""


def test_edge_list_example(example_edges, example_a):
    g = load_edge_list(example_edges)
    assert g.node_labels == ("1", "2", "3", "4", "5", "6")
    assert len(g.edges) == 7
    assert not g.directed
    assert np.array_equal(graph_to_tropical(g).data, example_a)


def test_edge_list_empty_input():
    g = load_edge_list("")
    assert g.n_nodes == 0 and g.edges == ()


def test_edge_list_default_weight_and_labels():
    g = load_edge_list("a b\nb c\n")
    assert g.node_labels == ("a", "b", "c")
    assert all(w == 1.0 for _, _, w in g.edges)


def test_edge_list_comments_and_duplicates():
    g = load_edge_list("# header\nu v 5 # trailing note\nv u 3\n")
    assert len(g.edges) == 1
    assert g.edges[0][2] == 3.0  # duplicate keeps the minimum


def test_edge_list_directed_duplicates_stay_separate():
    g = load_edge_list("u v 5\nv u 3\n", directed=True)
    a = graph_to_tropical(g).data
    assert a[0, 1] == 5.0 and a[1, 0] == 3.0


def test_edge_list_errors():
    with pytest.raises(ParseError, match="line 2"):
        load_edge_list("a b 1\nc\n")
    with pytest.raises(ParseError):
        load_edge_list("a b one\n")
    with pytest.raises(DomainError):
        load_edge_list("a b -2\n")
    with pytest.raises(DomainError):
        load_edge_list("a b inf\n")


def test_render_round_trip(example_edges):
    g = load_edge_list(example_edges)
    again = load_edge_list(render_edge_list(g), directed=g.directed)
    assert np.array_equal(graph_to_tropical(again).data, graph_to_tropical(g).data)


def test_gml_triangle():
    g = load_gml_subset(GML_TRIANGLE)
    assert g.n_nodes == 3 and len(g.edges) == 3
    assert not g.directed
    assert all(w == 1.0 for _, _, w in g.edges)


def test_gml_directed_and_values():
    text = "graph [ directed 1 node [ id 7 ] node [ id 9 ] edge [ source 7 target 9 value 2.5 ] ]"
    g = load_gml_subset(text)
    assert g.directed
    assert g.edges == ((0, 1, 2.5),)
    assert g.node_labels == ("7", "9")


def test_gml_skips_unknown_attributes():
    text = """
    graph [
      label "x"
      node [ id 1 label "n1" graphics [ x 0 y 1 ] ]
      node [ id 2 ]
      edge [ source 1 target 2 weightish 9 ]
    ]
    """
    g = load_gml_subset(text)
    assert g.n_nodes == 2 and g.edges == ((0, 1, 1.0),)


def test_gml_errors():
    with pytest.raises(ParseError):
        load_gml_subset("graph [ node [ id 1 ]")  # unbalanced
    with pytest.raises(ParseError):
        load_gml_subset("graph [ node [ id 1 ] edge [ source 1 target 5 ] ]")
    with pytest.raises(ParseError, match="duplicate node id '1'"):
        load_gml_subset("graph [ node [ id 1 ] node [ id 1 ] ]")
    with pytest.raises(ParseError):
        load_gml_subset("node [ id 1 ]")  # no graph block
    # a block where id, source, target or value belongs is an error, not
    # skipped: a skipped value would load the edge with the default weight 1.0
    for node, edge in [
        ("id [ x 1 ]", "source 1 target 2"),
        ("id 1", "source [ x 1 ] target 2"),
        ("id 1", "source 1 target [ x 2 ]"),
        ("id 1", "source 1 target 2 value [ x 5 ]"),
        ("id 1", "source 1 target 2 value 3 value [ x 5 ]"),
    ]:
        with pytest.raises(ParseError, match="must be a scalar, not a block"):
            load_gml_subset(f"graph [ node [ {node} ] node [ id 2 ] edge [ {edge} ] ]")
    # a bracket is never a value, and the top level follows the rules of a block
    for text, message in MALFORMED_GML:
        with pytest.raises(ParseError, match=message):
            load_gml_subset(text)


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


def _unquoted_tokens(text):
    return [_unquote(t) for t in _tokenize_gml(text)]


def test_gml_tokens_match_scanner_reference():
    # \x1c and \x85 are str.isspace() characters outside ASCII's usual six,
    # \u200b is a zero-width character that is not whitespace
    alphabet = list('[]""ab1.-é') + [" ", "\t", "\n", "\x1c", "\x85", "\xa0", "\u2003", "\u3000", "\u200b"]
    rng = np.random.default_rng(15)
    texts = ['"', 'a"b', 'key "open', 'x [ "a ] b" ]', '""', 'a""b"c d"', "\x1ca\x85b\u3000[c]"]
    texts += ["".join(rng.choice(alphabet, size=rng.integers(0, 24))) for _ in range(3000)]
    for text in texts:
        assert _tokens_or_error(_unquoted_tokens, text) == _tokens_or_error(ref_tokenize_gml, text), repr(text)
    assert _tokenize_gml('a"b "c d"') == ['a"b', '"c d"']  # a quoted string keeps its quotes
    with pytest.raises(ParseError, match="unterminated string literal"):
        _tokenize_gml('graph [ label "x ]')


# quoted ids holding brackets, spaces and '#', none of which nest or comment
QUOTED_LABELS = ("[", "]", "a b", "#c", "[x] #y", "][", "z")


def render_gml(g, label=lambda name: name):
    """GML text of g with every id quoted and a quoted label per node."""
    nodes = "".join(f'  node [ id "{name}" label "{label(name)}" ]\n' for name in g.node_labels)
    edges = "".join(
        f'  edge [ source "{g.node_labels[u]}" target "{g.node_labels[v]}" value {w!r} ]\n' for u, v, w in g.edges
    )
    return f"graph [\n  directed {int(g.directed)}\n{nodes}{edges}]\n"


@pytest.mark.parametrize("directed", [False, True])
def test_gml_quoted_brackets_spaces_and_hashes_round_trip(directed):
    g = Graph(QUOTED_LABELS, ((0, 1, 2.0), (1, 2, 1.5), (3, 4, 4.0), (4, 5, 1.0), (0, 5, 3.0), (2, 6, 0.5)), directed)
    for label in (lambda name: name, lambda name: "[", lambda name: "]", lambda name: "[ ] #"):
        assert load_gml_subset(render_gml(g, label)) == g
    assert load_gml_subset('graph [ node [ id 1 label "[" ] node [ id 2 ] edge [ source 1 target 2 ] ]').edges == (
        (0, 1, 1.0),
    )
    with pytest.raises(ParseError, match="unbalanced brackets"):
        load_gml_subset('graph [ node [ id 1 label "x" ] ')


def test_labels_in_first_appearance_order_with_repeats_and_self_loops():
    text = "b a 2\na b 1\nc c 4\nb c\nd d\na d 3\n"
    g = load_edge_list(text)
    assert g.node_labels == ("b", "a", "c", "d")
    assert g.edges == ((0, 1, 1.0), (2, 2, 4.0), (0, 2, 1.0), (3, 3, 1.0), (1, 3, 3.0))
    g = load_edge_list(text, directed=True)
    assert g.node_labels == ("b", "a", "c", "d")
    assert g.edges == ((0, 1, 2.0), (1, 0, 1.0), (2, 2, 4.0), (0, 2, 1.0), (3, 3, 1.0), (1, 3, 3.0))
    # GML labels are the node ids in block order; a label attribute is skipped
    g = load_gml_subset(
        'graph [ node [ id 5 label "five" ] node [ id 1 label "n1" ] node [ id 3 ] '
        "edge [ source 3 target 3 ] edge [ source 1 target 5 value 2 ] edge [ source 5 target 1 value 1 ] ]"
    )
    assert g.node_labels == ("5", "1", "3")
    assert g.edges == ((2, 2, 1.0), (0, 1, 1.0))


def test_graph_constructor_validates():
    with pytest.raises(ValueError):
        Graph(node_labels=("a",), edges=((0, 1, 1.0),), directed=False)
    with pytest.raises(DomainError):
        Graph(node_labels=("a", "b"), edges=((0, 1, -1.0),), directed=False)


def test_graph_to_tropical_shapes():
    g = Graph(node_labels=("a", "b", "c"), edges=(), directed=False)
    assert np.array_equal(
        graph_to_tropical(g).data,
        np.array([[0, INF, INF], [INF, 0, INF], [INF, INF, 0]], dtype=float),
    )
    g = Graph(node_labels=("a", "b"), edges=((0, 1, 4.0),), directed=True)
    a = graph_to_tropical(g).data
    assert a[0, 1] == 4.0 and a[1, 0] == INF


def test_graph_to_tropical_ignores_self_loops():
    g = Graph(node_labels=("a", "b"), edges=((0, 0, 3.0), (0, 1, 2.0)), directed=False)
    a = graph_to_tropical(g).data
    assert a[0, 0] == 0.0 and a[0, 1] == 2.0


@pytest.mark.parametrize("directed", [False, True])
def test_graph_conversions_match_edge_loops(directed):
    # self-loops, anti-parallel and parallel edges, 0.0 and -0.0 tying on
    # one entry (the first stored wins), one node, and no edges
    labels = tuple("abcde")
    cases = [
        Graph(labels, ((0, 0, 3.0), (0, 1, 2.0), (1, 0, 5.0), (2, 3, -0.0), (3, 2, 0.0),
                       (1, 2, 7.0), (1, 2, 1.5), (4, 4, 0.0), (3, 4, 0.0), (4, 3, -0.0)), directed),
        Graph(labels, ((2, 1, 0.0), (1, 2, -0.0), (0, 4, -0.0), (0, 4, 0.0)), directed),
        Graph(("a",), ((0, 0, 1.0),), directed),
        Graph(("a",), (), directed),
        Graph(labels, (), directed),
        Graph((), (), directed),
    ]
    for g in cases:
        assert graph_to_tropical(g).data.tobytes() == ref_graph_to_tropical(g).tobytes()
        assert graph_to_adjacency(g).tobytes() == ref_graph_to_adjacency(g).tobytes()
    signs = np.signbit(graph_to_tropical(cases[1]).data)
    assert signs[0, 4] and signs[1, 2] == directed  # the first stored zero wins each tie


def test_graph_to_adjacency_is_binary():
    g = load_edge_list("a b 7\nb c 2\n")
    adj = graph_to_adjacency(g)
    assert adj.dtype == float
    assert np.array_equal(adj, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))


def test_shortest_path_matrix_example(example_edges, example_d):
    d = shortest_path_matrix(load_edge_list(example_edges))
    assert np.array_equal(d.data, example_d)
    assert d.data[0, 4] == 9.0 and d.data[1, 5] == 9.0


def test_shortest_path_disconnected_pairs_are_infinite():
    d = shortest_path_matrix(load_edge_list("a b 1\nc d 1\n"))
    assert d.data[0, 2] == INF and d.data[0, 1] == 1.0


def test_shortest_path_small_path_graph():
    d = shortest_path_matrix(load_edge_list("0 1 1\n1 2 1\n"))
    assert d.data[0, 2] == 2.0


def test_shortest_path_triangle_inequality():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        d = shortest_path_matrix_from(rng, n)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-12
        assert is_idempotent(TropicalMatrix(d))


def shortest_path_matrix_from(rng, n):
    from minplus import kleene_star

    return kleene_star(TropicalMatrix(random_nonneg_graph_matrix(rng, n))).data


def test_oracle_fixed_length_hand_values(example_a):
    a = TropicalMatrix(example_a)
    # two-hop best from node 1 to node 4 goes through node 3
    assert oracle_min_path_fixed_length(a, 0, 3, 2) == 6.0
    assert oracle_min_path_fixed_length(a, 0, 1, 1) == 2.0
    assert oracle_min_path_fixed_length(a, 2, 2, 0) == 0.0
    assert oracle_min_path_fixed_length(a, 0, 3, 0) == INF


def test_oracle_matches_matrix_powers():
    rng = np.random.default_rng(11)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        a = TropicalMatrix(random_nonneg_graph_matrix(rng, n))
        for ell in range(0, 4):
            p = mp_power(a, ell).data
            for i in range(n):
                for j in range(n):
                    assert p[i, j] == oracle_min_path_fixed_length(a, i, j, ell)


def test_oracle_refuses_large_inputs():
    big = TropicalMatrix(np.zeros((8, 8)))
    with pytest.raises(ScaleRefusalError):
        oracle_min_path_fixed_length(big, 0, 1, 2)
    small = TropicalMatrix(np.zeros((3, 3)))
    with pytest.raises(ScaleRefusalError):
        oracle_min_path_fixed_length(small, 0, 1, 6)


def test_two_hop_oracles():
    rng = np.random.default_rng(12)
    for _ in range(15):
        n, m, d = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = rng.integers(0, 9, size=(n, m)).astype(float)
        b = rng.integers(0, 9, size=(m, d)).astype(float)
        gram = mp_multiply(TropicalMatrix(a), TropicalMatrix(a.T)).data
        prod = mp_multiply(TropicalMatrix(a), TropicalMatrix(b)).data
        for i in range(n):
            for j in range(n):
                assert gram[i, j] == min(a[i, k] + a[j, k] for k in range(m))
            for j in range(d):
                assert prod[i, j] == min(a[i, k] + b[k, j] for k in range(m))
