"""Graph ingestion and conversion to tropical matrices.

Two text formats are supported: whitespace edge lists (`u v [w]`, `#`
comments) and a minimal GML subset (graph/node/edge blocks with id,
source, target, value and the directed flag). Node labels are arbitrary
tokens registered in first-appearance order and mapped to dense 0-based
indices; reports that face users print 1-based positions.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .core import INF, TropicalMatrix, kleene_star
from .errors import DomainError, ParseError


@dataclass(frozen=True)
class Graph:
    """Weighted graph with stable external labels.

    Edges hold dense indices into node_labels. Undirected graphs store
    each edge once; adjacency extraction mirrors it.
    """

    node_labels: tuple[str, ...]
    edges: tuple[tuple[int, int, float], ...]
    directed: bool = False

    def __post_init__(self) -> None:
        n = len(self.node_labels)
        for u, v, w in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references a node index outside 0..{n - 1}")
            if not math.isfinite(w) or w < 0:
                raise DomainError(f"edge ({u}, {v}) weight {w!r} must be finite and >= 0")

    @property
    def n_nodes(self) -> int:
        return len(self.node_labels)


def _min_weight_edges(edges: list[tuple[int, int, float]], directed: bool) -> tuple[tuple[int, int, float], ...]:
    """Collapse repeated edges to their minimum weight, in first-seen order;
    an undirected edge is keyed by its lower index first."""
    weight: dict[tuple[int, int], float] = {}
    for u, v, w in edges:
        key = (u, v) if directed or u <= v else (v, u)
        weight[key] = min(weight.get(key, w), w)
    return tuple((u, v, w) for (u, v), w in weight.items())


def load_edge_list(text: str, directed: bool = False) -> Graph:
    """Parse `u v [w]` lines into a Graph.

    `#` starts a comment, missing weights default to 1.0, labels are
    registered in first-appearance order, and repeated edges keep the
    minimum weight (for undirected input, regardless of orientation).
    """
    index_of: dict[str, int] = {}  # labels in first-appearance order
    edges: list[tuple[int, int, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 'u v [w]', got {len(tokens)} tokens")
        u = index_of.setdefault(tokens[0], len(index_of))
        v = index_of.setdefault(tokens[1], len(index_of))
        if len(tokens) == 3:
            try:
                w = float(tokens[2]) + 0.0  # -0 enters as 0
            except ValueError:
                raise ParseError(f"line {lineno}: cannot parse weight {tokens[2]!r}") from None
        else:
            w = 1.0
        if not math.isfinite(w):
            raise DomainError(f"line {lineno}: weight must be finite, got {tokens[2]!r}")
        if w < 0:
            raise DomainError(f"line {lineno}: negative weight {w}")
        edges.append((u, v, w))
    return Graph(tuple(index_of), _min_weight_edges(edges, directed), directed)


# a bracket, a quoted string (its closing quote missing only at the end of
# the text), or a run of other non-space characters; \s is str.isspace().
# A quoted string keeps its quotes, so only a bare bracket nests.
_GML_TOKEN = re.compile(r'[\[\]]|"[^"]*"?|[^\s\[\]]+')


def _tokenize_gml(text: str) -> list[str]:
    tokens = _GML_TOKEN.findall(text)
    if tokens and tokens[-1][0] == '"' and (len(tokens[-1]) == 1 or tokens[-1][-1] != '"'):
        raise ParseError("unterminated string literal")
    return tokens


def _unquote(token: str) -> str:
    return token[1:-1] if token[0] == '"' else token


def _parse_gml_block(tokens: list[str], pos: int, top: bool = False) -> tuple[list[tuple[str, object]], int]:
    """Parse the items of a block from pos up to its ']', or of the top
    level (top) up to the end of the tokens.

    Items are (key, value) where value is a scalar token or a nested list
    of items for bracketed blocks.
    """
    items: list[tuple[str, object]] = []
    while pos < len(tokens):
        token = tokens[pos]
        if token == "]":
            if top:
                raise ParseError("unbalanced brackets: stray ']'")
            return items, pos + 1
        if token == "[":
            raise ParseError("unexpected '['")
        if pos + 1 >= len(tokens) or tokens[pos + 1] == "]":
            raise ParseError(f"key {_unquote(token)!r} has no value")
        if tokens[pos + 1] == "[":
            inner, pos = _parse_gml_block(tokens, pos + 2)
            items.append((_unquote(token), inner))
        else:
            items.append((_unquote(token), _unquote(tokens[pos + 1])))
            pos += 2
    if top:
        return items, pos
    raise ParseError("unbalanced brackets: block not closed")


def _scalar(items: list[tuple[str, object]], key: str) -> str | None:
    values = [v for k, v in items if k == key]
    if any(isinstance(v, list) for v in values):
        raise ParseError(f"{key!r} must be a scalar, not a block")
    return values[0] if values else None


def load_gml_subset(text: str) -> Graph:
    """Parse minimal GML: graph [ node [ id N ] edge [ source N target N value W ] ].

    Node labels are the ids, in block order. id, source, target and value
    must be scalars; other attributes (label and nested blocks such as
    graphics included) are skipped. `directed 1` switches to a directed
    graph; edge weights default to 1.0.
    """
    items, _ = _parse_gml_block(_tokenize_gml(text), 0, top=True)
    graph_items = next((value for key, value in items if key == "graph" and isinstance(value, list)), None)
    if graph_items is None:
        raise ParseError("no graph block found")

    directed = False
    index_of: dict[str, int] = {}
    raw_edges: list[tuple[str, str, float]] = []
    for key, value in graph_items:
        if key == "directed" and isinstance(value, str):
            directed = value.strip() == "1"
        elif key == "node" and isinstance(value, list):
            node_id = _scalar(value, "id")
            if node_id is None:
                raise ParseError("node block without an id")
            if node_id in index_of:
                raise ParseError(f"duplicate node id {node_id!r}")
            index_of[node_id] = len(index_of)
        elif key == "edge" and isinstance(value, list):
            source = _scalar(value, "source")
            target = _scalar(value, "target")
            if source is None or target is None:
                raise ParseError("edge block needs both source and target")
            raw_value = _scalar(value, "value")
            if raw_value is None:
                w = 1.0
            else:
                try:
                    w = float(raw_value) + 0.0  # -0 enters as 0
                except ValueError:
                    raise ParseError(f"cannot parse edge value {raw_value!r}") from None
            raw_edges.append((source, target, w))

    edges: list[tuple[int, int, float]] = []
    for source, target, w in raw_edges:
        for node_id in (source, target):
            if node_id not in index_of:
                raise ParseError(f"edge references unknown node id {node_id!r}")
        if not math.isfinite(w):
            raise DomainError(f"edge ({source}, {target}) weight must be finite")
        if w < 0:
            raise DomainError(f"edge ({source}, {target}) has negative weight {w}")
        edges.append((index_of[source], index_of[target], w))
    return Graph(tuple(index_of), _min_weight_edges(edges, directed), directed)


def _edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tails, heads and weights of the stored edges in order; on an
    undirected graph each edge is followed by its mirror."""
    edges = np.fromiter(itertools.chain.from_iterable(g.edges), float, 3 * len(g.edges)).reshape(-1, 3)
    if not g.directed:
        edges = np.stack((edges, edges[:, [1, 0, 2]]), axis=1).reshape(-1, 3)
    return edges[:, 0].astype(np.intp), edges[:, 1].astype(np.intp), edges[:, 2]


def graph_to_tropical(g: Graph) -> TropicalMatrix:
    """n x n matrix: 0 diagonal, edge weights where edges exist, inf elsewhere.

    Self-loops are ignored; the distance from a node to itself is 0.
    Undirected graphs yield symmetric output. Parallel stored edges keep
    the minimum weight, the first stored one on a tie of 0.0 and -0.0.
    """
    data = np.full((g.n_nodes, g.n_nodes), INF)
    u, v, w = _edge_arrays(g)
    # np.minimum keeps its second operand on a tie, so fold the edges last to first
    np.minimum.at(data, (u[::-1], v[::-1]), w[::-1])
    np.fill_diagonal(data, 0.0)  # over any self-loop
    return TropicalMatrix._wrap(data)


def graph_to_adjacency(g: Graph) -> np.ndarray:
    """0/1 adjacency matrix (weights ignored, self-loops dropped)."""
    adj = np.zeros((g.n_nodes, g.n_nodes))
    u, v, _ = _edge_arrays(g)
    adj[u, v] = 1.0
    np.fill_diagonal(adj, 0.0)  # over any self-loop
    return adj


def shortest_path_matrix(g: Graph) -> TropicalMatrix:
    """All-pairs shortest paths: the closure of the tropical adjacency.

    Disconnected pairs hold inf; undirected graphs give a symmetric,
    idempotent result.
    """
    return kleene_star(graph_to_tropical(g))
