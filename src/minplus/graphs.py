"""Graph ingestion and conversion to tropical matrices.

Two text formats are supported: whitespace edge lists (`u v [w]`, `#`
comments) and a minimal GML subset (graph/node/edge blocks with id,
source, target, value and the directed flag). Node labels are arbitrary
tokens registered in first-appearance order and mapped to dense 0-based
indices; reports that face users print 1-based positions.
"""

from __future__ import annotations

import math
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


def _register(label: str, index_of: dict[str, int], order: list[str]) -> int:
    if label not in index_of:
        index_of[label] = len(order)
        order.append(label)
    return index_of[label]


def _edge_key(u: int, v: int, directed: bool) -> tuple[int, int]:
    if directed or u <= v:
        return (u, v)
    return (v, u)


def _min_weight_edges(keyed: list[tuple[tuple[int, int], float]]) -> tuple[tuple[int, int, float], ...]:
    """Collapse repeated edge keys to their minimum weight, in first-seen order."""
    weight: dict[tuple[int, int], float] = {}
    for key, w in keyed:
        weight[key] = min(weight.get(key, w), w)
    return tuple((u, v, w) for (u, v), w in weight.items())


def load_edge_list(text: str, directed: bool = False) -> Graph:
    """Parse `u v [w]` lines into a Graph.

    `#` starts a comment, missing weights default to 1.0, labels are
    registered in first-appearance order, and repeated edges keep the
    minimum weight (for undirected input, regardless of orientation).
    """
    index_of: dict[str, int] = {}
    order: list[str] = []
    keyed: list[tuple[tuple[int, int], float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 'u v [w]', got {len(tokens)} tokens")
        u = _register(tokens[0], index_of, order)
        v = _register(tokens[1], index_of, order)
        if len(tokens) == 3:
            try:
                w = float(tokens[2])
            except ValueError:
                raise ParseError(f"line {lineno}: cannot parse weight {tokens[2]!r}") from None
        else:
            w = 1.0
        if not math.isfinite(w):
            raise DomainError(f"line {lineno}: weight must be finite, got {tokens[2]!r}")
        if w < 0:
            raise DomainError(f"line {lineno}: negative weight {w}")
        keyed.append((_edge_key(u, v, directed), w))
    return Graph(tuple(order), _min_weight_edges(keyed), directed)


def _tokenize_gml(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "[]":
            tokens.append(c)
            i += 1
        elif c == '"':
            end = text.find('"', i + 1)
            if end < 0:
                raise ParseError("unterminated string literal")
            tokens.append(text[i + 1 : end])
            i = end + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "[]":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def _parse_gml_block(tokens: list[str], pos: int) -> tuple[list[tuple[str, object]], int]:
    """Parse the items between a matched '[' ']' pair starting at pos.

    Items are (key, value) where value is a scalar token or a nested list
    of items for bracketed blocks.
    """
    items: list[tuple[str, object]] = []
    while pos < len(tokens):
        token = tokens[pos]
        if token == "]":
            return items, pos + 1
        if token == "[":
            raise ParseError("unexpected '['")
        if pos + 1 >= len(tokens):
            raise ParseError(f"key {token!r} has no value")
        if tokens[pos + 1] == "[":
            inner, pos = _parse_gml_block(tokens, pos + 2)
            items.append((token, inner))
        else:
            items.append((token, tokens[pos + 1]))
            pos += 2
    raise ParseError("unbalanced brackets: block not closed")


def _scalar(items: list[tuple[str, object]], key: str) -> str | None:
    for k, v in items:
        if k == key and isinstance(v, str):
            return v
    return None


def load_gml_subset(text: str) -> Graph:
    """Parse minimal GML: graph [ node [ id N ] edge [ source N target N value W ] ].

    Attributes other than id/source/target/value (including nested blocks
    such as graphics) are skipped. `directed 1` switches to a directed
    graph; edge weights default to 1.0.
    """
    tokens = _tokenize_gml(text)
    pos = 0
    graph_items = None
    while pos < len(tokens):
        token = tokens[pos]
        if token == "]":
            raise ParseError("unbalanced brackets: stray ']'")
        if pos + 1 < len(tokens) and tokens[pos + 1] == "[":
            inner, pos = _parse_gml_block(tokens, pos + 2)
            if token == "graph" and graph_items is None:
                graph_items = inner
        else:
            pos += 2  # top-level scalar attribute such as Creator
    if graph_items is None:
        raise ParseError("no graph block found")

    directed = False
    ids: list[str] = []
    raw_edges: list[tuple[str, str, float]] = []
    for key, value in graph_items:
        if key == "directed" and isinstance(value, str):
            directed = value.strip() == "1"
        elif key == "node" and isinstance(value, list):
            node_id = _scalar(value, "id")
            if node_id is None:
                raise ParseError("node block without an id")
            if node_id in ids:
                raise ParseError(f"duplicate node id {node_id!r}")
            ids.append(node_id)
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
                    w = float(raw_value)
                except ValueError:
                    raise ParseError(f"cannot parse edge value {raw_value!r}") from None
            raw_edges.append((source, target, w))

    index_of = {node_id: i for i, node_id in enumerate(ids)}
    keyed: list[tuple[tuple[int, int], float]] = []
    for source, target, w in raw_edges:
        if source not in index_of:
            raise ParseError(f"edge references unknown node id {source!r}")
        if target not in index_of:
            raise ParseError(f"edge references unknown node id {target!r}")
        if not math.isfinite(w):
            raise DomainError(f"edge ({source}, {target}) weight must be finite")
        if w < 0:
            raise DomainError(f"edge ({source}, {target}) has negative weight {w}")
        keyed.append((_edge_key(index_of[source], index_of[target], directed), w))
    return Graph(tuple(ids), _min_weight_edges(keyed), directed)


def graph_to_tropical(g: Graph) -> TropicalMatrix:
    """n x n matrix: 0 diagonal, edge weights where edges exist, inf elsewhere.

    Self-loops are ignored; the distance from a node to itself is 0.
    Undirected graphs yield symmetric output. Parallel stored edges keep
    the minimum weight.
    """
    n = g.n_nodes
    data = np.full((n, n), INF)
    np.fill_diagonal(data, 0.0)
    for u, v, w in g.edges:
        if u == v:
            continue
        data[u, v] = min(data[u, v], w)
        if not g.directed:
            data[v, u] = min(data[v, u], w)
    return TropicalMatrix._wrap(data)


def graph_to_adjacency(g: Graph) -> np.ndarray:
    """0/1 adjacency matrix (weights ignored, self-loops dropped)."""
    n = g.n_nodes
    adj = np.zeros((n, n))
    for u, v, _ in g.edges:
        if u == v:
            continue
        adj[u, v] = 1.0
        if not g.directed:
            adj[v, u] = 1.0
    return adj


def shortest_path_matrix(g: Graph) -> TropicalMatrix:
    """All-pairs shortest paths: the closure of the tropical adjacency.

    Disconnected pairs hold inf; undirected graphs give a symmetric,
    idempotent result.
    """
    return kleene_star(graph_to_tropical(g))
