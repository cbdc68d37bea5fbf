"""Shared fixtures: the 6-node worked example and its derived matrices."""

import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# property tests draw the same examples on every run and keep no example database
settings.register_profile("minplus", derandomize=True, deadline=None, database=None, max_examples=100)
settings.load_profile("minplus")
# while it collects tests, hypothesis still caches the constants it reads from
# the package's source in its home directory, ./.hypothesis by default: keep
# that in a temporary directory, removed when the interpreter exits
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="minplus-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

INF = np.inf

# Undirected weighted graph on 6 nodes used throughout the docs:
# edges (1,2,2) (1,3,1) (2,3,2) (3,4,5) (4,5,3) (4,6,2) (5,6,2).
EXAMPLE_EDGES = "1 2 2\n1 3 1\n2 3 2\n3 4 5\n4 5 3\n4 6 2\n5 6 2\n"

# One-hop tropical matrix of that graph.
EXAMPLE_A = np.array(
    [
        [0, 2, 1, INF, INF, INF],
        [2, 0, 2, INF, INF, INF],
        [1, 2, 0, 5, INF, INF],
        [INF, INF, 5, 0, 3, 2],
        [INF, INF, INF, 3, 0, 2],
        [INF, INF, INF, 2, 2, 0],
    ],
    dtype=float,
)

# All-pairs shortest-path matrix of the same graph.
EXAMPLE_D = np.array(
    [
        [0, 2, 1, 6, 9, 8],
        [2, 0, 2, 7, 10, 9],
        [1, 2, 0, 5, 8, 7],
        [6, 7, 5, 0, 3, 2],
        [9, 10, 8, 3, 0, 2],
        [8, 9, 7, 2, 2, 0],
    ],
    dtype=float,
)

# Product D(:,W) (x) D(:,W)^T for the waypoint set W = {node 3, node 4}.
EXAMPLE_WAYPOINT_PRODUCT = np.array(
    [
        [2, 3, 1, 6, 9, 8],
        [3, 4, 2, 7, 10, 9],
        [1, 2, 0, 5, 8, 7],
        [6, 7, 5, 0, 3, 2],
        [9, 10, 8, 3, 6, 5],
        [8, 9, 7, 2, 5, 4],
    ],
    dtype=float,
)

# Reference rank-2 virtual waypoint factor for EXAMPLE_D (6x2, four
# decimal places), with Frobenius residual 4.5680.
EXAMPLE_F = np.array(
    [
        [0.4722, 7.7778],
        [0.9722, 8.9778],
        [0.2222, 6.7778],
        [5.4444, 0.8889],
        [9.0278, 1.0222],
        [8.0278, 0.4222],
    ],
    dtype=float,
)

# GML that must not load, with the fault each names: a ']' where a value
# belongs, a key without a value at the top level or in a block, a '['
# with no key before it and a ']' outside every block
MALFORMED_GML = [
    ("graph [ node [ id ] ] ]", "key 'id' has no value"),
    ("Creator ] graph [ node [ id 1 ] ]", "key 'Creator' has no value"),
    ("graph [ node [ id 1 ] ] Creator", "key 'Creator' has no value"),
    ("graph [ node [ id 1 label ] node [ id 2 ] ]", "key 'label' has no value"),
    ("[ graph [ node [ id 1 ] ] ]", r"unexpected '\['"),
    ("graph [ node [ id 1 ] ] ]", r"stray '\]'"),
]

# Small regression instance with a known infinity-norm optimum [0.5, 0.5].
REGRESS_A = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
REGRESS_Y = np.array([0.0, 1.0, 1.0])


@pytest.fixture
def example_edges():
    return EXAMPLE_EDGES


@pytest.fixture
def example_a():
    return EXAMPLE_A.copy()


@pytest.fixture
def example_d():
    return EXAMPLE_D.copy()


@pytest.fixture
def example_waypoint_product():
    return EXAMPLE_WAYPOINT_PRODUCT.copy()


@pytest.fixture
def example_f():
    return EXAMPLE_F.copy()


@pytest.fixture
def regress_instance():
    return REGRESS_A.copy(), REGRESS_Y.copy()


def random_nonneg_graph_matrix(rng, n, density=0.6, high=9):
    """Random symmetric one-hop matrix: zero diagonal, integer weights."""
    a = np.full((n, n), INF)
    np.fill_diagonal(a, 0.0)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                w = float(rng.integers(1, high + 1))
                a[i, j] = w
                a[j, i] = w
    return a
