"""Properties of the min-plus kernels on generated input: every product,
selector, closure and waypoint search equals an independent oracle bit for
bit; closures, waypoint products, Chebyshev solutions and rank curves keep
the paper's invariants; the matrix CSV reader inverts its writer."""

import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from minplus import (
    INF, NegativeCycleError, TropicalMatrix, actual_waypoint, actual_waypoint_search, chebyshev_regression,
    is_idempotent, kleene_star, mp_multiply, principal_solution, read_matrix_csv, write_matrix_csv,
)
import minplus.core as core
from minplus.cli import main
from minplus.core import _factors, _outer_sum
from minplus.factorization import TILE_ROWS, _sym_product

from oracles import bellman_ford, ref_kleene_star, ref_waypoint_search, tropical_allclose
from test_core import brute_force_product, ref_write_csv

# small integers tie often; reals round; + 0.0 turns -0.0 into 0.0, so that
# bytes compare equal exactly when the values do
FINITE = st.one_of(st.integers(-3, 3).map(float), st.floats(-100.0, 100.0).map(lambda x: x + 0.0))
ENTRIES = st.one_of(FINITE, st.just(INF))


# entries, and magnitudes whose sums overflow to +inf or -inf
SUMMANDS = st.one_of(ENTRIES, st.sampled_from([1e308, -1e308, float(np.finfo(float).max)]))


@st.composite
def outer_sum_operands(draw):
    """Columns (..., H) and rows (..., W) under up to two leading axes, maybe
    strided, and a window of h columns from top and of the rows from left:
    the closure slices its factors so, per tile. h and the window's width
    run from 0; at 1 BLAS takes its one-row and one-column paths."""
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    step, h = draw(st.integers(1, 2)), draw(st.integers(0, 5))
    top, left = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    cols = draw(arrays(float, lead + (step * (top + h + draw(st.integers(0, 2))),), elements=SUMMANDS))[..., ::step]
    rows = draw(arrays(float, lead + (left + draw(st.integers(0, 9)),), elements=SUMMANDS))
    return cols, rows, top, h, left


@given(outer_sum_operands(), st.sampled_from([0.0, INF, np.nan]))
def test_outer_sum_equals_broadcast_add_byte_for_byte(operands, stale):
    cols, rows, top, h, left = operands
    lefts, right = _factors(cols, rows)
    out = np.full(cols.shape[:-1] + (h, rows.shape[-1] - left), stale)  # what scratch held before
    with np.errstate(over="ignore"):
        _outer_sum(out, lefts[..., top:top + h, :], right[..., left:])
        expected = cols[..., top:top + h, None] + rows[..., None, left:]
    assert out.tobytes() == expected.tobytes()


def seeded_entries(draw, shape):
    """Seeded entries of a shape: small integers (many ties) or reals, with some inf."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.integers(-3, 4, size=shape) * (1.0 if draw(st.booleans()) else 0.1 * np.pi)
    data[rng.random(shape) < draw(st.sampled_from([0.0, 0.1]))] = INF
    return data


def tied(*shape):
    """Integer entries in -3..3 seeded by the shape: nearly every min is tied."""
    return np.random.default_rng(list(shape)).integers(-3, 4, size=shape).astype(float)


@st.composite
def product_operands(draw):
    """Operands drawn entry by entry, up to 6 x 6 x 6, or seeded with up to 200 rows."""
    if draw(st.booleans()):
        n, k, m = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(0, 6))
        return draw(arrays(float, (n, k), elements=ENTRIES)), draw(arrays(float, (k, m), elements=ENTRIES))
    n, k, m = draw(st.integers(7, 200)), draw(st.integers(0, 4)), draw(st.integers(1, 6))
    return seeded_entries(draw, (n, k)), seeded_entries(draw, (k, m))


@given(product_operands())
@example((tied(62, 3), tied(3, 5)))
@example((tied(120, 4), tied(4, 6)))
def test_multiply_equals_brute_force(operands):
    a, b = operands
    got = mp_multiply(TropicalMatrix(a), TropicalMatrix(b)).data
    assert got.tobytes() == brute_force_product(a, b).tobytes()


@st.composite
def sym_stacks(draw):
    """(P, n, m) stacks drawn entry by entry, up to 3 x 6 x 6, or seeded with n up to 200."""
    if draw(st.booleans()):
        shape = draw(st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 6)))
        return draw(arrays(float, shape, elements=ENTRIES))
    return seeded_entries(draw, (draw(st.integers(1, 3)), draw(st.integers(7, 200)), draw(st.integers(1, 8))))


@given(sym_stacks())
@example(tied(3, 62, 4))
@example(tied(2, 120, 8))
@example(tied(1, 200, 1))
def test_sym_product_equals_broadcast_min_and_argmin(f):
    pairs = f[:, :, None, :] + f[:, None, :, :]  # (P, n, n, m): f_pik + f_pjk
    product, selectors = _sym_product(f)
    assert product.tobytes() == pairs.min(axis=3).tobytes()
    assert selectors.dtype == np.min_scalar_type(f.shape[2] - 1)
    assert np.array_equal(selectors, pairs.argmin(axis=3))


@st.composite
def nonneg_graphs(draw):
    """A one-hop matrix on up to 40 nodes (three 16-row closure tiles):
    integer or real weights >= 0, directed or undirected, and cut into two
    components at a drawn split (none at 0 or n)."""
    n = draw(st.integers(1, 40) | st.integers(33, 40))  # three tiles often enough
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, 10, size=(n, n)).astype(float)
    if draw(st.booleans()):
        a *= 0.1 * np.pi
    a[rng.random((n, n)) >= draw(st.integers(0, 10)) / 10] = INF
    split = draw(st.integers(0, n))
    a[:split, split:] = a[split:, :split] = INF
    return a if draw(st.booleans()) else np.minimum(a, a.T)


@given(nonneg_graphs())
def test_kleene_star_equals_full_matrix_reference(a):
    assert kleene_star(TropicalMatrix(a)).data.tobytes() == ref_kleene_star(a).tobytes()


@given(nonneg_graphs())
def test_closure_is_idempotent(a):
    # a fresh copy carries no verdict, so the product runs: kleene_star's mark is true
    assert is_idempotent(TropicalMatrix(kleene_star(TropicalMatrix(a)).data))


@st.composite
def square_matrices(draw):
    """Up to 6 x 6 entries from ENTRIES, or the closure of their absolute
    values, which is idempotent, with one entry maybe moved by a step about
    the tolerance or larger."""
    n = draw(st.integers(0, 6))
    a = draw(arrays(float, (n, n), elements=ENTRIES))
    if draw(st.booleans()):
        a = ref_kleene_star(np.abs(a))
        if n:
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            a[i, j] += draw(st.sampled_from([0.0, 5e-10, 2e-9, -1.0]))
    return a


@given(square_matrices())
def test_is_idempotent_compares_the_square_with_the_matrix(a):
    A = TropicalMatrix(a)
    expected = tropical_allclose(mp_multiply(A, A), A)
    event("idempotent" if expected else "not idempotent")
    assert is_idempotent(A) == expected
    with mock.patch.object(core, "_mp", side_effect=AssertionError("a second product")):
        assert is_idempotent(A) == expected  # the kept verdict


@st.composite
def regression_instances(draw):
    """A (up to 6 x 6) with entries from ENTRIES, some inf, and a finite
    entry in every row and column, and a finite y."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a = draw(arrays(float, (rows, cols), elements=ENTRIES))
    k = np.arange(max(rows, cols))
    a[k % rows, k % cols] = draw(arrays(float, len(k), elements=FINITE))
    return a, draw(arrays(float, rows, elements=FINITE))


@given(regression_instances())
def test_chebyshev_solution_is_the_least_optimum(instance):
    a, y = instance
    A = TropicalMatrix(a)
    out = chebyshev_regression(A, y)

    def sup_residual(x):
        return float(np.max(np.abs(mp_multiply(A, TropicalMatrix(x[:, None])).data[:, 0] - y)))

    scale = 1.0 + np.abs(a[np.isfinite(a)]).max() + np.abs(y).max()
    overshoot = mp_multiply(A, TropicalMatrix(principal_solution(A, y)[:, None])).data[:, 0] - y
    assert abs(out.residual_norm - overshoot.max() / 2) <= 1e-12 * scale
    step = 1e-6 * scale
    for j in range(a.shape[1]):  # any lower point undershoots some row by more
        lowered = out.solution.copy()
        lowered[j] -= step
        assert sup_residual(lowered) >= out.residual_norm + step / 2


@st.composite
def signed_graphs(draw):
    """A one-hop matrix on up to 40 nodes, so that pivot blocks end partway
    and there are several closure tiles, with integer weights of either
    sign. Directed: weights 0..9 plus p_i - p_j for drawn potentials p,
    which keeps every cycle's weight, so no cycle is negative. Symmetric:
    weights 0..9, so the closure takes its upper-triangle path. Then up to
    two drawn edges (both directions when symmetric) are set below 0,
    which may close a negative cycle."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, 10, size=(n, n)).astype(float)
    a[rng.random((n, n)) >= draw(st.integers(0, 10)) / 10] = INF
    symmetric = draw(st.booleans())
    if symmetric:
        a = np.minimum(a, a.T)
    else:
        potential = rng.integers(-5, 6, size=n)
        a += potential[:, None] - potential[None, :]
    for _ in range(draw(st.integers(0, 2))):
        i, j = rng.integers(0, n, size=2)
        a[i, j] = -float(rng.integers(1, 10))
        if symmetric:
            a[j, i] = a[i, j]
    return a


@given(signed_graphs())
def test_kleene_star_reports_a_negative_cycle_iff_bellman_ford_finds_one(a):
    expected = bellman_ford(a)
    event("negative cycle" if expected is None else "distances")
    if expected is None:
        with pytest.raises(NegativeCycleError):
            kleene_star(TropicalMatrix(a))
    else:
        assert np.array_equal(kleene_star(TropicalMatrix(a)).data, expected)


@given(signed_graphs())
def test_kleene_star_equals_scipy_floyd_warshall(a):
    # a second closure oracle, written independently of this package. scipy
    # skips self-loops, so a negative one, a cycle here, is raised to 0; on a
    # dense array it reads 0 as a missing edge, so inf marks them instead
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    np.fill_diagonal(a, np.maximum(a.diagonal(), 0.0))
    graph = csgraph.csgraph_from_dense(a, null_value=np.inf)
    try:
        expected = csgraph.shortest_path(graph, method="FW")
    except csgraph.NegativeCycleError:
        event("negative cycle")
        with pytest.raises(NegativeCycleError):
            kleene_star(TropicalMatrix(a))
    else:
        assert kleene_star(TropicalMatrix(a)).data.tobytes() == expected.tobytes()


@st.composite
def waypoint_inputs(draw):
    """A symmetric matrix, its kind and a waypoint rank. The kinds: the
    closure of a connected graph with integer weights 1..3 (they tie often)
    or with those weights times 0.1*pi (sums round), and a signed integer
    symmetric matrix, which is no distance matrix. Up to 70 nodes, so that a
    scan can run two row tiles."""
    n = draw(st.integers(60, 70) | st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind, m = draw(st.sampled_from(["integer", "scaled", "signed"])), draw(st.integers(1, min(n, 4)))
    if kind == "signed":
        a = rng.integers(-3, 6, size=(n, n)).astype(float)
        return a + a.T, kind, m
    a = rng.integers(1, 4, size=(n, n)).astype(float)
    a[rng.random((n, n)) < 0.7] = INF
    order = rng.permutation(n)
    a[order[:-1], order[1:]] = 1.0  # a spanning path keeps every distance finite
    a = np.minimum(a, a.T) * (0.1 * math.pi if kind == "scaled" else 1.0)
    np.fill_diagonal(a, 0.0)
    return kleene_star(TropicalMatrix(a)), kind, m


@given(waypoint_inputs(), st.integers(0, 3), st.integers(1, 40), st.booleans())
def test_pruned_search_equals_unpruned_search(inputs, seed, budget, exhaustive):
    d, kind, m = inputs
    data = d if kind == "signed" else d.data
    total = math.comb(len(data), m)
    if exhaustive and total <= 300:
        budget = total  # every subset; otherwise mostly a sample of budget < total
    tiles = "two tiles" if len(data) > TILE_ROWS else "one tile"
    event(f"{kind}, {'exhaustive' if budget >= total else 'sampled'}, {tiles}")  # --hypothesis-show-statistics
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "input is not idempotent")
        w, pair = actual_waypoint_search(d, m, budget=budget, seed=seed)
    ref_w, ref_left, ref_res = ref_waypoint_search(data, m, budget, seed)
    assert w == ref_w
    assert pair.residual.hex() == ref_res.hex()
    assert pair.left.data.tobytes() == ref_left.tobytes()


@given(waypoint_inputs(), st.data())
def test_waypoint_product_dominates_closure_and_is_exact_on_waypoint_rows(inputs, data):
    # exact with integer weights; rounded path sums may reach an ulp or so below
    d, kind, m = inputs
    if kind == "signed":
        return  # these are a closure's invariants
    w = data.draw(st.lists(st.integers(0, d.rows - 1), min_size=1, max_size=m, unique=True))
    pair = actual_waypoint(d, w)
    product = mp_multiply(pair.left, pair.right).data
    slack = 0.0 if kind == "integer" else 1e-13 * d.data.max()
    assert (product >= d.data - slack).all()
    assert (np.abs(product[w] - d.data[w]) <= slack).all()


# -0.0, subnormals and magnitudes near the float range, and +inf
WIDE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(INF))


@st.composite
def csv_matrices(draw):
    """Entries from a pool of at most 4 values, which repeat, so the writer formats each distinct
    value once, or wide floats, mostly distinct, so it formats each entry; shapes up to 7 x 7."""
    pool = draw(st.booleans())
    event("pool of 4" if pool else "wide floats")
    values = draw(st.permutations([0.0, -0.0, INF, draw(WIDE)]))[: draw(st.integers(1, 4))]  # often both zeros
    elements = st.sampled_from(values) if pool else WIDE
    shape = (draw(st.integers(0, 7)), draw(st.integers(0, 7)))
    return draw(arrays(float, shape, elements=elements, fill=st.nothing()))


@given(csv_matrices())
@example(np.empty((3, 0)))
@example(np.empty((0, 0)))
def test_csv_writer_formats_each_entry_as_format_does(data):
    # wrapped, not constructed: the constructor would turn -0.0 into 0.0
    assert write_matrix_csv(TropicalMatrix._wrap(data)) == ref_write_csv(data)


# an n x 0 matrix writes n blank lines, which read back as 0 x 0: it lies outside the format
@given(csv_matrices().filter(lambda data: data.shape[1] or not data.shape[0]))
@example(np.empty((0, 0)))
def test_csv_reader_inverts_the_writer(data):
    text = write_matrix_csv(TropicalMatrix._wrap(data))
    back = read_matrix_csv(text).data
    assert back.shape == data.shape
    assert back.tobytes() == (data + 0.0).tobytes()  # -0 reads as 0
    assert write_matrix_csv(TropicalMatrix._wrap(back)) == ref_write_csv(data + 0.0)


@st.composite
def curve_runs(draw):
    """An undirected connected edge list on up to 10 nodes, with integer weights 1..9
    or those times 0.1*pi, and the residual-curve flags of a small run."""
    n = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 0.1 * math.pi if draw(st.booleans()) else 1.0
    order = rng.permutation(n)  # a spanning path keeps every distance finite
    chords = rng.integers(0, n, size=(draw(st.integers(0, n)), 2))
    pairs = list(zip(order[:-1], order[1:])) + chords.tolist()
    edges = "".join(f"{u} {v} {rng.integers(1, 10) * scale:.17g}\n" for u, v in pairs)
    flags = ["--max-rank", draw(st.integers(1, 4)), "--restarts", draw(st.integers(1, 2)),
             "--max-iter", draw(st.integers(1, 10)), "--seed", draw(st.integers(0, 3))]
    return edges, [str(flag) for flag in flags]


@settings(max_examples=25)
@given(curve_runs())
@example(("0 3 2\n3 2 8\n2 1 6\n1 3 1\n0 3 7\n0 1 4\n",  # a cold sym start rises at rank 3 here
          ["--max-rank", "3", "--restarts", "1", "--max-iter", "1", "--seed", "1"]))
def test_rank_curves_never_increase(run):
    edges, flags = run
    with tempfile.TemporaryDirectory() as tmp:  # hypothesis rejects function-scoped fixtures
        (Path(tmp) / "g.edges").write_text(edges)
        for method in ("minplus-sym", "minplus-general"):
            argv = ["residual-curve", "--input", str(Path(tmp) / "g.edges"), "--method", method, "--out-dir", tmp]
            assert main(argv + flags) == 0
            values = np.loadtxt(Path(tmp) / "curve.csv", delimiter=",", skiprows=1, ndmin=1, usecols=1)
            assert (np.diff(values) <= 0.0).all(), method
