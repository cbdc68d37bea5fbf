"""Properties of the min-plus kernels on generated input: every product,
selector, closure and waypoint search equals an independent oracle bit for
bit, and waypoint products keep the paper's invariants."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from minplus import (
    INF, NegativeCycleError, TropicalMatrix, actual_waypoint, actual_waypoint_search, kleene_star, mp_multiply,
    write_matrix_csv,
)
from minplus.core import _factors, _outer_sum
from minplus.factorization import TILE_ROWS, _sym_product

from oracles import bellman_ford, ref_kleene_star, ref_waypoint_search
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


@st.composite
def product_operands(draw):
    n, k, m = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(0, 6))
    return draw(arrays(float, (n, k), elements=ENTRIES)), draw(arrays(float, (k, m), elements=ENTRIES))


@given(product_operands())
def test_multiply_equals_brute_force(operands):
    a, b = operands
    got = mp_multiply(TropicalMatrix(a), TropicalMatrix(b)).data
    assert got.tobytes() == brute_force_product(a, b).tobytes()


@given(
    st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda shape: arrays(float, shape, elements=ENTRIES)
    )
)
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
