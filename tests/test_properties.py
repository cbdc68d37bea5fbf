"""Properties of the min-plus kernels on generated input: every product,
selector, closure and waypoint search equals an independent oracle bit for
bit, and waypoint products keep the paper's invariants."""

import math
import warnings

import numpy as np
from hypothesis import event, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from minplus import INF, TropicalMatrix, actual_waypoint, actual_waypoint_search, kleene_star, mp_multiply
from minplus.factorization import TILE_ROWS, _sym_product

from oracles import ref_kleene_star, ref_waypoint_search
from test_core import brute_force_product

# small integers tie often; reals round; + 0.0 turns -0.0 into 0.0, so that
# bytes compare equal exactly when the values do
FINITE = st.one_of(st.integers(-3, 3).map(float), st.floats(-100.0, 100.0).map(lambda x: x + 0.0))
ENTRIES = st.one_of(FINITE, st.just(INF))


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
