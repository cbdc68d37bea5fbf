"""Properties of the min-plus kernels on generated input: every product,
selector and closure equals an independent oracle bit for bit."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from minplus import INF, TropicalMatrix, kleene_star, mp_multiply
from minplus.factorization import _sym_product

from oracles import ref_kleene_star
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
