"""Waypoint selection, Jacobi updates, and the two factorization drivers."""

import itertools
import math
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from minplus import (
    INF,
    DomainError,
    FactorPair,
    NonsymFactorConfig,
    ShapeError,
    SymFactorConfig,
    TropicalMatrix,
    actual_waypoint,
    actual_waypoint_search,
    chebyshev_regression,
    frobenius_distance,
    jacobi_map,
    kleene_star,
    load_edge_list,
    mp_multiply,
    nonsym_factorize,
    residual_of_given_factor,
    shortest_path_matrix,
    sym_factorize,
)

import minplus.factorization as factorization
from minplus.core import _mp
from minplus.factorization import (
    INNER_MAX_ITER,
    PRUNE_MARGIN,
    TILE_ROWS,
    _bound_fill,
    _jacobi_apply,
    _jacobi_setup,
    _jacobi_tables,
    _kmeans_columns,
    _kmeans_start,
    _row_bounds,
    _sym_product,
    _tile_sums,
)
import minplus.regression as regression
from minplus.regression import RegressionConfig, _newton_batch

from conftest import EXAMPLE_D, random_nonneg_graph_matrix
from oracles import ref_alternate, ref_jacobi_apply, ref_jacobi_setup, ref_sym_factorize, ref_waypoint_search


@pytest.fixture(scope="module")
def closure300():
    """Shortest-path matrix of a sparse 300-node graph, for memory tests."""
    rng = np.random.default_rng(301)
    return kleene_star(TropicalMatrix(random_nonneg_graph_matrix(rng, 300, density=0.05)))


def random_distance_matrix(rng, n):
    return kleene_star(TropicalMatrix(random_nonneg_graph_matrix(rng, n, density=0.9))).data


def frozen_quadratic(d, f_sel, f_prime):
    """q_F(F') with selectors frozen at f_sel, summed over ordered pairs."""
    n, m = f_prime.shape
    sel = (f_sel[:, None, :] + f_sel[None, :, :]).argmin(axis=2)
    total = 0.0
    for i in range(n):
        for j in range(n):
            k = sel[i, j]
            total += (d[i, j] - f_prime[i, k] - f_prime[j, k]) ** 2
    return total


def test_actual_waypoint_example(example_d, example_waypoint_product):
    pair = actual_waypoint(example_d, [2, 3])
    assert np.array_equal(
        mp_multiply(pair.left, pair.right).data, example_waypoint_product
    )
    assert pair.left.data.shape == (6, 2)
    assert np.array_equal(pair.left.data, example_d[:, [2, 3]])
    assert np.array_equal(pair.right.data, pair.left.data.T)
    assert pair.residual == pytest.approx(np.sqrt(92.0))
    assert pair.residual == pytest.approx(9.5917, abs=1e-3)


def test_actual_waypoint_all_indices_is_exact(example_d):
    pair = actual_waypoint(example_d, range(6))
    assert pair.residual == 0.0


def test_actual_waypoint_two_by_two():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    pair = actual_waypoint(d, [0])
    assert np.array_equal(mp_multiply(pair.left, pair.right).data, [[0.0, 1.0], [1.0, 2.0]])
    assert pair.residual == pytest.approx(2.0)


def test_actual_waypoint_product_dominates_and_pins_waypoint_rows():
    rng = np.random.default_rng(30)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        d = random_distance_matrix(rng, n)
        if np.isinf(d).any():
            continue
        m = int(rng.integers(1, n))
        w = sorted(rng.choice(n, size=m, replace=False).tolist())
        pair = actual_waypoint(d, w)
        product = mp_multiply(pair.left, pair.right).data
        assert (product >= d - 1e-12).all()
        for i in w:
            assert np.allclose(product[i], d[i])


def test_actual_waypoint_input_validation(example_d):
    with pytest.raises(ValueError):
        actual_waypoint(example_d, [1, 1])
    # int() would truncate a fraction or a bool to a valid index, and float() parses text
    for waypoints in ([], [1.7], [True], [np.True_], [0, np.float64(2.5)], [float("nan")], [INF], ["1"], [" 2 "]):
        with pytest.raises(ValueError, match="integer"):
            actual_waypoint(example_d, waypoints)
    assert actual_waypoint(example_d, [np.float64(2.0), 3.0]).residual == actual_waypoint(example_d, [2, 3]).residual
    with pytest.raises(IndexError):
        actual_waypoint(example_d, [99])
    with pytest.raises(DomainError):
        actual_waypoint(np.array([[0.0, INF], [INF, 0.0]]), [0])
    with pytest.raises(ShapeError):
        actual_waypoint(np.array([[0.0, 1.0], [2.0, 0.0]]), [0])  # not symmetric


def test_actual_waypoint_search_exhaustive_matches_brute_force(example_d):
    w, pair = actual_waypoint_search(example_d, 2)
    best = min(
        frobenius_distance(
            TropicalMatrix(example_d),
            mp_multiply(TropicalMatrix(example_d[:, list(c)]), TropicalMatrix(example_d[list(c), :])),
        )
        for c in itertools.combinations(range(6), 2)
    )
    assert pair.residual == pytest.approx(best)
    assert pair.restarts_used == 15  # C(6,2) subsets evaluated
    assert len(w) == 2


def test_actual_waypoint_search_ties_pick_smallest_set():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    w, pair = actual_waypoint_search(d, 1)
    assert tuple(w) == (0,)  # {0} and {1} tie at residual 2
    assert pair.residual == pytest.approx(2.0)


def test_actual_waypoint_search_full_rank(example_d):
    w, pair = actual_waypoint_search(example_d, 6)
    assert pair.residual == 0.0
    assert tuple(w) == tuple(range(6))


def test_actual_waypoint_search_sampled_budget(example_d):
    w, pair = actual_waypoint_search(example_d, 3, budget=5, seed=1)
    assert pair.restarts_used == 5
    exhaustive = actual_waypoint_search(example_d, 3)[1]
    assert pair.residual >= exhaustive.residual - 1e-12


def assert_search_matches_reference(d, m, budget, seed):
    """The pruned search returns the unpruned reference's W, residual bits
    and factor bytes; True when the candidates were enumerated."""
    w, pair = actual_waypoint_search(d, m, budget=budget, seed=seed)
    ref_w, ref_left, ref_res = ref_waypoint_search(d, m, budget, seed)
    assert w == ref_w
    assert pair.residual.hex() == ref_res.hex()
    assert pair.left.data.tobytes() == ref_left.tobytes()
    assert pair.right.data.tobytes() == ref_left.T.tobytes()
    return math.comb(d.shape[0], m) <= budget


def star_closure(n, center):
    """Shortest paths of a unit-weight star: 1 to the center, 2 between leaves."""
    d = np.full((n, n), 2.0)
    d[center, :] = d[:, center] = 1.0
    np.fill_diagonal(d, 0.0)
    return d


@pytest.mark.filterwarnings("ignore:input is not idempotent")
def test_pruned_search_matches_unpruned_reference():
    # W, residual bits and factors equal the full search: integer weights
    # 1..2 tie often, so the lexicographic rule decides; real weights do
    # not. Above TILE_ROWS nodes a candidate can drop mid-matrix; trials
    # from 16 on span three row tiles.
    rng = np.random.default_rng(37)
    exhaustive = sampled = 0
    for trial in range(20):
        low, high = (129, 140) if trial >= 16 else (6, 12) if trial % 8 else (65, 80)
        n = int(rng.integers(low, high))
        d = kleene_star(TropicalMatrix(random_nonneg_graph_matrix(rng, n, density=0.3, high=2))).data
        if np.isinf(d).any():
            continue
        if trial % 2:
            d = d * (0.1 * math.pi)
        for m in range(1, 6):
            budget = 250 if (trial + m) % 2 else 20
            if assert_search_matches_reference(d, m, budget, trial):
                exhaustive += 1
            else:
                sampled += 1
    assert exhaustive >= 15 and sampled >= 15
    # every set is exact on the zero matrix, so a sampled search must still
    # return the smallest sampled set, not the first
    zero = np.zeros((12, 12))
    for m in range(1, 6):
        w, pair = actual_waypoint_search(zero, m, budget=20, seed=m)
        assert (w, pair.residual) == ref_waypoint_search(zero, m, 20, m)[::2]
    # symmetric matrices that are no distance matrix (negative entries,
    # integer ones tie), stars whose candidates share ranking keys, and
    # rank 1, where the Voronoi bound equals the residual on a closure;
    # each kind runs on the exhaustive and on the sampled branch
    rng = np.random.default_rng(113)
    branches = {kind: [] for kind in ("signed", "star", "rank1")}
    for trial in range(12):
        n = int(rng.integers(7, 11)) if trial % 3 else int(rng.integers(65, 140))
        a = rng.integers(-3, 6, size=(n, n)).astype(float) if trial % 2 else rng.normal(size=(n, n))
        star = star_closure(n, int(rng.integers(n))) * (1.0 if trial % 2 else 0.1 * math.pi)
        closure = kleene_star(TropicalMatrix(random_nonneg_graph_matrix(rng, n, density=0.5))).data
        for m in range(1, 5):
            budget = 120 if (trial + m) % 2 else 15
            branches["signed"].append(assert_search_matches_reference(a + a.T, m, budget, trial))
            branches["star"].append(assert_search_matches_reference(star, m, budget, trial))
        for budget in (n, n - 1):
            branches["rank1"].append(assert_search_matches_reference(closure * 0.3, 1, budget, trial))
    assert all(set(kinds) == {True, False} for kinds in branches.values())


def search_bounds(d, w):
    """W's Voronoi tile totals, row bound and residual^2 as np.sum sums it.
    No tile lowers the running total, and the row bound is at most both the
    Voronoi bound and the residual^2. NaN (from an overflow) compares false,
    so a NaN bound or total drops nothing."""
    near = d[w].min(axis=0)
    left = d[:, w]
    residual_sq = float(np.sum((_mp(left, left.T) - d) ** 2))
    sums = list(_tile_sums(d, np.empty(min(TILE_ROWS, len(d)) * len(d)), partial(_bound_fill, near)))
    assert not any(earlier > later for earlier, later in zip(sums, sums[1:]))
    row = _row_bounds(near[None], d.sum(axis=1), np.abs(d).sum(axis=1))[0]
    assert not row > sums[-1] or np.isinf(residual_sq)
    assert not row > residual_sq
    return sums, row, residual_sq


def test_voronoi_bound_is_a_lower_bound_of_the_residual():
    # each Voronoi term is at most the residual's, and the row bound is at
    # most the Voronoi bound by Cauchy-Schwarz, for any finite symmetric D
    rng = np.random.default_rng(59)
    for trial in range(60):
        n = int(rng.integers(2, 200))
        a = rng.normal(size=(n, n)) if trial % 2 else rng.integers(-3, 10, size=(n, n)).astype(float)
        d = a + a.T
        w = sorted(rng.choice(n, size=int(rng.integers(1, min(n, 5) + 1)), replace=False).tolist())
        near = d[w].min(axis=0)
        left = d[:, w]
        difference = _mp(left, left.T) - d
        terms = np.empty_like(d)
        _bound_fill(near, terms, d, 0)
        assert (terms**2 <= difference**2).all()
        assert search_bounds(d, w)[0][-1] <= float(np.sum(difference**2))


@pytest.mark.filterwarnings("ignore:input is not idempotent")
def test_row_bound_holds_where_cauchy_schwarz_is_tight():
    # on c*J every row's Voronoi terms are equal, so the row bound is the
    # residual^2 but for its slack (and the Voronoi total can round above
    # it, within the search's margin); near 1e300 the residual overflows,
    # and the bound may be inf or NaN there but never above a finite residual
    rng = np.random.default_rng(61)
    for n in (2, 3, 63, 64, 65, 130):
        tight = np.sqrt(np.finfo(float).max) / n * 0.99  # residual^2 just below overflow
        for c in (1.0, 7.0, 0.1 * math.pi, 7 * 0.1 * math.pi, 1e-300, tight, 1e300):
            w = sorted(rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False).tolist())
            with np.errstate(over="ignore", invalid="ignore"):
                sums, row, residual_sq = search_bounds(np.full((n, n), c), w)
            if c < 1e300:
                assert 0.999 * residual_sq <= row <= residual_sq
                assert sums[-1] <= residual_sq * (1.0 + PRUNE_MARGIN)
        a = rng.integers(1, 10, size=(n, n)) * 1e299
        with np.errstate(over="ignore", invalid="ignore"):
            search_bounds(a + a.T, [0])
        # every set ties: a tile total that overflowed while forming twice
        # a tile's sum would drop the smallest sampled set
        for budget, m in ((n, 1), (n - 1, 1), (30, 2)):
            assert_search_matches_reference(np.full((n, n), tight), m, budget, n)


def test_actual_waypoint_search_rejects_budget_below_one(example_d):
    for budget in (0, -1):
        with pytest.raises(ValueError, match="budget"):
            actual_waypoint_search(example_d, 2, budget=budget)


def test_actual_waypoint_search_memory_is_quadratic(closure300):
    n = closure300.rows
    tracemalloc.start()
    try:
        actual_waypoint_search(closure300, 4, budget=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one kept n x n buffer plus tiles of O(n) rows peaks at 2.02 n^2 doubles;
    # scoring each survivor by a fresh product (result, scratch and D minus
    # it) peaks at 3.90, and a length-n vector kept per candidate would need
    # budget * n * 8 bytes: both exceed this bound
    assert peak < 2.5 * n * n * 8


def count_search_stages(monkeypatch):
    """Rank 4, budget 200 on the 150-node golden graph: the candidates that
    start the Voronoi scan, and the ones scored from their kept tiles."""
    scans, scored = [], []
    bound_fill, kept_residual = factorization._bound_fill, factorization._kept_residual

    def counting_fill(near, tile, rows, top):
        scans.append(top == 0)  # a scan's first tile
        bound_fill(near, tile, rows, top)

    def counting_residual(kept):
        scored.append(1)
        return kept_residual(kept)

    text = (Path(__file__).parent / "golden" / "graph150_real.edges").read_text()
    closure = shortest_path_matrix(load_edge_list(text))
    monkeypatch.setattr(factorization, "_bound_fill", counting_fill)
    monkeypatch.setattr(factorization, "_kept_residual", counting_residual)
    actual_waypoint_search(closure, 4, budget=200)
    return sum(scans), len(scored)


def test_ranked_search_scores_few_candidates_in_full(monkeypatch):
    assert 1 <= count_search_stages(monkeypatch)[1] <= 2


def test_row_bound_drops_most_candidates_before_any_tile(monkeypatch):
    assert count_search_stages(monkeypatch)[0] < 100  # of 200; without the row bound, every one starts


@pytest.mark.parametrize("as_matrix", [False, True])
def test_waypoint_routines_warn_on_non_idempotent_input(as_matrix):
    # the verdict is cached on a TropicalMatrix, but every call still warns
    d = np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 1.0], [2.0, 1.0, 1.0]])
    D = TropicalMatrix(d) if as_matrix else d
    cfg = SymFactorConfig(rank=1, restarts=1, max_iter=2, seed=0)
    for _ in range(2):
        with pytest.warns(UserWarning, match="not idempotent"):
            actual_waypoint(D, [0])
        with pytest.warns(UserWarning, match="not idempotent"):
            actual_waypoint_search(D, 1)
        with pytest.warns(UserWarning, match="not idempotent"):
            sym_factorize(D, cfg)


def test_closure_never_reaches_is_idempotent(example_d, idempotency_products):
    # kleene_star marks its closure, so is_idempotent never multiplies it
    closure = kleene_star(TropicalMatrix(example_d))
    actual_waypoint(closure, [0, 1])
    actual_waypoint_search(closure, 2)
    sym_factorize(closure, SymFactorConfig(rank=2, restarts=1, max_iter=2))
    assert idempotency_products == []


def test_idempotency_checked_once_per_matrix(example_d, idempotency_products):
    D = TropicalMatrix(example_d)  # not a closure: unchecked until first use
    for rank in (1, 2, 3):
        sym_factorize(D, SymFactorConfig(rank=rank, restarts=1, max_iter=2))
    actual_waypoint_search(D, 2)
    assert len(idempotency_products) == 1
    sym_factorize(example_d, SymFactorConfig(rank=1, restarts=1, max_iter=2))
    assert len(idempotency_products) == 2  # a bare array has nowhere to keep the verdict


def test_jacobi_map_single_entry():
    out = jacobi_map(np.array([[6.0]]), np.array([[2.0]]), np.array([[2.0]]))
    assert out.data[0, 0] == pytest.approx(3.0)  # minimizes (6 - 2f)^2


def test_jacobi_map_two_by_two_fixed_point():
    d = np.array([[0.0, 4.0], [4.0, 0.0]])
    f = np.array([[1.0], [1.0]])
    out = jacobi_map(d, f, f)
    assert np.allclose(out.data, f)  # (0*1 + (4-1)) / (2+1) = 1
    product = mp_multiply(TropicalMatrix(f), TropicalMatrix(f.T))
    assert frobenius_distance(TropicalMatrix(d), product) == pytest.approx(4.0)


def test_jacobi_map_copies_unselected_columns():
    d = np.array([[0.0, 2.0], [2.0, 0.0]])
    f = np.array([[0.0, 50.0], [0.0, 60.0]])  # second column never wins a min
    fp = np.array([[0.0, 7.0], [0.0, 8.0]])
    out = jacobi_map(d, f, fp)
    assert np.array_equal(out.data[:, 1], fp[:, 1])


@pytest.mark.parametrize("d, f, fp, error, message", [
    (np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((2, 1)), ShapeError, "square"),
    (np.zeros((3, 3)), np.zeros((3, 2)), np.zeros((3, 1)), ShapeError, "disagree"),
    (np.zeros((3, 3)), np.zeros((2, 1)), np.zeros((2, 1)), ShapeError, "disagree"),
    (np.zeros((3, 3)), np.zeros((3, 0)), np.zeros((3, 0)), ShapeError, "no columns"),
    (np.zeros((1, 1)), np.zeros((1, 0)), np.zeros((1, 0)), ShapeError, "no columns"),
    (np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0)), ShapeError, "no columns"),
    (np.full((2, 2), INF), np.zeros((2, 1)), np.zeros((2, 1)), DomainError, "finite"),
    (np.zeros((2, 2)), np.array([[0.0], [INF]]), np.zeros((2, 1)), DomainError, "finite"),
    (np.zeros((2, 2)), np.zeros((2, 1)), np.array([[INF], [0.0]]), DomainError, "finite"),
])
def test_jacobi_map_rejects_each_bad_input(d, f, fp, error, message):
    # a zero-column F is caught before numpy, whose reshape (n = 3) or indexing (n = 1) would fail on it
    with pytest.raises(error, match=message):
        jacobi_map(d, f, fp)


def test_jacobi_map_of_an_empty_matrix_is_empty():
    # the sweep's reshapes name the column count, which no entry of an empty matrix can imply
    assert jacobi_map(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((0, 2))).shape == (0, 2)


def einsum_jacobi_sweep(d, f, fp):
    """Reference sweep: one-hot n x n x m selector tensor contracted by einsum."""
    n, m = f.shape
    selectors = (f[:, None, :] + f[None, :, :]).argmin(axis=2)
    one_hot = selectors[:, :, None] == np.arange(m)[None, None, :]
    diag = np.arange(n)
    diag_hot = one_hot[diag, diag, :]
    cross_count = one_hot.sum(axis=1) - diag_hot
    static_num = np.einsum("ijk,ij->ik", one_hot, d) - diag_hot * d[diag, diag][:, None]
    denominator = 2.0 * diag_hot + cross_count
    cross = np.einsum("ijk,jk->ik", one_hot, fp) - diag_hot * fp
    numerator = d[diag, diag][:, None] * diag_hot + static_num - cross
    return np.where(denominator > 0, numerator / np.where(denominator > 0, denominator, 1.0), fp)


@pytest.mark.parametrize("ties", [True, False])
def test_jacobi_sweep_and_selectors_match_einsum_reference(ties):
    rng = np.random.default_rng(17 if ties else 18)
    for _ in range(10):
        n, m = int(rng.integers(2, 12)), int(rng.integers(1, 6))
        d = random_distance_matrix(rng, n)
        if ties:  # small integer factors: many pairs attain their min twice
            f = rng.integers(0, 4, size=(n, m)).astype(float)
        else:
            f = rng.normal(scale=3.0, size=(n, m))
        fp = f + rng.normal(size=(n, m))
        pair_values = f[:, None, :] + f[None, :, :]
        (product,), (selectors,) = _sym_product(f[None])
        assert np.array_equal(selectors, pair_values.argmin(axis=2))
        assert np.array_equal(product, pair_values.min(axis=2))
        assert np.array_equal(product, _mp(f, f.T))
        got, want = jacobi_map(d, f, fp).data, einsum_jacobi_sweep(d, f, fp)
        if m == 1:
            # einsum sums a single contiguous column with unrolled partial
            # sums, bincount sums in order: they may differ by a few ulps
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        else:
            assert np.array_equal(got, want)


def argmin_selectors(f):
    """(P, n, n) argmin selectors of a (P, n, m) stack, a few rows at a time."""
    return np.concatenate(
        [(f[:, i:i + 16, None, :] + f[:, None, :, :]).argmin(axis=3) for i in range(0, f.shape[1], 16)], axis=1
    )


@pytest.mark.parametrize("ties", [True, False])
def test_column_order_jacobi_matches_row_order_reference(ties):
    # P > 1 stacks, m = 1 included, each setup table and three chained sweeps bitwise. The fixed
    # tables are built once for the block and serve it as its starts leave, one at a time, to P = 1
    rng = np.random.default_rng(61 if ties else 62)
    for m in [1, 1, 2, 3, 5, 8]:
        p, n = int(rng.integers(3, 5)), int(rng.integers(m, 20))
        d = random_distance_matrix(rng, n) * (1.0 if ties else 0.1 * np.pi)
        if ties:
            f = rng.integers(0, 3, size=(p, n, m)).astype(float)
        else:
            f = rng.normal(scale=3.0, size=(p, n, m))
        tables, fp = _jacobi_tables(d, p, m), f + rng.normal(size=f.shape)
        while len(f):
            selectors = _sym_product(f)[1]
            assert np.array_equal(selectors, argmin_selectors(f))
            got, want = _jacobi_setup(tables, selectors), ref_jacobi_setup(d, argmin_selectors(f), m)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
            fp_got = fp_want = fp
            for _ in range(3):
                fp_got, fp_want = _jacobi_apply(got, fp_got), ref_jacobi_apply(want, fp_want)
                assert fp_got.tobytes() == fp_want.tobytes()
            keep = np.arange(len(f)) != rng.integers(len(f))  # one start leaves the block
            f, fp = f[keep], fp[keep]


def test_jacobi_map_with_non_symmetric_d_matches_row_order_reference():
    rng = np.random.default_rng(63)
    for m in [1, 2, 4]:
        n = int(rng.integers(m, 15))
        d = rng.uniform(0, 9, size=(n, n))  # not symmetric
        f = rng.integers(0, 3, size=(n, m)).astype(float)
        fp = f + rng.normal(size=(n, m))
        want = ref_jacobi_apply(ref_jacobi_setup(d, argmin_selectors(f[None]), m), fp[None])[0]
        assert jacobi_map(d, f, fp).data.tobytes() == want.tobytes()


def test_wide_selectors_match_argmin():
    n = m = 260  # past 256 columns the selectors take two bytes
    rng = np.random.default_rng(260)
    f = rng.integers(0, 400, size=(1, n, m)).astype(float)
    product, selectors = _sym_product(f)
    assert selectors.dtype == np.uint16 and (selectors > 255).any()
    assert np.array_equal(selectors, argmin_selectors(f))
    assert np.array_equal(product[0], _mp(f[0], f[0].T))
    d = _mp(f[0], f[0].T) + rng.integers(0, 3, size=(n, n))
    d = np.minimum(d, d.T)
    setup, ref = _jacobi_setup(_jacobi_tables(d, 1, m), selectors), ref_jacobi_setup(d, selectors.astype(np.intp), m)
    assert _jacobi_apply(setup, f).tobytes() == ref_jacobi_apply(ref, f).tobytes()


def test_sym_factorize_memory_is_quadratic():
    n = 300
    rng = np.random.default_rng(300)
    d = kleene_star(TropicalMatrix(random_nonneg_graph_matrix(rng, n, density=0.05))).data
    cfg = SymFactorConfig(rank=8, max_iter=1, restarts=1, seed=0)
    tracemalloc.start()
    try:
        sym_factorize(d, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n * n * 8  # a few n x n arrays, never n x n x m
    assert peak < 7 * n * n * 8  # measured 6.72: the product, its term and the Jacobi tables


def test_sym_factorize_block_memory_is_bounded():
    n = 50  # 40 restarts run in two blocks, of 26 and 14 starts
    rng = np.random.default_rng(100)
    d = kleene_star(TropicalMatrix(random_nonneg_graph_matrix(rng, n, density=0.1))).data
    cfg = SymFactorConfig(rank=8, max_iter=1, restarts=40, seed=0)
    tracemalloc.start()
    try:
        sym_factorize(d, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * max(n * n, regression.BATCH_ELEMENTS) * 8  # a few block-sized arrays


def sym_batch_cases():
    """(name, D, config, extra inits): ties, real weights, rank 1, a warm
    start, a start reaching residual 0 after iterations, and an exact start."""
    rng = np.random.default_rng(23)
    ties = random_distance_matrix(rng, 12)
    f_star = np.array([[4, 2], [4, 4], [4, 0], [2, 3], [1, 1]], dtype=float)
    exact = _mp(f_star, f_star.T)
    return [
        ("integer ties", ties, SymFactorConfig(rank=3, max_iter=15, restarts=5, seed=1), ()),
        ("real weights", ties * 0.1 * np.pi, SymFactorConfig(rank=4, max_iter=15, restarts=5, seed=2), ()),
        ("rank 1", ties, SymFactorConfig(rank=1, max_iter=12, restarts=4, seed=3), ()),
        ("warm start", ties, SymFactorConfig(rank=3, max_iter=12, restarts=2, seed=4), (rng.uniform(0, 9, (12, 3)),)),
        # D = F (x) F^T: the fourth restart reaches 0 after 33 iterations, the others never do
        ("zero late", exact, SymFactorConfig(rank=2, shoot=1.0, max_iter=40, restarts=6, seed=4), ()),
        ("zero at once", EXAMPLE_D, SymFactorConfig(rank=6, max_iter=10, restarts=5, seed=5), ()),
    ]


@pytest.mark.filterwarnings("ignore:input is not idempotent")
@pytest.mark.parametrize("starts_per_block", [1, 3, None])
def test_sym_batch_matches_one_start_path(starts_per_block, monkeypatch):
    decays, outcomes = 0, {}
    for name, d, cfg, extras in sym_batch_cases():
        if starts_per_block is not None:
            monkeypatch.setattr(factorization, "BATCH_ELEMENTS", starts_per_block * d.size)
        residual, f, trace, runs, case_decays = ref_sym_factorize(d, cfg, extras)
        pair = sym_factorize(d, cfg, extra_inits=extras)
        assert pair.residual == residual, name
        assert pair.left.data.tobytes() == f.tobytes(), name
        assert pair.right.data.tobytes() == np.ascontiguousarray(f.T).tobytes(), name
        assert pair.iteration_trace == trace, name
        assert pair.restarts_used == runs, name
        decays += case_decays
        outcomes[name] = (trace, runs, cfg.restarts)
    assert decays > 0  # mu decayed somewhere, so per-start mu is exercised
    trace, runs, restarts = outcomes["zero late"]
    assert trace[0] > 0.0 and trace[-1] == 0.0 and runs == 4 < restarts
    assert outcomes["zero at once"][1] == 1


def test_jacobi_iteration_reaches_stationary_point_of_frozen_quadratic():
    rng = np.random.default_rng(31)
    for _ in range(8):
        d = random_distance_matrix(rng, 4)
        f = np.abs(rng.normal(size=(4, 2))) * 3
        fp = f.copy()
        for _ in range(4000):
            new = jacobi_map(d, f, fp).data
            if np.abs(new - fp).max() < 1e-12:
                fp = new
                break
            fp = new
        # central-difference gradient of q_F at the limit, h = 1e-5;
        # only coordinates that appear in some residual term are pinned
        sel = (f[:, None, :] + f[None, :, :]).argmin(axis=2)
        for i in range(4):
            for k in range(2):
                constrained = sel[i, i] == k or any(
                    sel[i, j] == k for j in range(4) if j != i
                )
                if not constrained:
                    continue
                probe = fp.copy()
                probe[i, k] += 1e-5
                up = frozen_quadratic(d, f, probe)
                probe[i, k] -= 2e-5
                down = frozen_quadratic(d, f, probe)
                assert abs((up - down) / 2e-5) < 1e-4


def test_sym_factorize_two_by_two_matches_grid_oracle():
    d = np.array([[0.0, 4.0], [4.0, 0.0]])
    cfg = SymFactorConfig(rank=1, restarts=4, max_iter=60, seed=0)
    pair = sym_factorize(d, cfg)
    grid = np.arange(0.0, 4.0 + 1e-9, 0.01)
    best = min(
        (2 * f1) ** 2 + (2 * f2) ** 2 + 2 * (f1 + f2 - 4.0) ** 2
        for f1 in grid
        for f2 in grid
    )
    assert pair.residual**2 <= best + 1e-6
    assert pair.residual == pytest.approx(4.0, abs=1e-6)


def test_sym_factorize_full_rank_returns_zero_immediately(example_d):
    cfg = SymFactorConfig(rank=6, restarts=1, max_iter=50, seed=3)
    pair = sym_factorize(example_d, cfg)
    assert pair.residual == 0.0
    assert pair.iteration_trace[0] == 0.0


def test_sym_factorize_best_trace_non_increasing(example_d):
    cfg = SymFactorConfig(rank=2, restarts=3, max_iter=40, seed=1)
    pair = sym_factorize(example_d, cfg)
    trace = np.array(pair.iteration_trace)
    assert (np.diff(trace) <= 1e-10).all()
    # reported residual equals an independent recomputation
    assert pair.residual == pytest.approx(
        residual_of_given_factor(example_d, pair.left.data)
    )


def test_sym_factorize_scale_equivariance(example_d):
    cfg = SymFactorConfig(rank=2, restarts=3, max_iter=25, seed=5)
    base = sym_factorize(example_d, cfg)
    scaled = sym_factorize(2.0 * example_d, cfg)
    assert scaled.residual == pytest.approx(2.0 * base.residual, rel=1e-12)
    assert np.allclose(scaled.left.data, 2.0 * base.left.data)


def test_sym_factorize_seeded_determinism(example_d):
    cfg = SymFactorConfig(rank=2, restarts=4, max_iter=20, seed=9)
    a = sym_factorize(example_d, cfg)
    b = sym_factorize(example_d, cfg)
    assert np.array_equal(a.left.data, b.left.data)
    assert a.residual == b.residual and a.restarts_used == b.restarts_used


def test_sym_factorize_extra_inits_can_only_help(example_d):
    cfg = SymFactorConfig(rank=2, restarts=2, max_iter=15, seed=2)
    plain = sym_factorize(example_d, cfg)
    warm = sym_factorize(example_d, cfg, extra_inits=(example_d[:, [2, 3]],))
    assert warm.residual <= plain.residual + 1e-12


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_sym_factorize_exact_factor_recovery():
    # synthetic product, not a distance matrix, so the idempotency warning fires
    rng = np.random.default_rng(32)
    f_true = np.abs(rng.normal(size=(5, 2))) * 4
    d = np.minimum.reduce([np.add.outer(f_true[:, k], f_true[:, k]) for k in range(2)])
    cfg = SymFactorConfig(rank=2, restarts=1, max_iter=10, seed=0)
    pair = sym_factorize(d, cfg, extra_inits=(f_true,))
    assert pair.residual == pytest.approx(0.0, abs=1e-12)


def test_sym_factorize_warns_on_non_idempotent_input():
    d = np.array([[1.0, 1.0], [1.0, 1.0]])
    cfg = SymFactorConfig(rank=1, restarts=1, max_iter=5, seed=0)
    with pytest.warns(UserWarning):
        sym_factorize(d, cfg)


def test_sym_factorize_input_validation(example_d):
    cfg = SymFactorConfig(rank=2)
    with pytest.raises(ShapeError):
        sym_factorize(np.array([[0.0, 1.0], [2.0, 0.0]]), cfg)
    with pytest.raises(DomainError, match="cap"):
        sym_factorize(np.array([[0.0, INF], [INF, 0.0]]), cfg)
    with pytest.raises(ValueError):
        sym_factorize(example_d, SymFactorConfig(rank=7))
    with pytest.raises(ValueError):
        SymFactorConfig(rank=0)
    with pytest.raises(ValueError):
        SymFactorConfig(rank=1, shoot=0.0)
    with pytest.raises(ValueError):
        SymFactorConfig(rank=1, shoot=1.5)
    with pytest.raises(ValueError, match="jacobi_steps must be >= 1"):
        SymFactorConfig(rank=1, jacobi_steps=0)


@pytest.mark.parametrize("counts", [{"restarts": 0}, {"max_iter": 0}, {"max_iter": -1}])
def test_configs_reject_counts_below_one(counts):
    for config in (partial(SymFactorConfig, rank=1), NonsymFactorConfig):
        with pytest.raises(ValueError, match="max_iter and restarts must be >= 1"):
            config(**counts)


def test_residual_of_given_factor_reference_value(example_d, example_f):
    r = residual_of_given_factor(example_d, example_f)
    assert r == pytest.approx(4.5680, abs=1e-3)


def test_residual_of_given_factor_identity_case(example_d):
    assert residual_of_given_factor(example_d, example_d) == 0.0


def test_residual_of_given_factor_shape_errors(example_d):
    with pytest.raises(ShapeError):
        residual_of_given_factor(example_d, np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        residual_of_given_factor(np.zeros((2, 3)), np.zeros((2, 1)))


def test_nonsym_exact_recovery_from_true_init():
    rng = np.random.default_rng(33)
    a0 = rng.integers(0, 8, size=(5, 2)).astype(float)
    b0 = rng.integers(0, 8, size=(2, 6)).astype(float)
    m = np.min(a0[:, :, None] + b0[None, :, :], axis=1)
    cfg = NonsymFactorConfig(max_iter=20)
    pair = nonsym_factorize(m, 2, cfg, extra_inits=((a0, b0),))
    assert pair.residual <= 1e-6


def test_kmeans_start_matches_per_column_chebyshev():
    # the batched sup-norm start of B equals one chebyshev_regression per
    # column of M, bit for bit; integer data makes exact ties common
    rng = np.random.default_rng(36)
    for trial in range(24):
        n, cols = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        m = int(rng.integers(1, min(n, cols) + 1))
        if trial % 2:
            data = rng.integers(0, 9, size=(n, cols)).astype(float)
        else:
            data = rng.normal(size=(n, cols)) * 3
        a, b = _kmeans_start(data, m, np.random.default_rng([trial]))
        assert b.shape == (m, cols)
        for j in range(cols):
            expected = chebyshev_regression(TropicalMatrix(a), data[:, j]).solution
            assert b[:, j].tobytes() == expected.tobytes()


def ref_kmeans_start(m_data, k, rng):
    """The kmeans start with its three (columns x k x n) broadcasts."""
    points = m_data.T
    count = points.shape[0]
    first = int(rng.integers(count))
    center_idx = [first]
    d2 = np.sum((points - points[first]) ** 2, axis=1)
    while len(center_idx) < k:
        total = float(d2.sum())
        nxt = int(rng.choice(count, p=d2 / total)) if total > 0.0 else int(rng.integers(count))
        center_idx.append(nxt)
        d2 = np.minimum(d2, np.sum((points - points[nxt]) ** 2, axis=1))
    centers = points[center_idx].astype(float).copy()
    assign = None
    for _ in range(factorization.KMEANS_MAX_ITER):
        dist = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_assign = dist.argmin(axis=1)
        to_center = dist[np.arange(count), new_assign].copy()
        for c in range(k):
            if not (new_assign == c).any():
                farthest = int(to_center.argmax())
                centers[c] = points[farthest]
                new_assign[farthest] = c
                to_center[farthest] = -1.0
        if assign is not None and (new_assign == assign).all():
            break
        assign = new_assign
        for c in range(k):
            members = points[assign == c]
            if len(members):
                centers[c] = members.mean(axis=0)
    a = centers.T
    xhat = (points[:, :, None] - a).max(axis=1)
    overshoot = (a + xhat[:, None, :]).min(axis=-1) - points
    return a, (xhat + -overshoot.max(axis=-1, keepdims=True) / 2.0).T


def test_kmeans_start_matches_broadcast_reference():
    rng = np.random.default_rng(38)
    for trial in range(16):
        n, cols = int(rng.integers(2, 200)), int(rng.integers(2, 200))
        m = int(rng.integers(1, min(n, cols, 12) + 1))
        if trial % 2:
            data = rng.integers(0, 9, size=(n, cols)).astype(float)
        else:
            data = rng.normal(size=(n, cols)) * 3
        a, b = _kmeans_start(data, m, np.random.default_rng([trial]))
        ref_a, ref_b = ref_kmeans_start(data, m, np.random.default_rng([trial]))
        assert a.tobytes() == ref_a.tobytes()
        assert b.tobytes() == ref_b.tobytes()


@pytest.mark.parametrize("data, m, restarts, seed", [
    (np.tile([[0.0], [1.0], [2.0]], (1, 4)), 2, 2, 0),  # one distinct column
    (np.array([[0.0, 0.0, 5.0, 5.0], [1.0, 1.0, 6.0, 6.0], [2.0, 2.0, 7.0, 7.0]]), 3, 3, 1),  # two
])
def test_kmeans_start_with_fewer_distinct_columns_than_centers(data, m, restarts, seed):
    # every seeding distance is 0 once the distinct columns are taken, so seeding draws uniformly,
    # and some center is left with no member, so it is reseeded at the farthest column
    cfg = NonsymFactorConfig(max_iter=3, restarts=restarts, seed=seed)
    for r in range(restarts):
        centers = _kmeans_columns(data, m, np.random.default_rng([seed, r]))
        assert all((data == center[:, None]).all(axis=0).any() for center in centers.T)
    pair, again = nonsym_factorize(data, m, cfg), nonsym_factorize(data, m, cfg)
    assert pair.residual == 0.0
    for a, b in ((pair.left, again.left), (pair.right, again.right)):
        assert a.data.tobytes() == b.data.tobytes()
    assert pair.iteration_trace == again.iteration_trace


def test_nonsym_factorize_memory_is_quadratic(closure300, monkeypatch):
    d = closure300.data
    n, m = d.shape[0], 20
    # every Newton step allocates the same scratch, so one step per problem shows the peak
    monkeypatch.setattr(factorization, "INNER_MAX_ITER", 1)
    tracemalloc.start()
    try:
        nonsym_factorize(d, m, NonsymFactorConfig(max_iter=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * n * n * 8  # kmeans folds over centers; a half-sweep alone is ~8


def test_nonsym_one_batch_over_two_designs_keeps_one_half_sweep_budget(closure300, monkeypatch):
    d = closure300.data
    n, m = d.shape[0], 20
    monkeypatch.setattr(factorization, "INNER_MAX_ITER", 1)
    tracemalloc.start()
    try:
        nonsym_factorize(d, m, NonsymFactorConfig(max_iter=1))  # square M: both half-sweeps in one batch
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * n * n * 8  # 6.2 with one batch per half-sweep, 8.5 with M^T and M concatenated


@pytest.mark.parametrize("block", [None, 64])
def test_nonsym_factorize_matches_one_batch_per_half_sweep(block, monkeypatch):
    # one batch per outer iteration over the designs A and B^T (the default on a
    # square M) gives the pairs of one batch per half-sweep, bit for bit; so do
    # Gauss-Seidel and a non-square M, which keep one batch per half-sweep
    if block is not None:
        monkeypatch.setattr(regression, "BATCH_ELEMENTS", block)
    rng = np.random.default_rng(57)
    cases = [
        random_distance_matrix(rng, 9),
        rng.integers(0, 9, size=(8, 8)).astype(float),
        rng.normal(size=(7, 7)) * 3,
        rng.normal(size=(6, 9)) * 3,
        rng.integers(0, 9, size=(9, 5)).astype(float),
    ]
    for trial, m_mat in enumerate(cases):
        rank, (n, cols) = 1 + trial % 3, m_mat.shape
        extra = ((rng.normal(size=(n, rank)), rng.normal(size=(rank, cols))),)
        for gauss_seidel in (False, True):
            cfg = NonsymFactorConfig(max_iter=6, restarts=2, seed=trial, gauss_seidel=gauss_seidel)
            got = nonsym_factorize(m_mat, rank, cfg, extra_inits=extra)
            with monkeypatch.context() as patch:
                patch.setattr(factorization, "_alternate", ref_alternate)
                want = nonsym_factorize(m_mat, rank, cfg, extra_inits=extra)
            assert got.left.data.tobytes() == want.left.data.tobytes()
            assert got.right.data.tobytes() == want.right.data.tobytes()
            assert (got.residual, got.iteration_trace) == (want.residual, want.iteration_trace)
            assert got.restarts_used == want.restarts_used


def test_nonsym_half_sweep_memory_is_quadratic(closure300):
    d = closure300.data
    n, m = d.shape[0], 20
    a, b = _kmeans_start(d, m, np.random.default_rng([0, 0]))
    tracemalloc.start()
    try:
        _newton_batch(a, d.T, b.T, RegressionConfig(max_iter=INNER_MAX_ITER))  # the column half-sweep
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n * n * 8  # blocks of p*n*m <= n*n table entries; unblocked, ~150x


def test_nonsym_extra_inits_validation():
    m = np.arange(12.0).reshape(3, 4)
    for init in ((np.zeros((3, 2)),), (np.zeros((3, 2)), np.zeros((2, 4)), np.zeros((2, 4)))):
        with pytest.raises(ShapeError, match="pair"):
            nonsym_factorize(m, 2, extra_inits=(init,))
    with pytest.raises(ShapeError):
        nonsym_factorize(m, 2, extra_inits=((np.zeros((3, 1)), np.zeros((1, 4))),))
    with pytest.raises(DomainError):
        nonsym_factorize(m, 1, extra_inits=((np.full((3, 1), INF), np.zeros((1, 4))),))


def test_nonsym_never_worse_than_initialization(example_d):
    rng = np.random.default_rng(34)
    for seed in range(5):
        n, d = int(rng.integers(3, 6)), int(rng.integers(3, 6))
        m = rng.integers(0, 9, size=(n, d)).astype(float)
        cfg = NonsymFactorConfig(max_iter=12, seed=seed)
        pair = nonsym_factorize(m, 2, cfg)
        assert pair.residual <= pair.iteration_trace[0] + 1e-12


def test_nonsym_gauss_seidel_half_sweeps_descend(example_d):
    cfg = NonsymFactorConfig(max_iter=15, gauss_seidel=True, seed=0)
    pair = nonsym_factorize(example_d, 2, cfg)
    trace = np.array(pair.iteration_trace)
    assert (np.diff(trace) <= 1e-10).all()


def test_nonsym_beats_actual_waypoint_bound(example_d):
    cfg = NonsymFactorConfig(max_iter=30, restarts=20, seed=0)
    pair = nonsym_factorize(example_d, 2, cfg)
    assert pair.residual <= 9.5917


def test_nonsym_full_rank_near_zero():
    rng = np.random.default_rng(35)
    m = rng.integers(0, 9, size=(4, 3)).astype(float)
    cfg = NonsymFactorConfig(max_iter=40, restarts=8, seed=0)
    pair = nonsym_factorize(m, 3, cfg)
    # m = d admits A = M, B = I with residual 0; alternation from kmeans
    # must at least not exceed its own initialization
    assert pair.residual <= pair.iteration_trace[0] + 1e-12


def test_nonsym_input_validation():
    with pytest.raises(DomainError, match="cap"):
        nonsym_factorize(np.array([[0.0, INF]]), 1)
    with pytest.raises(ValueError):
        nonsym_factorize(np.array([[1.0, 2.0]]), 2)
    with pytest.raises(ValueError):
        nonsym_factorize(np.array([[1.0, 2.0]]), 0)


def test_factor_pair_shapes(example_d):
    cfg = SymFactorConfig(rank=2, restarts=1, max_iter=5, seed=0)
    pair = sym_factorize(example_d, cfg)
    assert isinstance(pair, FactorPair)
    assert pair.left.shape == (6, 2)
    assert pair.right.shape == (2, 6)
    assert np.array_equal(pair.right.data, pair.left.data.T)
