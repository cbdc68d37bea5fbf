"""Classical baselines: LAPACK SVD and multiplicative-update NNMF.

The library's svd wraps numpy.linalg.svd, so the SVD tests here check
the wrapper's contract (ordering, orthonormality, rank deficiency,
truncation) rather than an independent algorithm.
"""

import numpy as np
import pytest

from minplus import DomainError, ShapeError, nnmf, svd, svd_truncate
from minplus.baselines import _relative
from minplus.core import _frobenius


BASELINES = {
    "svd": svd,
    "svd_truncate": lambda m: svd_truncate(m, 1),
    "nnmf": lambda m: nnmf(m, 1, iters=5),
}


def random_shapes(rng, count):
    for _ in range(count):
        yield int(rng.integers(1, 9)), int(rng.integers(1, 9))


def test_svd_matches_lapack_singular_values():
    rng = np.random.default_rng(40)
    for n, d in random_shapes(rng, 25):
        m = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-2, 3)
        got = svd(m).singular_values
        ref = np.linalg.svd(m, compute_uv=False)
        scale = max(ref[0], 1.0)
        assert np.abs(got - ref).max() <= 1e-10 * scale


def test_svd_reconstructs_and_is_orthonormal():
    rng = np.random.default_rng(41)
    for n, d in random_shapes(rng, 25):
        m = rng.normal(size=(n, d))
        res = svd(m)
        u, s, v = res.left_vectors, res.singular_values, res.right_vectors
        r = min(n, d)
        assert u.shape == (n, r) and v.shape == (d, r)
        assert np.abs(u.T @ u - np.eye(r)).max() < 1e-8
        assert np.abs(v.T @ v - np.eye(r)).max() < 1e-8
        assert (np.diff(s) <= 1e-12).all() and (s >= 0).all()
        recon = (u * s) @ v.T
        norm = max(np.linalg.norm(m), 1.0)
        assert np.abs(recon - m).max() <= 1e-8 * norm


def test_svd_symmetric_matches_eigenvalue_magnitudes(example_d):
    eig = np.linalg.eigh(example_d).eigenvalues
    ref = np.sort(np.abs(eig))[::-1]
    got = svd(example_d).singular_values
    assert np.abs(got - ref).max() < 1e-8 * ref[0]


def test_svd_rank_deficient_and_zero():
    rng = np.random.default_rng(42)
    u = rng.normal(size=5)
    v = rng.normal(size=3)
    res = svd(np.outer(u, v))
    assert res.singular_values[0] == pytest.approx(
        np.linalg.norm(u) * np.linalg.norm(v)
    )
    assert np.abs(res.singular_values[1:]).max() < 1e-10 * res.singular_values[0]
    assert np.abs(res.left_vectors.T @ res.left_vectors - np.eye(3)).max() < 1e-8

    res = svd(np.zeros((3, 4)))
    assert (res.singular_values == 0).all()
    assert np.abs(res.left_vectors.T @ res.left_vectors - np.eye(3)).max() < 1e-8


def test_svd_truncate_trivial_ranks():
    rng = np.random.default_rng(43)
    m = rng.normal(size=(5, 4))
    approx, rel = svd_truncate(m, 4)
    assert rel == 0.0
    assert np.abs(approx - m).max() < 1e-8

    rank1 = np.outer(rng.normal(size=4), rng.normal(size=6))
    approx, rel = svd_truncate(rank1, 1)
    assert rel < 1e-10
    assert np.abs(approx - rank1).max() < 1e-8 * np.abs(rank1).max()


def test_svd_truncate_matches_tail_sums(example_d):
    sv = np.linalg.svd(example_d, compute_uv=False)
    norm = np.linalg.norm(example_d)
    for m in range(1, 7):
        _, rel = svd_truncate(example_d, m)
        expect = np.sqrt(np.sum(sv[m:] ** 2)) / norm
        assert rel == pytest.approx(expect, abs=1e-10)


def test_relative_residuals_divide_by_core_frobenius():
    # the reported bits follow core._frobenius, the min-plus residuals' own
    # rule, which no BLAS thread count changes; with OpenBLAS on x86-64,
    # np.linalg.norm differs from it in the last place on this matrix
    m = np.random.default_rng(0).random((40, 40)) * np.pi
    norm = float(_frobenius(m.copy()))
    assert norm != np.linalg.norm(m)
    assert _relative(m, [1.0, 3.0]).tolist() == [1.0 / norm, 3.0 / norm]


def test_svd_truncate_eckart_young_dominates_random_projections():
    rng = np.random.default_rng(44)
    m = rng.normal(size=(8, 8))
    norm = np.linalg.norm(m)
    for rank in (1, 3):
        _, rel = svd_truncate(m, rank)
        for _ in range(20):
            basis, _ = np.linalg.qr(rng.normal(size=(8, rank)))
            candidate = basis @ (basis.T @ m)
            cand_rel = np.linalg.norm(m - candidate) / norm
            assert rel <= cand_rel + 1e-12


def test_svd_truncate_rank_validation():
    m = np.zeros((3, 3))
    with pytest.raises(ValueError):
        svd_truncate(m, 0)
    with pytest.raises(ValueError):
        svd_truncate(m, 4)


def test_nnmf_trace_monotone_and_nonnegative():
    rng = np.random.default_rng(45)
    for _ in range(10):
        n, d = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        m = np.abs(rng.normal(size=(n, d)))
        rank = int(rng.integers(1, min(n, d) + 1))
        res = nnmf(m, rank, iters=150, seed=int(rng.integers(100)))
        assert (res.W >= 0).all() and (res.H >= 0).all()
        trace = np.array(res.residual_trace)
        assert (np.diff(trace) <= 1e-10).all()


def test_nnmf_recovers_exact_low_rank_instance():
    rng = np.random.default_rng(46)
    w = np.abs(rng.normal(size=(6, 2))) + 0.1
    h = np.abs(rng.normal(size=(2, 5))) + 0.1
    m = w @ h
    norm = np.linalg.norm(m)
    best = min(
        nnmf(m, 2, iters=2000, seed=seed).residual_trace[-1] for seed in range(10)
    )
    assert best <= 1e-3 * norm


def test_nnmf_zero_row_stays_zero():
    rng = np.random.default_rng(47)
    m = np.abs(rng.normal(size=(4, 5)))
    m[2, :] = 0.0
    res = nnmf(m, 2, iters=500, seed=0)
    recon_row = (res.W @ res.H)[2]
    assert np.abs(recon_row).max() < 1e-6


def test_nnmf_input_validation():
    with pytest.raises(DomainError):
        nnmf(np.array([[1.0, -0.5]]), 1)
    with pytest.raises(DomainError):
        nnmf(np.array([[1.0, np.inf]]), 1)
    with pytest.raises(ValueError):
        nnmf(np.abs(np.ones((2, 2))), 3)
    with pytest.raises(ValueError):
        nnmf(np.abs(np.ones((2, 2))), 0)
    with pytest.raises(ValueError, match="iters must be >= 0"):
        nnmf(np.ones((2, 2)), 1, iters=-1)
    assert len(nnmf(np.ones((2, 2)), 1, iters=0).residual_trace) == 1  # the initial residual alone


@pytest.mark.parametrize("name", sorted(BASELINES))
@pytest.mark.parametrize("entries", [3.0, [1.0, 2.0], np.ones((1, 2, 2))])
def test_baselines_reject_non_matrices_like_every_routine(name, entries):
    with pytest.raises(ShapeError, match="2-d table"):
        BASELINES[name](entries)


@pytest.mark.parametrize("name", sorted(BASELINES))
@pytest.mark.parametrize("value, word", [(np.nan, "NaN"), (-np.inf, "-inf")])
def test_baselines_name_unrepresentable_entries_without_cap_hint(name, value, word):
    with pytest.raises(DomainError, match=word) as info:
        BASELINES[name]([[1.0, value], [0.0, 1.0]])
    assert "--cap" not in str(info.value)


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_baselines_infinite_entry_names_cap(name):
    with pytest.raises(DomainError, match="--cap"):
        BASELINES[name]([[1.0, np.inf], [0.0, 1.0]])
