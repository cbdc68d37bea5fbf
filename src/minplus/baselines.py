"""Classical low-rank baselines: truncated SVD and non-negative matrix
factorization.

The SVD is LAPACK's, through numpy.linalg.svd; the NNMF runs seeded
multiplicative updates for the Frobenius objective on dense matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _as_matrix, _data_of, _frobenius
from .errors import INFEASIBLE_HINT, DomainError

NNMF_EPS = 1e-12


@dataclass
class SvdResult:
    """Economy factorization M = U diag(s) V^T with orthonormal columns.

    U is n x r and V is d x r with r = min(n, d); singular values are
    sorted non-increasing. This holds for rank-deficient and zero M too.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray


@dataclass
class NnmfResult:
    """Non-negative factors W (n x m), H (m x d) and the residual history."""

    W: np.ndarray
    H: np.ndarray
    residual_trace: tuple[float, ...]


def svd(M) -> SvdResult:
    """Full economy SVD through LAPACK (numpy.linalg.svd)."""
    m_mat = _data_of(M)
    if not np.isfinite(m_mat).all():
        raise DomainError(f"svd expects finite entries; {INFEASIBLE_HINT}")
    u, s, vt = np.linalg.svd(m_mat, full_matrices=False)
    return SvdResult(singular_values=s, left_vectors=u, right_vectors=vt.T)


def _dropped(s: np.ndarray) -> np.ndarray:
    """Entry m is sqrt(sum_{k >= m} s_k^2) for m = 0..len(s), the residual of the best rank-m
    approximation given its singular values s, each sum taken from the smallest s_k up."""
    return np.sqrt(np.append(np.cumsum(s[::-1] ** 2)[::-1], 0.0))


def _relative(M, residuals):
    """residuals (a number or a sequence) divided by ||M||_F from core._frobenius, or 0 for a zero M."""
    norm = float(_frobenius(np.array(M, dtype=float)))
    return np.divide(residuals, norm) if norm > 0 else np.zeros_like(residuals, dtype=float)


def svd_truncate(M, m: int) -> tuple[np.ndarray, float]:
    """Best Frobenius rank-m approximation and its relative residual: the
    dropped singular values' root sum of squares over ||M||_F, 0 for a zero M."""
    matrix = _as_matrix(M)
    r = min(matrix.shape)
    if not (1 <= m <= r):
        raise ValueError(f"rank must lie in 1..{r}")
    result = svd(matrix)
    u, s, v = result.left_vectors, result.singular_values, result.right_vectors
    approx = (u[:, :m] * s[:m]) @ v[:, :m].T
    return approx, float(_relative(matrix.data, _dropped(s)[m]))


def nnmf(M, m: int, iters: int = 2000, seed: int = 0) -> NnmfResult:
    """Multiplicative-update NNMF for the Frobenius objective.

    Factors start from seeded uniform positive noise; every update keeps
    entries at or above NNMF_EPS so zeros cannot absorb. The residual
    trace (initial value included) is non-increasing.
    """
    m_mat = _data_of(M)
    if not np.isfinite(m_mat).all():
        raise DomainError(f"nnmf expects finite entries; {INFEASIBLE_HINT}")
    if (m_mat < 0).any():
        raise DomainError("nnmf expects non-negative entries")
    n, d = m_mat.shape
    if not (1 <= m <= min(n, d)):
        raise ValueError(f"rank must lie in 1..{min(n, d)}")
    rng = np.random.default_rng(seed)
    w = np.maximum(rng.uniform(0.0, 1.0, size=(n, m)), NNMF_EPS)
    h = np.maximum(rng.uniform(0.0, 1.0, size=(m, d)), NNMF_EPS)
    gap, trace = np.empty((n, d)), []  # gap holds w @ h, then m_mat - w @ h
    for step in range(iters + 1):
        if step:
            h *= (w.T @ m_mat) / np.maximum(w.T @ w @ h, NNMF_EPS)
            h = np.maximum(h, NNMF_EPS)
            w *= (m_mat @ h.T) / np.maximum(w @ h @ h.T, NNMF_EPS)
            w = np.maximum(w, NNMF_EPS)
        np.matmul(w, h, out=gap)
        trace.append(float(np.linalg.norm(np.subtract(m_mat, gap, out=gap))))
    return NnmfResult(W=w, H=h, residual_trace=tuple(trace))
