"""Min-plus linear regression.

Given A (n x d, entries in R or +inf) and finite y (length n), approximate
y by A (x) x. The sup-norm problem has a closed form built on the
principal solution of A (x) x >= y. The 2-norm residual is piecewise
quadratic in x: each row i is governed by whichever column attains
min_j(a_ij + x_j), so the domain splits into polyhedral pieces separated
by the tie surface where some row's argmin is not unique. The 2-norm
solver repeatedly forms the piecewise Newton target and takes an exact
line search toward it, which makes the residual non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import INF, TropicalMatrix, _data_of
from .errors import DomainError, UnboundedColumnError

TIE_TOL = 1e-9


@dataclass
class RegressionConfig:
    max_iter: int = 500
    tol: float = 1e-10  # relative residual decrease per step


@dataclass
class RegressionOutcome:
    """Solution plus diagnostics; residual_norm is recomputed from solution."""

    solution: np.ndarray
    residual_norm: float
    norm_kind: str  # "inf" or "2"
    iterations: int
    converged: bool
    residual_trace: tuple[float, ...] = field(default=())


@dataclass
class ActivePattern:
    """Argmin bookkeeping for the piecewise-quadratic residual at a point x.

    selectors[i] is the smallest column attaining min_j(a_ij + x_j)
    exactly; tied_rows lists rows whose minimum is attained (within
    tie_tol) by more than one column, i.e. x lies on the tie surface; and
    tie_sets holds those rows' near-minimal column sets.
    """

    x: np.ndarray
    selectors: np.ndarray
    tied_rows: tuple[int, ...]
    tie_sets: tuple[tuple[int, ...], ...]


def min_plus_apply(A: TropicalMatrix, x: np.ndarray) -> np.ndarray:
    """A (x) x for a vector x: component i is min_j(a_ij + x_j)."""
    a = _data_of(A)
    x = np.asarray(x, dtype=float)
    if x.shape != (a.shape[1],):
        raise DomainError(f"vector length {x.shape} does not match {a.shape[1]} columns")
    if a.shape[1] == 0:
        return np.full(a.shape[0], INF)
    return np.min(a + x[None, :], axis=1)


def _check_rhs(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (a.shape[0],):
        raise DomainError(f"rhs length {y.shape} does not match {a.shape[0]} rows")
    if not np.isfinite(y).all():
        raise DomainError("rhs must be finite")
    return y


def principal_solution(A: TropicalMatrix, y: np.ndarray) -> np.ndarray:
    """Least x with A (x) x >= y componentwise: x_j = max_i(y_i - a_ij)."""
    a = _data_of(A)
    y = _check_rhs(a, y)
    if a.shape[0] == 0:
        raise DomainError("regression needs at least one row")
    candidates = y[:, None] - a  # finite - inf = -inf marks non-binding rows
    xhat = candidates.max(axis=0)
    bad = np.isneginf(xhat)
    if bad.any():
        j = int(np.argmax(bad))
        raise UnboundedColumnError(f"column {j} has no finite entry; coordinate {j} is unbounded")
    return xhat


def chebyshev_regression(A: TropicalMatrix, y: np.ndarray) -> RegressionOutcome:
    """Global sup-norm optimum: shift the principal solution down by half
    the worst overshoot.

    The result is the componentwise least point of the optimal set: any x
    with sup-residual r satisfies A (x) x >= y - r, whose least solution
    is the principal solution shifted by -r.
    """
    a = _data_of(A)
    xhat = principal_solution(A, y)
    y = _check_rhs(a, y)
    if not np.isfinite(a).any(axis=1).all():
        i = int(np.argmin(np.isfinite(a).any(axis=1)))
        raise DomainError(f"row {i} has no finite entry; the sup-norm residual is always inf")
    overshoot = min_plus_apply(A, xhat) - y  # >= 0, with min exactly attained
    alpha = -float(overshoot.max()) / 2.0
    solution = xhat + alpha
    residual = float(np.max(np.abs(min_plus_apply(A, solution) - y)))
    return RegressionOutcome(
        solution=solution,
        residual_norm=residual,
        norm_kind="inf",
        iterations=0,
        converged=True,
        residual_trace=(residual,),
    )


def residual_sq(A: TropicalMatrix, y: np.ndarray, x: np.ndarray) -> float:
    """Squared 2-norm residual sum_i (min_j(a_ij + x_j) - y_i)^2."""
    a = _data_of(A)
    y = _check_rhs(a, y)
    return float(np.sum((min_plus_apply(A, x) - y) ** 2))


def active_pattern(A: TropicalMatrix, x: np.ndarray, tie_tol: float = TIE_TOL) -> ActivePattern:
    """Smallest-index argmin per row plus the rows tied within tie_tol."""
    a = _data_of(A)
    x = np.asarray(x, dtype=float)
    if x.shape != (a.shape[1],):
        raise DomainError(f"vector length {x.shape} does not match {a.shape[1]} columns")
    values = a + x[None, :]
    row_min = values.min(axis=1)
    selectors = values.argmin(axis=1)  # first minimum = smallest index
    near = values <= row_min[:, None] + tie_tol
    counts = near.sum(axis=1)
    tied_rows = tuple(int(i) for i in np.where(counts > 1)[0])
    tie_sets = tuple(tuple(int(j) for j in np.where(near[i])[0]) for i in tied_rows)
    return ActivePattern(x=x.copy(), selectors=selectors, tied_rows=tied_rows, tie_sets=tie_sets)


def newton_target(A: TropicalMatrix, y: np.ndarray, pattern: ActivePattern) -> np.ndarray:
    """Coordinatewise minimizer of the quadratic piece selected by pattern.

    Coordinate k moves to the mean of (y_i - a_ik) over the rows selecting
    k; a coordinate selected by no row is frozen at its current value.
    """
    a = _data_of(A)
    y = _check_rhs(a, y)
    n, d = a.shape
    sel = pattern.selectors
    counts = np.bincount(sel, minlength=d)
    sums = np.bincount(sel, weights=y - a[np.arange(n), sel], minlength=d)
    target = pattern.x.copy()
    hit = counts > 0
    target[hit] = sums[hit] / counts[hit]
    return target


def restricted_newton_target(A: TropicalMatrix, y: np.ndarray, pattern: ActivePattern) -> np.ndarray:
    """Newton target restricted to directions tangent to the tie surface.

    Columns tied within a row must move by a common increment, otherwise
    the step immediately leaves the quadratic piece. Tied columns are
    merged into rigid groups (union-find) and each group takes the mean
    increment its selecting rows ask for; groups selected by no row stay
    frozen. Without ties this reduces to newton_target.
    """
    if not pattern.tied_rows:
        return newton_target(A, y, pattern)
    a = _data_of(A)
    y = _check_rhs(a, y)
    n, d = a.shape
    parent = list(range(d))

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for tie_set in pattern.tie_sets:
        root = find(tie_set[0])
        for k in tie_set[1:]:
            parent[find(k)] = root

    sel = pattern.selectors
    x = pattern.x
    increment_sum: dict[int, float] = {}
    increment_cnt: dict[int, int] = {}
    for i in range(n):
        g = find(int(sel[i]))
        increment_sum[g] = increment_sum.get(g, 0.0) + float(y[i] - a[i, sel[i]] - x[sel[i]])
        increment_cnt[g] = increment_cnt.get(g, 0) + 1
    delta = np.zeros(d)
    for k in range(d):
        g = find(k)
        if g in increment_cnt:
            delta[k] = increment_sum[g] / increment_cnt[g]
    return x + delta


def _row_envelope(slopes: np.ndarray, intercepts: np.ndarray) -> list[tuple[float, int]]:
    """Lower envelope of lines c_j + s_j*lam over lam in [0, 1].

    Returns (start_lam, line_index) segments clipped to [0, 1]; the first
    start is 0.0. Lines sorted by decreasing slope enter the envelope from
    the left; among equal slopes only the lowest intercept survives.
    """
    order = np.lexsort((intercepts, -slopes))
    stack: list[tuple[float, int]] = []  # (segment start, line index)
    for j in order:
        s, c = float(slopes[j]), float(intercepts[j])
        if stack and s == slopes[stack[-1][1]]:
            continue  # same slope, intercept not lower
        while stack:
            j_prev = stack[-1][1]
            s_prev, c_prev = float(slopes[j_prev]), float(intercepts[j_prev])
            lam = (c - c_prev) / (s_prev - s)  # s_prev > s strictly
            if lam <= stack[-1][0]:
                stack.pop()
            else:
                stack.append((lam, int(j)))
                break
        else:
            stack.append((-INF, int(j)))
    segments: list[tuple[float, int]] = []
    for idx, (lam, j) in enumerate(stack):
        end = stack[idx + 1][0] if idx + 1 < len(stack) else INF
        if end <= 0.0 or lam >= 1.0:
            continue
        segments.append((max(lam, 0.0), j))
    return segments


def _segment_events(
    a: np.ndarray, x: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, list[tuple[float, int, int]]]:
    """Initial active columns and sorted selector-change breakpoints along
    L(lam) = x + lam*(target - x).

    Along the segment, row i's value is min over finite columns of the
    lines (a_ij + x_j) + lam*(target_j - x_j); each row contributes at
    most d-1 breakpoints, nd in total.
    """
    n = a.shape[0]
    active = np.empty(n, dtype=int)
    events: list[tuple[float, int, int]] = []
    slopes_all = target - x
    for i in range(n):
        finite = np.where(np.isfinite(a[i]))[0]
        segments = _row_envelope(slopes_all[finite], a[i, finite] + x[finite])
        active[i] = finite[segments[0][1]]
        for lam, j in segments[1:]:
            events.append((lam, i, int(finite[j])))
    events.sort()
    return active, events


def _exact_line_search(
    a: np.ndarray, y: np.ndarray, x: np.ndarray, target: np.ndarray
) -> float:
    """Exact minimizer lam in [0, 1] of the residual along x -> target.

    Sweeps the sorted breakpoints, maintaining the aggregate quadratic
    sum_i (c_i + s_i*lam)^2 with O(1) updates per selector change, and
    minimizes each quadratic piece. Larger lam wins exact ties so a flat
    optimal stretch reports lam = 1.
    """
    n = a.shape[0]
    active, events = _segment_events(a, x, target)
    coeff_c = a[np.arange(n), active] + x[active] - y
    coeff_s = (target - x)[active]
    q2 = float(coeff_s @ coeff_s)
    q1 = float(coeff_s @ coeff_c)
    q0 = float(coeff_c @ coeff_c)
    best_val = q0
    best_lam = 0.0

    def consider(lo: float, hi: float) -> None:
        nonlocal best_val, best_lam
        candidates = [lo, hi]
        if q2 > 0.0:
            vertex = -q1 / q2
            if lo < vertex < hi:
                candidates.append(vertex)
        for lam in candidates:
            val = (q2 * lam + 2.0 * q1) * lam + q0
            if val < best_val or (val <= best_val and lam > best_lam):
                best_val, best_lam = val, lam

    prev = 0.0
    for lam, i, j in events:
        if lam > prev:
            consider(prev, min(lam, 1.0))
            prev = lam
        if lam >= 1.0:
            break
        c_old = a[i, active[i]] + x[active[i]] - y[i]
        s_old = target[active[i]] - x[active[i]]
        q2 -= s_old * s_old
        q1 -= s_old * c_old
        q0 -= c_old * c_old
        active[i] = j
        c_new = a[i, j] + x[j] - y[i]
        s_new = target[j] - x[j]
        q2 += s_new * s_new
        q1 += s_new * c_new
        q0 += c_new * c_new
    if prev < 1.0:
        consider(prev, 1.0)
    return best_lam


def newton_directed_line_search(
    A: TropicalMatrix,
    y: np.ndarray,
    x0: np.ndarray | None = None,
    cfg: RegressionConfig | None = None,
) -> RegressionOutcome:
    """Local 2-norm minimizer by Newton targets plus exact line searches.

    Each iteration forms the (tie-restricted) Newton target N and
    minimizes the residual exactly along x -> N over lam in [0, 1]. Stops
    when lam = 1 is optimal (the target itself was reached), when the
    relative residual decrease falls below cfg.tol, or at cfg.max_iter
    with converged=False. The default start is the sup-norm solution.
    """
    cfg = cfg or RegressionConfig()
    a = _data_of(A)
    y = _check_rhs(a, y)
    if not np.isfinite(a).any(axis=1).all():
        i = int(np.argmin(np.isfinite(a).any(axis=1)))
        raise DomainError(f"row {i} has no finite entry; the residual is always inf")
    if x0 is None:
        x = chebyshev_regression(A, y).solution
    else:
        x = np.asarray(x0, dtype=float).copy()
        if x.shape != (a.shape[1],):
            raise DomainError(f"x0 length {x.shape} does not match {a.shape[1]} columns")
        if not np.isfinite(x).all():
            raise DomainError("x0 must be finite")

    trace = [float(np.sqrt(residual_sq(A, y, x)))]
    converged = False
    iterations = 0
    for _ in range(cfg.max_iter):
        pattern = active_pattern(A, x)
        target = restricted_newton_target(A, y, pattern)
        if float(np.max(np.abs(target - x))) == 0.0:
            converged = True  # stationary: the target is the current point
            break
        lam = _exact_line_search(a, y, x, target)
        x = x + lam * (target - x)
        iterations += 1
        trace.append(float(np.sqrt(residual_sq(A, y, x))))
        if lam == 1.0:
            converged = True
            break
        if trace[-2] - trace[-1] < cfg.tol * max(trace[-2], 1.0):
            converged = True
            break
    return RegressionOutcome(
        solution=x,
        residual_norm=trace[-1],
        norm_kind="2",
        iterations=iterations,
        converged=converged,
        residual_trace=tuple(trace),
    )
