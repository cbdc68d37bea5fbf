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
    exactly, and near[i, j] marks the columns within TIE_TOL of that
    minimum. tied_rows lists rows with more than one near column, i.e. x
    lies on the tie surface, and tie_sets holds those rows' near columns.
    """

    x: np.ndarray
    selectors: np.ndarray
    near: np.ndarray

    @property
    def tied_rows(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.near.sum(axis=1) > 1).tolist())

    @property
    def tie_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(np.flatnonzero(self.near[i]).tolist()) for i in self.tied_rows)


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
    """Smallest-index argmin per row plus the columns within tie_tol of it."""
    a = _data_of(A)
    x = np.asarray(x, dtype=float)
    if x.shape != (a.shape[1],):
        raise DomainError(f"vector length {x.shape} does not match {a.shape[1]} columns")
    values = a + x[None, :]
    row_min = values.min(axis=1)
    selectors = values.argmin(axis=1)  # first minimum = smallest index
    near = values <= row_min[:, None] + tie_tol
    return ActivePattern(x=x.copy(), selectors=selectors, near=near)


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
    the step immediately leaves the quadratic piece. Tie groups are the
    connected components of the rows' near-column sets, found by
    propagating the smallest column label through pattern.near (at most d
    rounds of O(n*d) each, so scratch memory is O(n*d)). Each group moves
    by the mean increment y_i - a_ik - x_k over the rows selecting one of
    its columns, summed in row order; groups selected by no row stay
    frozen.
    """
    a = _data_of(A)
    y = _check_rhs(a, y)
    n, d = a.shape
    near, sel, x = pattern.near, pattern.selectors, pattern.x
    labels = np.arange(d)
    while True:
        row_label = np.where(near, labels, d).min(axis=1, initial=d)
        merged = np.minimum(labels, np.where(near, row_label[:, None], d).min(axis=0, initial=d))
        if np.array_equal(merged, labels):
            break
        labels = merged
    group = labels[sel]
    sums = np.bincount(group, weights=y - a[np.arange(n), sel] - x[sel], minlength=d)
    counts = np.bincount(group, minlength=d)
    increment = np.divide(sums, counts, out=np.zeros(d), where=counts > 0)
    return x + increment[labels]


def _segment_events(a: np.ndarray, x: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Initial active columns and sorted selector-change breakpoints along
    L(lam) = x + lam*(target - x).

    Row i's value along the segment is the lower envelope of the lines
    (a_ij + x_j) + lam*(target_j - x_j) over its finite columns. Every row
    starts on its line at lam = 0+: lowest intercept, then flattest slope,
    then smallest index. All rows then walk their envelopes together: the
    next line is the flatter line that crosses the current one first (ties:
    flattest, then smallest index), and a crossing is clamped to the
    previous breakpoint. Slopes fall strictly, so a row stops after at
    most d rounds, each of O(n*d) work and scratch memory.

    events is a structured array of (lam, row, col) triples, 0 < lam < 1,
    sorted by lam, then row, then walk order; col is the row's new column.
    """
    slopes = target - x
    order = np.argsort(slopes, kind="stable")  # flattest first, then smallest index
    slopes, lines = slopes[order], (a + x)[:, order]
    rows = np.arange(a.shape[0])
    start = cur = lines.argmin(axis=1)
    lam = np.zeros(rows.size)
    found = [(lam[:0], rows[:0], rows[:0])]
    while rows.size:
        at, s = np.arange(rows.size), slopes[cur]
        cross = np.divide(  # an infinite line's crossing stays infinite
            lines - lines[at, cur][:, None],
            s[:, None] - slopes,
            out=np.full(lines.shape, INF),
            where=slopes < s[:, None],
        )
        nxt = cross.argmin(axis=1)
        lam = np.maximum(cross[at, nxt], lam)
        go = lam < 1.0
        rows, cur, lam, lines = rows[go], nxt[go], lam[go], lines[go]
        found.append((lam, rows, order[cur]))
    lams, event_rows, cols = (np.concatenate(part) for part in zip(*found))
    events = np.empty(lams.size, dtype=[("lam", float), ("row", np.intp), ("col", np.intp)])
    events["lam"], events["row"], events["col"] = lams, event_rows, cols
    return order[start], events[np.lexsort((event_rows, lams))]


def _exact_line_search(a: np.ndarray, y: np.ndarray, x: np.ndarray, target: np.ndarray) -> float:
    """Exact minimizer lam in [0, 1] of the residual along x -> target.

    Each breakpoint swaps one row's coefficients (s^2, s*c, c^2) of
    (c + s*lam)^2, so a cumulative sum of the swaps gives the aggregate
    quadratic on every piece between breakpoints. All pieces are minimized
    at once in closed form over both ends and the interior vertex;
    zero-length pieces are skipped. The smallest value wins, and among
    exact ties the larger lam, so a flat optimal stretch reports lam = 1.
    Scratch memory is O(n*d).
    """
    n = a.shape[0]
    active, events = _segment_events(a, x, target)
    rows, cols = events["row"], events["col"]
    # the column each event leaves: its row's start column or previous event's column
    by_row = np.argsort(rows, kind="stable")  # each row's events in walk order
    same_row = rows[by_row[1:]] == rows[by_row[:-1]]
    prev = active[rows]
    prev[by_row[1:][same_row]] = cols[by_row[:-1][same_row]]
    r = np.concatenate([np.arange(n), rows, rows])
    j = np.concatenate([active, cols, prev])
    s, c = (target - x)[j], (a + x - y[:, None])[r, j]
    q = np.array([s * s, s * c, c * c])  # start rows, then new and old columns per event
    k = rows.size
    swaps = np.hstack([q[:, :n].sum(axis=1, keepdims=True), q[:, n : n + k] - q[:, n + k :]])
    bounds = np.concatenate(([0.0], events["lam"], [1.0]))
    lo, hi = bounds[:-1], bounds[1:]
    keep = lo < hi
    q2, q1, q0 = np.cumsum(swaps, axis=1)[:, keep]
    lo, hi = lo[keep], hi[keep]
    vertex = np.divide(-q1, q2, out=lo.copy(), where=q2 > 0.0)
    lams = np.stack([lo, hi, np.where((lo < vertex) & (vertex < hi), vertex, lo)])
    vals = (q2 * lams + 2.0 * q1) * lams + q0
    return float(lams[vals == vals.min()].max())


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
