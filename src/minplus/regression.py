"""Min-plus linear regression.

Given A (n x d, entries in R or +inf) and finite y (length n), approximate
y by A (x) x. The sup-norm problem has a closed form built on the
principal solution of A (x) x >= y. The 2-norm residual is piecewise
quadratic in x: each row i is governed by whichever column attains
min_j(a_ij + x_j), and pieces meet on the tie surface where some row's
argmin is not unique. The 2-norm solver alternates the piecewise Newton
target with an exact line search toward it, so the residual never rises.
Problems on designs of one shape run as one batch. Past a few passes over
the whole table, a step works only on tied rows and rows whose piece changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import INF, TropicalMatrix, _data_of, _factors, _mp, _outer_sum
from .errors import DomainError, ShapeError, UnboundedColumnError

TIE_TOL = 1e-9
BATCH_ELEMENTS = 2**16  # a batch block holds p*n*d <= max(this, one design's Y.size) elements


@dataclass
class RegressionConfig:
    max_iter: int = 500
    tol: float = 1e-10  # relative residual decrease per step

    def __post_init__(self) -> None:
        if self.max_iter < 0 or not np.isfinite(self.tol):
            raise ValueError("max_iter must be >= 0 and tol finite")


@dataclass
class RegressionOutcome:
    """Solution plus diagnostics; residual_norm is recomputed from solution."""

    solution: np.ndarray
    residual_norm: float
    norm_kind: str  # "inf" or "2"
    iterations: int
    converged: bool
    residual_trace: tuple[float, ...] = field(default=())


def _check_rhs(a: np.ndarray, y, what: str = "rhs", axis: int = 0) -> np.ndarray:
    """y as a finite float vector, one entry per row (axis 0) or column (axis 1) of a."""
    y = np.asarray(y, dtype=float)
    if y.shape != (a.shape[axis],):
        raise ShapeError(f"{what} length {y.shape} does not match {a.shape[axis]} {('rows', 'columns')[axis]}")
    if not np.isfinite(y).all():
        raise DomainError(f"{what} must be finite")
    return y


def _check_rows_finite(a: np.ndarray) -> None:
    has_finite = np.isfinite(a).any(axis=1)
    if not has_finite.all():
        i = int(np.argmin(has_finite))
        raise DomainError(f"row {i} has no finite entry; the residual is always inf")


def principal_solution(A: TropicalMatrix, y: np.ndarray) -> np.ndarray:
    """Least x with A (x) x >= y componentwise: x_j = max_i(y_i - a_ij)."""
    a = _data_of(A)
    return _principal_solution(a, _check_rhs(a, y))


def _principal_solution(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """principal_solution of validated arrays."""
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
    y = _check_rhs(a, y)
    xhat = _principal_solution(a, y)
    _check_rows_finite(a)
    solution = _chebyshev_shift(a, y, xhat)
    residual = float(np.max(np.abs(_mp(a, solution[:, None])[:, 0] - y)))
    return RegressionOutcome(solution, residual, "inf", 0, True, (residual,))


def _chebyshev_shift(a: np.ndarray, Y: np.ndarray, xhat: np.ndarray) -> np.ndarray:
    """Least sup-norm optima, unvalidated: principal solutions xhat of one
    right-hand side or a leading-axis stack Y, moved down by half their
    worst overshoot. A (x) xhat is one min-plus product over all of them."""
    lowest = _mp(xhat.reshape(-1, a.shape[1]), a.T).reshape(Y.shape)
    overshoot = lowest - Y  # >= 0, with min exactly attained
    return xhat + -overshoot.max(axis=-1, keepdims=True) / 2.0


def _newton_targets(
    a: np.ndarray, design: np.ndarray, Y: np.ndarray, X: np.ndarray, sel: np.ndarray, tied: np.ndarray,
    near: np.ndarray,
) -> np.ndarray:
    """Newton targets (p, d) of p problems, problem k against a[design[k]],
    restricted to directions tangent to the tie surface: columns tied within
    a row, transitively, form a group that moves by one common increment,
    the mean of y_i - a_ik - x_k over the rows selecting one of its columns,
    summed in row order. Groups selected by no row stay frozen. Y, X, sel
    and the mask tied hold one problem per row; near (d, t) marks each tied
    row's columns within TIE_TOL of its minimum. Only tied rows merge
    groups: labels spread by scatter-min over their near columns alone.
    """
    (p, n), d = Y.shape, X.shape[1]
    labels = np.tile(np.arange(d), p)  # the group of problem k's column j, at k*d + j
    col, entry = np.nonzero(near)
    key = np.flatnonzero(tied)[entry] // n * d + col
    while key.size:
        row_label = np.full(near.shape[1], d)
        np.minimum.at(row_label, entry, labels[key])
        if np.array_equal(row_label[entry], labels[key]):  # at most d rounds of O(t*d)
            break
        np.minimum.at(labels, key, row_label[entry])
    labels, problems = labels.reshape(p, d), np.arange(p)[:, None]
    group = (labels[problems, sel] + d * problems).ravel()  # bincounts sum each group in row order
    weights = Y - a[design[:, None], np.arange(n), sel] - X[problems, sel]
    sums = np.bincount(group, weights=weights.ravel(), minlength=p * d)
    counts = np.bincount(group, minlength=p * d)
    increment = np.divide(sums, counts, out=np.zeros(p * d), where=counts > 0).reshape(p, d)
    return X + increment[problems, labels]


def _segment_events(values: np.ndarray, slopes: np.ndarray, sel: np.ndarray, tied: np.ndarray):
    """Start columns and selector-change events of p problems along
    x + lam*slopes, with values = a + x, sel and tied as in _newton_batch.
    Row k*n + i walks the lower envelope of lines values[j, k, i] +
    lam*slopes[k, j] from its lowest at lam = 0+ (ties: flattest, then
    smallest index; sel if the row is untied), each round moving to the
    flatter line crossing its current one first (same ties), clamped to the
    previous breakpoint. The envelope is concave, so a row moves again only
    if another line is at or below its own at lam = 1: one O(p*n*d) pass
    picks the c rows that move at all, then at most d rounds of O(c*d).
    Events (lam, row, new and old column) have 0 < lam < 1 and are sorted
    by problem, lam, row and walk order.
    """
    d, p, n = values.shape
    start, exact = sel.copy(), values[:, tied] == values[:, tied].min(axis=0)
    start[tied] = np.where(exact, slopes[np.flatnonzero(tied) // n].T, INF).argmin(axis=0)
    # A round moves a row off line q only if some j with s_j < s_q has
    # fl(fl(v_j - v_q) / fl(s_q - s_j)) < 1. Rounding is monotone, so then
    # fl(v_j - v_q) < fl(s_q - s_j), so v_j - v_q < s_q - s_j exactly, so
    # fl(v_j + s_j) <= fl(v_q + s_q): a test at lam = 1 needs no margin.
    problem, start = np.arange(p).repeat(n), start.ravel()
    w_q = values.take(start * (p * n) + np.arange(p * n)) + slopes[problem, start]
    below = (values + slopes.T[:, :, None]).reshape(d, -1) <= w_q
    rows = np.flatnonzero(below.sum(axis=0, dtype=np.min_scalar_type(d)) > 1)  # the start line and another
    order = np.argsort(slopes, axis=1, kind="stable")  # flattest first, then smallest index
    v = values.take((order * (p * n)).T[:, rows // n] + rows)  # the moving rows' lines in that order
    s = np.take_along_axis(slopes, order, axis=1).T[:, rows // n]
    cur, lam = np.argsort(order, axis=1)[rows // n, start[rows]], np.zeros(rows.size)
    found = [(lam[:0], rows[:0], rows[:0], rows[:0])]
    while rows.size:
        at = np.arange(rows.size)
        sq = s[cur, at]
        cross = np.divide(v - v[cur, at], sq - s, out=np.full(v.shape, INF), where=s < sq)  # inf stays inf
        nxt = (cross == cross.min(axis=0)).argmax(axis=0)  # argmin, without copying cross
        lam = np.maximum(cross[nxt, at], lam)
        go = lam < 1.0
        found.append((lam[go], rows[go], nxt[go], cur[go]))
        go &= ((v + s) <= v[nxt, at] + s[nxt, at]).sum(axis=0, dtype=np.min_scalar_type(d)) > 1
        rows, cur, lam, v, s = (t[..., go] for t in (rows, nxt, lam, v, s))
    lams, event_rows, into, out = (np.concatenate(part) for part in zip(*found))
    by = np.lexsort((event_rows, lams, event_rows // n))
    return start, lams[by], event_rows[by], *(order[event_rows[by] // n, t[by]] for t in (into, out))


def _exact_line_search(
    values: np.ndarray, Y: np.ndarray, slopes: np.ndarray, sel: np.ndarray, tied: np.ndarray
) -> np.ndarray:
    """Exact minimizer lam in [0, 1] of each problem's residual along
    x + lam*slopes, with its arguments as in _segment_events. Each event
    swaps one row's coefficients (s^2, s*c, c^2) of (c + s*lam)^2. Problem
    k's swaps fill row k of a zero-padded table, whose cumulative sum gives
    each piece's quadratic in that problem's own order. Pieces are minimized
    at both ends and the interior vertex, skipping zero-length ones; the
    smallest value wins, and on exact ties the larger lam. Past the walk,
    the cost is O(p*n) plus O(1) per event.
    """
    d, p, n = values.shape
    active, lams, rows, cols, prev = _segment_events(values, slopes, sel, tied)
    r = np.concatenate([np.arange(p * n), rows, rows])
    j = np.concatenate([active, cols, prev])
    s, c = slopes[r // n, j], values.reshape(d, p * n)[j, r] - Y.ravel()[r]
    q = np.array([s * s, s * c, c * c])  # start rows, then new and old columns per event
    k, owner = rows.size, rows // n
    counts = np.bincount(owner, minlength=p)
    first = np.cumsum(counts + 1) - (counts + 1)  # flat index of each problem's first piece
    pos = np.arange(k) + owner + 1  # flat index of the piece each event opens
    swaps = np.zeros((3, p, counts.max(initial=0) + 1))
    swaps[:, :, 0] = q[:, : p * n].reshape(3, p, n).sum(axis=2)
    swaps[:, owner, pos - first[owner]] = q[:, p * n : p * n + k] - q[:, p * n + k :]
    real = np.arange(swaps.shape[2]) <= counts[:, None]
    q2, q1, q0 = np.cumsum(swaps, axis=2)[:, real]  # every problem's pieces, flat and in order
    lo, hi = np.zeros(k + p), np.ones(k + p)
    lo[pos], hi[pos - 1] = lams, lams
    vertex = np.divide(-q1, q2, out=lo.copy(), where=q2 > 0.0)
    ends = np.stack([lo, hi, np.where((lo < vertex) & (vertex < hi), vertex, lo)])
    vals = np.where(lo < hi, (q2 * ends + 2.0 * q1) * ends + q0, INF)
    best = np.minimum.reduceat(vals.min(axis=0), first)
    ties = np.where(vals == np.repeat(best, counts + 1), ends, -INF)
    return np.maximum.reduceat(ties.max(axis=0), first)


def _newton_batch(a: np.ndarray, Y, X0: np.ndarray, cfg: RegressionConfig):
    """newton_directed_line_search for the p problems (Y[k], X0[k]) against one design
    a (n, d), unvalidated: solutions, converged flags and traces (steps: len(trace) - 1).
    A stack a (g, n, d) takes a sequence Y of g tables, design j's problems being the
    rows of Y[j]; X0 holds them in that order.

    A block holds p*n*d <= max(BATCH_ELEMENTS, one design's Y[j].size)
    table entries, so a stack runs in blocks of one design's budget, which
    may mix designs; each gathers only its active rows of each Y[j]. Its
    table a + x is (d, p, n), one slab per column, so minima over columns
    are elementwise, and one outer sum per design present; each iteration
    forms it once for the residual, the selectors and the tied rows (two or
    more columns within TIE_TOL of the minimum). A problem leaves its block
    when its own stop rule fires, so it takes exactly its one-problem steps.
    """
    if a.ndim == 2:
        a, Y = a[None], (Y,)
    (_, n, d), sizes = a.shape, [len(y) for y in Y]
    offsets, design = np.cumsum([0, *sizes]), np.repeat(np.arange(len(Y)), sizes)
    p, step = sum(sizes), max(1, max(BATCH_ELEMENTS, *(y.size for y in Y)) // max(n * d, 1))
    X = np.array(X0, dtype=float)
    converged = np.zeros(p, dtype=bool)
    traces: list[list[float]] = [[] for _ in range(p)]
    for first in range(0, p, step):
        act = np.arange(first, min(first + step, p))
        for it in range(cfg.max_iter + 1):
            x = X[act]
            runs = np.searchsorted(act, offsets)  # act is sorted: each design's problems form one run
            values, y = np.empty((d, act.size, n)), np.empty((act.size, n))
            for j in np.flatnonzero(runs[1:] > runs[:-1]).tolist():
                run = slice(runs[j], runs[j + 1])
                _outer_sum(values[:, run], *_factors(x[run].T, a[j].T))
                y[run] = Y[j][act[run] - offsets[j]]
            row_min = values.min(axis=0)
            res = np.sqrt(np.sum((row_min - y) ** 2, axis=1))
            for k, r in zip(act.tolist(), res.tolist()):
                traces[k].append(r)
            stop = np.zeros(act.size, dtype=bool)
            if it:  # after a step: the target itself was reached, or too little decrease
                stop = (lam == 1.0) | (prev - res < cfg.tol * np.maximum(prev, 1.0))
            if it == cfg.max_iter:
                converged[act[stop]] = True
                break
            near = values <= row_min + TIE_TOL
            tied = near.sum(axis=0, dtype=np.min_scalar_type(d)) > 1
            sel = near.argmax(axis=0)  # an untied row's one near column is its argmin
            sel[tied] = values[:, tied].argmin(axis=0)
            near = near[:, tied]
            slopes = _newton_targets(a, design[act], y, x, sel, tied, near) - x
            stop |= np.abs(slopes).max(axis=1) == 0.0  # stationary: the target is the current point
            converged[act[stop]] = True
            go = ~stop
            act, x, slopes, prev = act[go], x[go], slopes[go], res[go]
            if not act.size:
                break
            if not go.all():  # drop the stopped problems' slabs
                values, y, sel, tied = values[:, go], y[go], sel[go], tied[go]
            lam = _exact_line_search(values, y, slopes, sel, tied)
            X[act] = x + lam[:, None] * slopes
    return X, converged, traces


def newton_directed_line_search(
    A: TropicalMatrix, y: np.ndarray, x0: np.ndarray | None = None, cfg: RegressionConfig | None = None
) -> RegressionOutcome:
    """Local 2-norm minimizer by Newton targets plus exact line searches.

    Each iteration forms the (tie-restricted) Newton target N and
    minimizes the residual exactly along x -> N over lam in [0, 1]. Stops
    when lam = 1 is optimal (the target itself was reached), when the
    relative residual decrease falls below cfg.tol, or at cfg.max_iter
    with converged=False. The default start is the sup-norm solution.
    Runs as the one-problem case of the batched engine.
    """
    cfg = cfg or RegressionConfig()
    a = _data_of(A)
    y = _check_rhs(a, y)
    _check_rows_finite(a)
    if x0 is None:
        x = _chebyshev_shift(a, y, _principal_solution(a, y))
    else:
        x = _check_rhs(a, x0, "x0", axis=1)
    (x,), (converged,), (trace,) = _newton_batch(a, y[None], x[None], cfg)
    return RegressionOutcome(x, trace[-1], "2", len(trace) - 1, bool(converged), tuple(trace))
