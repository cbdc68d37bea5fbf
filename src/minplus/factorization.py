"""Min-plus low-rank approximation.

Three routes to a rank-m factorization:

* actual waypoints: pick m columns of a distance matrix D and score
  D(:,W) (x) D(:,W)^T, the shortest distances forced through the chosen
  waypoint set W;
* symmetric virtual waypoints: minimize ||D - F (x) F^T||_F over a free
  n x m factor F by smoothed Newton steps. With the per-row argmin columns
  frozen, the objective is an ordinary quadratic; a fixed number of Jacobi
  sweeps approximates its minimizer and an undershooting convex
  combination (factor mu) damps the move so selector flips cannot cycle;
* general alternation: minimize ||M - A (x) B||_F by alternating 2-norm
  regression sweeps over the columns of B and the rows of A.

Everything is seeded; multi-restart drivers derive one child generator
per restart so results are independent of execution order.
"""

from __future__ import annotations

import itertools
import math
import numbers
import warnings
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .core import TILE_ROWS, TropicalMatrix, _as_matrix, _data_of, _factors, _fold, _mirror, _mp, _outer_sum
from .core import _frobenius, frobenius_distance, is_idempotent
from .errors import INFEASIBLE_HINT, DomainError, ShapeError
from .regression import BATCH_ELEMENTS, RegressionConfig, _chebyshev_shift, _newton_batch

SYM_TOL = 0.0  # symmetric driver: early-exit residual target
DECAY_PATIENCE = 5  # iterations without improvement before mu decays
MU_DECAY = 0.5  # factor applied to mu on each decay
MU_FLOOR = 1e-3  # mu never decays below this
NONSYM_TOL = 1e-8  # general driver: stop once no factor entry moves this far
INNER_MAX_ITER = 50  # 2-norm regression steps per row or column sweep
KMEANS_MAX_ITER = 50  # Lloyd iterations of the kmeans start
# drop a candidate whose partial sum of squares exceeds best^2 by this much, far
# above the rounding gap between tile sums and np.sum: it could neither win nor tie
PRUNE_MARGIN = 1e-9


@dataclass
class FactorPair:
    """A factorization M ≈ left (x) right with its achieved residual.

    iteration_trace belongs to the restart that won. For sym_factorize it
    holds the best residual seen so far after each iteration, so it never
    increases. For nonsym_factorize it holds the raw residual of the
    current pair at the start and after each half-sweep, which can rise.
    """

    left: TropicalMatrix
    right: TropicalMatrix
    residual: float
    restarts_used: int
    iteration_trace: tuple[float, ...]


@dataclass
class SymFactorConfig:
    """Parameters of the symmetric factorization driver.

    rank is the number of virtual waypoints; jacobi_steps is the number of
    Jacobi sweeps per Newton approximation; shoot is the undershooting
    weight mu of the convex-combination step.
    """

    rank: int
    jacobi_steps: int = 5
    shoot: float = 0.5
    max_iter: int = 100
    restarts: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.jacobi_steps < 1:
            raise ValueError("jacobi_steps must be >= 1")
        if not (0.0 < self.shoot <= 1.0):
            raise ValueError("shoot must lie in (0, 1]")
        if self.max_iter < 1 or self.restarts < 1:
            raise ValueError("max_iter and restarts must be >= 1")


@dataclass
class NonsymFactorConfig:
    """Parameters of the alternating general factorization.

    By default row sweeps over A use the B from the previous outer
    iteration; gauss_seidel=True uses the freshly updated B instead, which
    makes every half-sweep non-increasing.
    """

    max_iter: int = 100
    restarts: int = 1
    seed: int = 0
    gauss_seidel: bool = False

    def __post_init__(self) -> None:
        if self.max_iter < 1 or self.restarts < 1:
            raise ValueError("max_iter and restarts must be >= 1")


def _check_symmetric_distance(D: TropicalMatrix) -> np.ndarray:
    """D's array, once square, symmetric and finite; warns unless D (x) D = D."""
    D = _as_matrix(D)
    d = D.data
    if d.shape[0] != d.shape[1]:
        raise ShapeError(f"expected a square matrix, got {d.shape}")
    if not np.array_equal(d, d.T):
        raise ShapeError("matrix is not symmetric")
    if not np.isfinite(d).all():
        raise DomainError(f"matrix has non-finite entries; {INFEASIBLE_HINT}")
    if not is_idempotent(D):
        warnings.warn("input is not idempotent; waypoint factorizations are meant for "
                      "shortest-path distance matrices", UserWarning, stacklevel=3)
    return d


def _waypoint_pair(left: np.ndarray, residual: float, evaluated: int) -> FactorPair:
    left = TropicalMatrix._wrap(left)
    return FactorPair(left, left.transpose(), residual, evaluated, (residual,))


def actual_waypoint(D: TropicalMatrix, W) -> FactorPair:
    """Score a fixed waypoint set: left = D(:,W), right = left^T.

    Entry (i,j) of the product is the shortest i-to-j distance constrained
    to pass through at least one waypoint in W, so the product dominates D
    entrywise and is exact on rows and columns indexed by W.
    """
    d = _check_symmetric_distance(D)
    W, n = list(W), d.shape[0]
    waypoints = [int(w) for w in W if isinstance(w, numbers.Real) and not isinstance(w, bool) and float(w).is_integer()]
    if not W or len(set(waypoints)) != len(W):
        raise ValueError("waypoints must be one or more distinct integer indices, not bools, fractions or text")
    for w in waypoints:
        if not (0 <= w < n):
            raise IndexError(f"waypoint index {w} outside 0..{n - 1}")
    left = d[:, waypoints]
    return _waypoint_pair(left, float(_frobenius(d - _mp(left, left.T))), 0)


def _tile_sums(d: np.ndarray, buf: np.ndarray, fill):
    """Running totals of a symmetric n x n sum of squares, one per row tile.

    fill(tile, rows, top) writes the terms of rows top.. of D, columns top.. (rows is that
    view of D), into the flat scratch buf. A tile adds its diagonal block once and the
    columns right of it twice, as 2 * (its dot with itself - half the block's squares): no
    total falls, and none overflows unless the sum does. Row w of D stands for column w."""
    total = 0.0
    for top in range(0, d.shape[0], TILE_ROWS):
        rows = d[top:top + TILE_ROWS, top:]
        tile = buf[: rows.size].reshape(rows.shape)
        fill(tile, rows, top)
        block, flat = tile[:, : len(rows)], tile.ravel()
        total += 2.0 * (float(flat @ flat) - 0.5 * float((block * block).sum()))
        yield total


def _residual_fill(wrows: np.ndarray, scratch: np.ndarray, kept: np.ndarray, tile, rows, top) -> None:
    """The tile of D(:,W) (x) D(:,W)^T - D, folded over the waypoint rows wrows = D(W,:), also put in kept."""
    _fold(tile, wrows[:, top:top + len(rows)], wrows[:, top:], scratch[: tile.size].reshape(tile.shape))
    np.subtract(tile, rows, out=tile)
    kept[top:top + len(rows), top:] = tile


def _kept_residual(kept: np.ndarray) -> float:
    """||D(:,W) (x) D(:,W)^T - D||_F from a whole exact scan's tiles in kept, squared in place, bit for
    bit _frobenius(D - product): D and the product are symmetric, and fl(p - d) = -fl(d - p)."""
    _mirror(kept, TILE_ROWS)
    return float(_frobenius(kept))


def _bound_fill(near: np.ndarray, tile, rows, top) -> None:
    """The tile of max(0, r_i + r_j - d_ij), r_i = min_w d_iw the cost of
    row i's nearest waypoint. Product entry (i,j) is min_w fl(d_iw + d_wj)
    >= fl(r_i + r_j), so each term is at most the residual's, for any
    finite symmetric D."""
    _outer_sum(tile, *_factors(near[top:top + len(rows)], near[top:]))
    np.subtract(tile, rows, out=tile)
    np.maximum(tile, 0.0, out=tile)


def _row_bounds(near: np.ndarray, sums: np.ndarray, magnitudes: np.ndarray) -> np.ndarray:
    """For each row r of near, sum_i max(0, x_i)^2 / n <= the Voronoi bound (Cauchy-Schwarz), with
    x_i = n*r_i + sum_j r_j - sums_i = sum_j (r_i + r_j - d_ij). x_i gives up (n + 4) unit roundoffs
    of its magnitudes (two sums, three steps, r_i + r_j and the subtraction), as its terms can cancel.
    An overflow gives NaN, which drops nothing, or inf where the residual is inf as well."""
    n, size = near.shape[1], np.abs(near)
    slack = (n + 4) * 2.0**-53 * (n * size + size.sum(axis=1, keepdims=True) + magnitudes)
    x = np.maximum(n * near + near.sum(axis=1, keepdims=True) - sums - slack, 0.0) / math.sqrt(n)
    return np.einsum("ij,ij->i", x, x)


def actual_waypoint_search(
    D: TropicalMatrix, m: int, budget: int = 10000, seed: int = 0
) -> tuple[tuple[int, ...], FactorPair]:
    """Best waypoint set of size m: exhaustive when C(n,m) fits the budget,
    otherwise seeded uniform sampling of budget subsets.

    Candidates are visited in stable order of their k-medoids cost sum_i r_i^2,
    where r_i = min_{w in W} d_iw is row i's distance to its nearest waypoint, so
    a good set is scored early. A candidate is dropped once a lower bound of its
    squared residual exceeds the best one so far: the O(n) row bound of
    _row_bounds, then two row-tile scans, the Voronoi bound
    sum_ij max(0, r_i + r_j - d_ij)^2 and the exact residual. A candidate that
    passes all three is scored from the exact scan's tiles, kept in one n x n
    buffer. A winner or a tie is never dropped, and ties break toward the
    lexicographically smallest W, so the result equals scoring every candidate.
    """
    d = _check_symmetric_distance(D)
    n = d.shape[0]
    if not (1 <= m <= n):
        raise ValueError(f"rank must lie in 1..{n}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if math.comb(n, m) <= budget:
        candidates = np.array(list(itertools.combinations(range(n), m)))
    else:
        rng = np.random.default_rng([seed])
        candidates = np.array([np.sort(rng.choice(n, size=m, replace=False)) for _ in range(budget)])
    sums, magnitudes = d.sum(axis=1), np.abs(d).sum(axis=1)
    keys, row_bounds = [], []  # one float each per candidate
    for top in range(0, len(candidates), TILE_ROWS):
        near = reduce(np.minimum, (d[w] for w in candidates[top:top + TILE_ROWS].T))
        keys += [float(r @ r) for r in near]
        row_bounds += _row_bounds(near, sums, magnitudes).tolist()
    best_w, best_res, bound = None, np.inf, np.inf
    kept, product = np.empty((n, n)), np.empty(min(TILE_ROWS, n) * n)
    term = np.empty_like(product)
    for c in sorted(range(len(keys)), key=keys.__getitem__):
        if row_bounds[c] > bound:
            continue
        wrows = d[candidates[c]]
        fills = (partial(_bound_fill, wrows.min(axis=0)), partial(_residual_fill, wrows, term, kept))
        if any(s > bound for fill in fills for s in _tile_sums(d, product, fill)):
            continue
        w, res = tuple(candidates[c].tolist()), _kept_residual(kept)
        if res < best_res or (res == best_res and (best_w is None or w < best_w)):
            best_w, best_res = w, res
            bound = best_res * best_res * (1.0 + PRUNE_MARGIN)
    return best_w, _waypoint_pair(d[:, list(best_w)], best_res, len(candidates))


def _sym_product(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F (x) F^T and its selectors K for each start of a (P, n, m) stack, m >= 1,
    in one _fold over the m columns into a product nothing fills first.

    K[p,i,j] is the smallest column attaining min_k(f_pik + f_pjk), as
    argmin gives it. K is symmetric and of dtype np.min_scalar_type(m - 1),
    one byte up to m = 256. Scratch memory is O(P*n^2); the P x n x n x m
    pair tensor is never formed.
    """
    p, n, m = f.shape
    cols = np.moveaxis(f, 2, 0)  # (m, P, n): column k of each start, copied into its factors by _fold
    product = np.empty((p, n, n))
    selectors = np.zeros(product.shape, dtype=np.min_scalar_type(m - 1))
    _fold(product, cols, cols, np.empty_like(product), selectors)
    return product, selectors


def _jacobi_tables(dt: np.ndarray, p: int, m: int):
    """What _jacobi_setup reuses over a block of p starts of rank m: the flat row bases p*n*m + i*m, column
    bases p*n*m + j*m, p stacked copies of dt as flat weights, dt's diagonal and the columns 0..m-1."""
    n = len(dt)
    base = np.arange(p)[:, None] * (n * m) + np.arange(n) * m
    weights = np.broadcast_to(dt, (p, n, n)).reshape(-1)  # a view of dt when p = 1 and dt is contiguous
    return base[:, :, None], base[:, None, :], weights, dt.diagonal()[:, None], np.arange(m)


def _jacobi_setup(tables, selectors: np.ndarray):
    """Tables for Jacobi sweeps of each start's quadratic frozen at its symmetric
    (P, n, n) selectors K, from _jacobi_tables of dt = D^T (D itself when symmetric).

    K comes from _sym_product, so a tied pair belongs to its smallest
    attaining column. Entry (p,i,k) of the update sums over the j with
    K[p,i,j] = k, by bincounts in column order: the walk over (p,i,j) adds
    the term of pair (j,i) into bin gather = p*n*m + j*m + K[p,i,j], so
    consecutive adds rarely wait on one bin. K is symmetric, so each bin
    gets the terms of a row-order bincount in the same sequence, given
    transposed weights (hence D^T): every sum is bitwise the row-order and
    P = 1 one. The setup and each sweep need O(P*n^2) memory and work.
    """
    row_base, col_base, weights, d_diag, columns = tables  # a block's first p starts still iterate
    (p, n), m = selectors.shape[:2], len(columns)
    size = p * n * m
    bins = (row_base[:p] + selectors).ravel()  # flat position of fp[p, i, K[p,i,j]]
    gather = (col_base[:p] + selectors).ravel()  # flat position of fp[p, j, K[p,i,j]]
    # 1_pik: does row i anchor column k in start p; K's diagonal is a strided view
    diag_hot = (selectors.reshape(p, n * n)[:, :: n + 1, None] == columns).astype(float)
    count = np.bincount(gather, minlength=size).reshape(p, n, m)
    d_sums = np.bincount(gather, weights=weights[: p * n * n], minlength=size).reshape(p, n, m)
    anchored_num = d_diag * diag_hot + (d_sums - diag_hot * d_diag)
    # counts are small integers, so sums are exact; K[p,i,i] = k puts (i,i) in bin (p,i,k): count >= diag_hot
    return bins, gather, diag_hot, anchored_num, count > 0, np.maximum(count + diag_hot, 1.0)


def _jacobi_apply(setup, fp: np.ndarray) -> np.ndarray:
    """One Jacobi sweep of each start's frozen normal equations, fp (P, n, m).

    Entry (i,k) becomes (d_ii*1_ik + sum_{j != i, K(i,j)=k} (d_ij - fp_jk))
    / (2*1_ik + #{j != i : K(i,j)=k}); zero denominators copy fp. The sum
    over j takes fp[p, i, K[p,i,j]] and bincounts it into the column-order
    bins of _jacobi_setup: O(P*n^2) time and memory.
    """
    bins, gather, diag_hot, anchored_num, positive, denominator = setup
    fp_sums = np.bincount(gather, weights=fp.ravel().take(bins), minlength=fp.size).reshape(fp.shape)
    cross = fp_sums - diag_hot * fp
    return np.where(positive, (anchored_num - cross) / denominator, fp)


def jacobi_map(D: TropicalMatrix, F: TropicalMatrix, Fp: TropicalMatrix) -> TropicalMatrix:
    """One Jacobi sweep with selectors frozen at F, applied to values Fp.

    Iterating this map with F held fixed converges to the minimizer of the
    frozen quadratic q_F (its constrained coordinates; untouched ones are
    copied through).
    """
    d = _data_of(D)
    f, fp = _data_of(F), _data_of(Fp)
    if d.shape[0] != d.shape[1]:
        raise ShapeError(f"expected a square matrix, got {d.shape}")
    if f.shape != fp.shape or f.shape[0] != d.shape[0]:
        raise ShapeError(f"factor shapes disagree: D {d.shape}, F {f.shape}, Fp {fp.shape}")
    if not f.shape[1]:
        raise ShapeError(f"F and Fp have no columns: F {f.shape}; the rank must be at least 1")
    if not (np.isfinite(d).all() and np.isfinite(f).all() and np.isfinite(fp).all()):
        raise DomainError("jacobi_map needs finite inputs")
    setup = _jacobi_setup(_jacobi_tables(d.T, 1, f.shape[1]), _sym_product(f[None])[1])
    return TropicalMatrix._wrap(_jacobi_apply(setup, fp[None])[0])


def _checked_init(x, shape: tuple[int, int]) -> np.ndarray:
    """An extra start's array as a C-ordered float copy, checked to have the given shape and finite entries."""
    x = np.array(x, dtype=float, order="C")
    if x.shape != shape:
        raise ShapeError(f"extra init shape {x.shape} does not match {shape}")
    if not np.isfinite(x).all():
        raise DomainError("extra inits must be finite")
    return x


def _best_of_starts(outcomes, target: float = -np.inf) -> FactorPair:
    """Take each start's outcome (residual, left, right, trace) in turn
    until the best residual reaches target; the lowest residual wins and
    ties keep the earliest start."""
    best, runs = None, 0
    for outcome in outcomes:
        runs += 1
        if best is None or outcome[0] < best[0]:
            best = outcome
        if best[0] <= target:
            break
    res, left, right, trace = best
    return FactorPair(TropicalMatrix._wrap(left), TropicalMatrix._wrap(right), res, runs, tuple(trace))


def _sym_block(d: np.ndarray, f: np.ndarray, cfg: SymFactorConfig):
    """Run a (P, n, m) stack of starts of the symmetric driver together:
    each start's (residual, best F, its transpose, trace), in order.

    Each iterate's products and selectors come from one _sym_product
    pass: the product scores the iterate and the selectors freeze the
    next iteration's quadratic. mu, the stall count and the best iterate
    are kept per start, and a start leaves the block once it reaches
    SYM_TOL, so every start takes exactly its one-start steps. Each trace
    records the best residual seen up to each iteration, so it is
    non-increasing by construction.
    """
    tables = _jacobi_tables(d, len(f), f.shape[2])
    product, selectors = _sym_product(f)
    best_res = _frobenius(np.subtract(d, product, out=product)).tolist()
    best_f, traces = list(f), [[r] for r in best_res]  # no f is written in place, so its rows can be kept
    mu, stall, act = [cfg.shoot] * len(f), [0] * len(f), list(range(len(f)))  # act: the starts still iterating
    for _ in range(cfg.max_iter):
        go = [best_res[k] > SYM_TOL for k in act]
        if not all(go):
            act, f, selectors = list(itertools.compress(act, go)), f[go], selectors[go]
            if not act:
                break
        setup = _jacobi_setup(tables, selectors)
        fp = f
        for _ in range(cfg.jacobi_steps):
            fp = _jacobi_apply(setup, fp)
        weight = np.array([mu[k] for k in act])[:, None, None]
        f = weight * fp + (1.0 - weight) * f
        product, selectors = _sym_product(f)
        res = _frobenius(np.subtract(d, product, out=product)).tolist()
        for k, r, row in zip(act, res, f):
            if r < best_res[k]:
                best_res[k], best_f[k], stall[k] = r, row, 0
            else:
                stall[k] += 1
                if stall[k] >= DECAY_PATIENCE:
                    mu[k], stall[k] = max(mu[k] * MU_DECAY, MU_FLOOR), 0
            traces[k].append(best_res[k])
    return [(r, fb, fb.T, trace) for r, fb, trace in zip(best_res, best_f, traces)]


def _sym_outcomes(d: np.ndarray, starts, cfg: SymFactorConfig):
    """Each start's outcome, in order. The starts run in blocks of
    P*n^2 <= max(n^2, BATCH_ELEMENTS) entries, the Newton engine's budget,
    and a block runs only once every outcome before it has been taken."""
    size = max(d.size, BATCH_ELEMENTS) // d.size
    while block := list(itertools.islice(starts, size)):
        yield from _sym_block(d, np.stack(block), cfg)


def sym_factorize(
    D: TropicalMatrix, cfg: SymFactorConfig, extra_inits: tuple[np.ndarray, ...] = ()
) -> FactorPair:
    """Symmetric virtual-waypoint factorization D ≈ F (x) F^T.

    Each restart draws a waypoint set W uniformly (seeded per restart) and
    starts from F = D(:,W). Per iteration the selectors are frozen at the
    current factor, jacobi_steps Jacobi sweeps approximate the frozen
    quadratic's minimizer, and the factor moves by the undershooting
    combination mu*new + (1-mu)*current. extra_inits supplies additional
    deterministic starting factors, run after the restarts (used by the
    rank-sweep CLI to warm-start from the previous rank). The starts run
    as one batch, in blocks of P*n^2 <= max(n^2, regression.BATCH_ELEMENTS)
    entries; each start's result is bitwise its one-start result. The best
    iterate over all starts wins; ties keep the earliest start, and no
    block runs once a start has reached SYM_TOL.
    """
    d = _check_symmetric_distance(D)
    n = d.shape[0]
    if cfg.rank > n:
        raise ValueError(f"rank {cfg.rank} exceeds matrix size {n}")
    extras = [_checked_init(f0, (n, cfg.rank)) for f0 in extra_inits]
    restarts = (
        d[:, np.random.default_rng([cfg.seed, r]).choice(n, size=cfg.rank, replace=False)]
        for r in range(cfg.restarts)
    )
    return _best_of_starts(_sym_outcomes(d, itertools.chain(restarts, extras), cfg), SYM_TOL)


def residual_of_given_factor(D: TropicalMatrix, F: TropicalMatrix) -> float:
    """||D - F (x) F^T||_F for a user-supplied factor."""
    D, f = _as_matrix(D), _data_of(F)
    if D.rows != D.cols:
        raise ShapeError(f"expected a square matrix, got {D.shape}")
    if f.shape[0] != D.rows:
        raise ShapeError(f"factor has {f.shape[0]} rows, matrix has {D.rows}")
    return frobenius_distance(D, TropicalMatrix._wrap(_mp(f, f.T)))


def _kmeans_columns(m_data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Cluster the columns of m_data (points in R^n) into k centers.

    Seeding picks centers with probability proportional to squared
    distance from the chosen set; empty clusters are re-seeded to the
    point farthest from its assigned center. Returns centers as columns.
    """
    points = m_data.T
    count = points.shape[0]
    first = int(rng.integers(count))
    center_idx = [first]
    d2 = np.sum((points - points[first]) ** 2, axis=1)
    while len(center_idx) < k:
        total = float(d2.sum())
        if total > 0.0:
            probs = d2 / total
            nxt = int(rng.choice(count, p=probs))
        else:
            nxt = int(rng.integers(count))
        center_idx.append(nxt)
        d2 = np.minimum(d2, np.sum((points - points[nxt]) ** 2, axis=1))
    centers = points[center_idx].astype(float).copy()
    assign = None
    dist = np.empty((count, k))
    for _ in range(KMEANS_MAX_ITER):
        for c in range(k):  # one (columns x n) pass per center, never (columns x k x n)
            dist[:, c] = np.sum((points - centers[c]) ** 2, axis=1)
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
    return centers.T


def _kmeans_start(m_data: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A from kmeans centers of M's columns, B from every column's sup-norm
    solution against that A, all columns at once, one center at a time."""
    a = _kmeans_columns(m_data, k, rng)
    mt = m_data.T
    # principal solutions, one row per column of M; built by center, so B
    # comes out C-contiguous, which the half-sweeps run markedly faster on
    xhat = np.array([(mt - a[:, c]).max(axis=1) for c in range(k)]).T
    return a, _chebyshev_shift(a, mt, xhat).T


def _alternate(m_mat: np.ndarray, a: np.ndarray, b: np.ndarray, cfg: NonsymFactorConfig):
    """The pairs of one general run: the start, then the pair after each
    half-sweep. The half-sweeps return new arrays, so no pair changes in
    place; the run ends after cfg.max_iter outer iterations, or once no
    factor entry moved NONSYM_TOL in one. Both half-sweeps read only the
    previous pair by default, so on a square M they run as one batch."""
    inner_cfg = RegressionConfig(max_iter=INNER_MAX_ITER)
    together = not cfg.gauss_seidel and m_mat.shape[0] == m_mat.shape[1]
    yield a, b
    for _ in range(cfg.max_iter):
        a_prev, b_prev = a, b
        if together:  # one problem per column of M, then one per row
            x = _newton_batch(np.stack((a, b.T)), (m_mat.T, m_mat), np.concatenate((b.T, a)), inner_cfg)[0]
            b, a = x[: len(m_mat)].T, x[len(m_mat):]
        else:
            b = _newton_batch(a, m_mat.T, b.T, inner_cfg)[0].T  # one problem per column of M
            a = _newton_batch((b if cfg.gauss_seidel else b_prev).T, m_mat, a, inner_cfg)[0]
        yield a_prev, b
        yield a, b
        if (np.abs(a - a_prev) < NONSYM_TOL).all() and (np.abs(b - b_prev) < NONSYM_TOL).all():
            return


def _nonsym_run(m_mat: np.ndarray, a: np.ndarray, b: np.ndarray, cfg: NonsymFactorConfig):
    """One start of the general driver: (residual, A, B, trace) of its best
    pair, with every pair's residual in the trace; ties keep the earliest."""
    best, trace = None, []
    for pair in _alternate(m_mat, a, b, cfg):
        res = float(_frobenius(m_mat - _mp(*pair)))
        trace.append(res)
        if best is None or res < best[0]:
            best = (res, *pair)
    return (*best, trace)


def nonsym_factorize(
    M: TropicalMatrix,
    m: int,
    cfg: NonsymFactorConfig | None = None,
    extra_inits: tuple[tuple[np.ndarray, np.ndarray], ...] = (),
) -> FactorPair:
    """General factorization M ≈ A (x) B by alternating regression.

    Each restart starts A from kmeans centers of M's columns and B from
    the sup-norm solutions against that A. extra_inits supplies further
    (A0, B0) starts, run after the restarts (used by the rank-sweep CLI
    to warm-start from the previous rank). Then columns of B and rows of A
    are refined in turn by the 2-norm solver, warm-started at their
    previous values; by default the row sweep regresses against the
    previous outer iteration's B. The problems of one outer iteration run
    as one batch over the designs A and B^T, or, with gauss_seidel or a
    non-square M, one batch per half-sweep. Every start runs, and
    the best pair ever seen (initialization included) is returned, so the
    residual never exceeds any start's; ties keep the earliest start.
    """
    cfg = cfg or NonsymFactorConfig()
    m_mat = _data_of(M)
    if not np.isfinite(m_mat).all():
        raise DomainError(f"matrix has non-finite entries; {INFEASIBLE_HINT}")
    n, d_cols = m_mat.shape
    if not (1 <= m <= min(n, d_cols)):
        raise ValueError(f"rank must lie in 1..{min(n, d_cols)}")
    extras = list(extra_inits)
    if any(len(init) != 2 for init in extras):
        raise ShapeError("each extra init must be an (A0, B0) pair")
    extras = [(_checked_init(a0, (n, m)), _checked_init(b0, (m, d_cols))) for a0, b0 in extras]
    restarts = (_kmeans_start(m_mat, m, np.random.default_rng([cfg.seed, r])) for r in range(cfg.restarts))
    return _best_of_starts(_nonsym_run(m_mat, a, b, cfg) for a, b in itertools.chain(restarts, extras))
