"""Min-plus regression: principal solution, Chebyshev optimum, line search."""

from typing import NamedTuple

import numpy as np
import pytest

from minplus import (
    INF,
    DomainError,
    RegressionConfig,
    ShapeError,
    TropicalMatrix,
    UnboundedColumnError,
    chebyshev_regression,
    newton_directed_line_search,
    principal_solution,
)
from minplus import regression as reg

from oracles import full_table_newton_targets, full_table_segment_events, identity, min_plus_apply


def residual_sq(A, y, x):
    """Squared 2-norm residual sum_i (min_j(a_ij + x_j) - y_i)^2."""
    return float(np.sum((min_plus_apply(A, x) - y) ** 2))


class ActivePattern(NamedTuple):
    """Selectors and near ties of a one-problem residual at x."""

    x: np.ndarray
    selectors: np.ndarray
    near: np.ndarray
    tied_rows: tuple[int, ...]
    tie_sets: tuple[tuple[int, ...], ...]


def active_pattern(A, x, tie_tol=reg.TIE_TOL):
    """Test-only reference: the smallest argmin column of each row of A + x,
    the columns within tie_tol of its minimum, and the rows with more than
    one such column, computed apart from the batched engine."""
    values = A.data + x[None, :]
    near = values <= values.min(axis=1)[:, None] + tie_tol
    tied = np.flatnonzero(near.sum(axis=1) > 1)
    tie_sets = tuple(tuple(np.flatnonzero(near[i]).tolist()) for i in tied)
    return ActivePattern(x.copy(), values.argmin(axis=1), near, tuple(tied.tolist()), tie_sets)


def restricted_newton_target(A, y, pattern):
    """One problem through the batched reg._newton_targets."""
    tied = pattern.near.sum(axis=1)[None] > 1
    near = pattern.near.T[:, tied[0]]
    x, sel = pattern.x[None], pattern.selectors[None]
    return reg._newton_targets(A.data[None], np.zeros(1, int), y[None], x, sel, tied, near)[0]


def newton_target(A, y, pattern):
    """Test-only reference: the unrestricted Newton target, which ignores ties.

    Coordinate k moves to the mean of (y_i - a_ik) over the rows selecting
    k; a coordinate selected by no row is frozen at its current value.
    """
    a = A.data
    n, d = a.shape
    sel = pattern.selectors
    counts = np.bincount(sel, minlength=d)
    sums = np.bincount(sel, weights=y - a[np.arange(n), sel], minlength=d)
    target = pattern.x.copy()
    hit = counts > 0
    target[hit] = sums[hit] / counts[hit]
    return target


def engine_selectors(values):
    """Selectors, tied-row mask and near table of a (d, p, n) table, by the
    engine's rule: a row is tied when two or more columns lie within
    TIE_TOL of its minimum."""
    near = values <= values.min(axis=0) + reg.TIE_TOL
    return values.argmin(axis=0), near.sum(axis=0) > 1, near


def batch_args(a, x, target):
    """One problem as the batched line search takes it: (d, 1, n) values,
    (1, d) slopes, and the selectors and tied-row mask of A + x."""
    values = (a + x).T[:, None, :]
    sel, tied, _ = engine_selectors(values)
    return values, (target - x)[None], sel, tied


def segment_events(a, x, target):
    """One problem through the batched reg._segment_events: (start, events)."""
    start, *events, _ = reg._segment_events(*batch_args(a, x, target))
    return start, list(zip(*(e.tolist() for e in events)))


def exact_line_search(a, y, x, target):
    """One problem through the batched reg._exact_line_search."""
    values, slopes, sel, tied = batch_args(a, x, target)
    return float(reg._exact_line_search(values, y[None], slopes, sel, tied)[0])


def grid_best_inf_residual(a, y, lo, hi, step):
    """Brute-force infinity-norm oracle over a square grid, d = 2 or 3."""
    d = a.shape[1]
    axes = [np.arange(lo, hi + step / 2, step) for _ in range(d)]
    best = INF
    best_points = []
    for point in np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d):
        r = np.abs(np.min(a + point[None, :], axis=1) - y).max()
        if r < best - 1e-12:
            best = r
            best_points = [point]
        elif r <= best + 1e-12:
            best_points.append(point)
    return best, np.array(best_points)


def test_principal_solution_example(regress_instance):
    a, y = regress_instance
    assert np.array_equal(principal_solution(TropicalMatrix(a), y), np.array([1.0, 1.0]))


def test_principal_solution_identity():
    y = np.array([3.0, -1.0, 0.5])
    assert np.array_equal(principal_solution(identity(3), y), y)


def test_principal_solution_all_inf_column():
    a = TropicalMatrix(np.array([[0.0, INF], [1.0, INF]]))
    with pytest.raises(UnboundedColumnError):
        principal_solution(a, np.array([0.0, 0.0]))


def test_principal_solution_is_least_feasible():
    rng = np.random.default_rng(20)
    for _ in range(30):
        a = rng.integers(-4, 9, size=(5, 4)).astype(float)
        a[rng.random(size=a.shape) < 0.2] = INF
        a[:, rng.integers(0, 4)] = rng.integers(-4, 9)  # keep columns bounded
        y = rng.integers(-5, 6, size=5).astype(float)
        ta = TropicalMatrix(a)
        xh = principal_solution(ta, y)
        assert (min_plus_apply(ta, xh) >= y - 1e-12).all()
        # decreasing any single coordinate breaks feasibility
        for j in range(4):
            if np.isinf(xh[j]):
                continue
            bumped = xh.copy()
            bumped[j] -= 1e-6
            assert (min_plus_apply(ta, bumped) < y - 1e-9).any()


def test_chebyshev_example(regress_instance):
    a, y = regress_instance
    out = chebyshev_regression(TropicalMatrix(a), y)
    assert np.allclose(out.solution, [0.5, 0.5])
    assert out.residual_norm == pytest.approx(0.5)
    assert out.norm_kind == "inf"
    assert out.converged and out.iterations == 0


def test_chebyshev_identity_fits_exactly():
    y = np.array([2.0, -3.0, 0.0])
    out = chebyshev_regression(identity(3), y)
    assert np.allclose(out.solution, y)
    assert out.residual_norm == 0.0


def test_chebyshev_single_equation():
    out = chebyshev_regression(TropicalMatrix([[3.0]]), np.array([7.0]))
    assert out.solution[0] == pytest.approx(4.0)
    assert out.residual_norm == 0.0


def test_chebyshev_rejects_all_inf_row():
    a = TropicalMatrix(np.array([[0.0, 1.0], [INF, INF]]))
    with pytest.raises(DomainError):
        chebyshev_regression(a, np.array([0.0, 0.0]))


def test_chebyshev_matches_grid_oracle_small():
    rng = np.random.default_rng(21)
    for _ in range(15):
        a = rng.integers(-2, 3, size=(3, 2)).astype(float)
        y = rng.integers(-2, 3, size=3).astype(float)
        out = chebyshev_regression(TropicalMatrix(a), y)
        lo = out.solution.min() - out.residual_norm - 1.0
        hi = out.solution.max() + 1.0
        best, points = grid_best_inf_residual(a, y, lo, hi, 0.25)
        assert out.residual_norm <= best + 1e-9
        assert best <= out.residual_norm + 0.125 + 1e-9  # 1-Lipschitz in x
        # componentwise infimum: no optimal grid point sits below the optimum
        assert (points >= out.solution[None, :] - 1e-9).all()


def test_min_plus_convexity_of_inf_residual():
    """Tropical convexity of the residual, over 1000 random tuples.

    Two verifiable forms. The signed upper residual u(x) =
    max_i((A(x)x)_i - y_i) satisfies u(min(lam+x, mu+z)) <=
    min(lam+u(x), mu+u(z)) outright. The absolute norm satisfies the
    sublevel form r(min(lam+x, mu+z)) <= max(lam+r(x), mu+r(z)) for
    lam, mu >= 0 with min(lam, mu) = 0, which is what makes the optimal
    set tropically convex.
    """
    rng = np.random.default_rng(22)
    for _ in range(1000):
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        a = rng.normal(size=(n, d)) * 3
        y = rng.normal(size=n) * 3
        x = rng.normal(size=d) * 3
        z = rng.normal(size=d) * 3
        lam, mu = float(rng.random() * 2), 0.0
        if rng.random() < 0.5:
            lam, mu = mu, lam
        ta = TropicalMatrix(a)

        def r(v):
            return np.abs(min_plus_apply(ta, v) - y).max()

        def upper(v):
            return (min_plus_apply(ta, v) - y).max()

        combined = np.minimum(lam + x, mu + z)
        assert upper(combined) <= min(lam + upper(x), mu + upper(z)) + 1e-9
        assert r(combined) <= max(lam + r(x), mu + r(z)) + 1e-9


def test_optimal_set_is_tropically_convex(regress_instance):
    # two optimal points for the example instance: the infimum [0.5, 0.5]
    # and a point of the optimal continuum further up the diagonal
    a, y = regress_instance
    ta = TropicalMatrix(a)

    def r(v):
        return np.abs(min_plus_apply(ta, v) - y).max()

    p = np.array([0.5, 0.5])
    q = np.array([0.5, 1.5])
    assert r(p) == pytest.approx(0.5) and r(q) == pytest.approx(0.5)
    rng = np.random.default_rng(122)
    for _ in range(50):
        lam, mu = float(rng.random()), 0.0
        if rng.random() < 0.5:
            lam, mu = mu, lam
        assert r(np.minimum(lam + p, mu + q)) <= 0.5 + 1e-12


def test_residual_sq_example(regress_instance):
    a, y = regress_instance
    assert residual_sq(TropicalMatrix(a), y, np.array([0.5, 0.5])) == pytest.approx(0.75)
    assert residual_sq(identity(3), np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])) == 0.0


def test_active_pattern_selectors_and_ties(regress_instance):
    a, y = regress_instance
    ta = TropicalMatrix(a)
    pat = active_pattern(ta, np.array([0.0, 0.0]))
    # row 0 evaluates to (0, 0): tied, smallest index selected
    assert pat.selectors[0] == 0
    assert 0 in pat.tied_rows
    assert any(set(s) == {0, 1} for s in pat.tie_sets)
    pat = active_pattern(ta, np.array([1.0, 1.0]))
    assert list(pat.selectors) == [0, 1, 0]
    assert 0 in pat.tied_rows  # row 0 ties at any equal coordinates


def test_newton_target_hand_value(regress_instance):
    a, y = regress_instance
    ta = TropicalMatrix(a)
    pat = active_pattern(ta, np.array([1.0, 1.0]))
    target = newton_target(ta, y, pat)
    # column 0 selected by rows 0 and 2: mean of (0-0, 1-0) = 0.5
    # column 1 selected by row 1 alone: 1 - 0 = 1.0
    assert np.allclose(target, [0.5, 1.0])


def test_newton_target_freezes_unselected_coordinates():
    a = TropicalMatrix(np.array([[0.0, 100.0]]))
    y = np.array([5.0])
    x = np.array([0.0, 0.0])
    pat = active_pattern(a, x)
    target = newton_target(a, y, pat)
    assert target[0] == pytest.approx(5.0)
    assert target[1] == 0.0  # never selected, frozen at x


def test_restricted_target_moves_tied_group_together(regress_instance):
    a, y = regress_instance
    ta = TropicalMatrix(a)
    x = np.array([0.0, 0.0])
    pat = active_pattern(ta, x)
    target = restricted_newton_target(ta, y, pat)
    # columns 0 and 1 are tied in row 0, so they move by one common step
    assert target[0] - x[0] == pytest.approx(target[1] - x[1])


def line_search_trials(rng, draw):
    """40 instances (a, y, x, target) with entries from draw(size), about 15%
    of a set to inf and column 0 kept finite, so every row is finite somewhere."""
    for _ in range(40):
        n, d = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        a = draw((n, d)) * 2
        a[rng.random(size=a.shape) < 0.15] = INF
        a[:, 0] = draw(n)
        y, x = draw(n) * 2, draw(d)
        yield a, y, x, x + draw(d)


def test_line_search_is_exact_against_dense_sampling():
    # normal reals never tie; small integers tie lines at lam = 0, cross
    # several lines at one lam and give parallel lines
    rng = np.random.default_rng(23)
    normal = line_search_trials(rng, lambda size: rng.normal(size=size))
    integer = line_search_trials(rng, lambda size: rng.integers(-2, 3, size=size).astype(float))
    grid = np.linspace(0.0, 1.0, 2001)
    for a, y, x, target in (*normal, *integer):
        lam = exact_line_search(a, y, x, target)
        found = residual_sq(TropicalMatrix(a), y, x + lam * (target - x))
        points = x + grid[:, None] * (target - x)  # residual_sq at every grid point at once
        sampled = ((np.min(a + points[:, None, :], axis=2) - y) ** 2).sum(axis=1).min()
        assert found <= sampled + 1e-9


def test_breakpoints_partition_selector_patterns():
    # between consecutive breakpoints the per-row argmin stays constant
    rng = np.random.default_rng(24)
    for _ in range(25):
        n, d = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a = rng.normal(size=(n, d)) * 2
        y = rng.normal(size=n)
        x = rng.normal(size=d)
        target = x + rng.normal(size=d)
        active, events = segment_events(a, x, target)
        cuts = [0.0] + sorted({lam for lam, _, _ in events}) + [1.0]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi - lo < 1e-12:
                continue
            mid = 0.5 * (lo + hi)
            vals = a + (x + mid * (target - x))[None, :]
            argmins = vals.argmin(axis=1)
            sel_vals = vals[np.arange(n), argmins]
            probes = [lo + (hi - lo) * f for f in (0.25, 0.75)]
            for lam in probes:
                v2 = a + (x + lam * (target - x))[None, :]
                # the winning value function is attained by the same column set
                assert np.allclose(
                    v2[np.arange(n), argmins], v2.min(axis=1), atol=1e-9
                )
        del active, sel_vals


def test_line_search_flat_optimum_reports_lam_one():
    # only the unselected column moves, so the residual is flat along the
    # whole segment: exact ties go to the larger lam, which ends the solve
    a = np.array([[0.0, 5.0], [1.0, 6.0]])
    y, x = np.array([0.0, 2.0]), np.zeros(2)
    assert exact_line_search(a, y, x, np.array([0.0, 1.0])) == 1.0
    values = (a + x).T[:, None, :].repeat(2, axis=1)  # the same row in a batch of two
    slopes = np.array([[0.0, 1.0], [0.5, 0.5]])
    sel, tied, _ = engine_selectors(values)
    lams = reg._exact_line_search(values, np.stack([y, y]), slopes, sel, tied)
    assert lams[0] == 1.0 and lams[1] == exact_line_search(a, y, x, x + slopes[1])


def test_line_search_descends(regress_instance):
    a, y = regress_instance
    out = newton_directed_line_search(TropicalMatrix(a), y)
    trace = np.array(out.residual_trace)
    assert (np.diff(trace) <= 1e-10).all()
    assert out.residual_norm <= np.sqrt(0.75) + 1e-12
    assert out.norm_kind == "2"


def test_line_search_identity_one_step():
    rng = np.random.default_rng(25)
    y = rng.normal(size=4)
    out = newton_directed_line_search(identity(4), y, x0=np.zeros(4))
    assert out.residual_norm == pytest.approx(0.0, abs=1e-12)
    assert out.iterations <= 2
    assert out.converged


def test_line_search_single_column_matches_grid():
    rng = np.random.default_rng(26)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        a = rng.integers(-3, 4, size=(n, 1)).astype(float)
        y = rng.integers(-3, 4, size=n).astype(float)
        ta = TropicalMatrix(a)
        out = newton_directed_line_search(ta, y)
        xs = np.arange(-8.0, 8.0, 1e-3)
        best = float((((a.T + xs[:, None]) - y) ** 2).sum(axis=1).min())  # residual_sq at every grid point
        assert out.residual_norm**2 <= best + 1e-5


def test_line_search_iteration_cap_reports_unconverged():
    rng = np.random.default_rng(27)
    a = rng.normal(size=(6, 3))
    y = rng.normal(size=6)
    cfg = RegressionConfig(max_iter=1, tol=0.0)
    out = newton_directed_line_search(TropicalMatrix(a), y, cfg=cfg)
    full = newton_directed_line_search(TropicalMatrix(a), y)
    if full.iterations > 1:
        assert not out.converged
    assert out.iterations == 1


def test_line_search_rejects_bad_inputs():
    a = TropicalMatrix(np.array([[INF, INF], [0.0, 1.0]]))
    with pytest.raises(DomainError):
        newton_directed_line_search(a, np.array([0.0, 0.0]))
    good = TropicalMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(DomainError):
        newton_directed_line_search(good, np.array([0.0, 0.0]), x0=np.array([0.0, INF]))


def test_length_mismatches_raise_shape_error():
    a = TropicalMatrix(np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 0.0]]))
    for solve in (chebyshev_regression, principal_solution, newton_directed_line_search):
        with pytest.raises(ShapeError, match="rhs length"):
            solve(a, np.zeros(2))
    with pytest.raises(ShapeError, match="x0 length"):
        newton_directed_line_search(a, np.zeros(3), x0=np.zeros(3))


# Loop references for the array code in regression.py: the per-row
# convex-hull stack, the per-event line-search sweep and the union-find
# tie grouping they replaced.


def ref_row_envelope(slopes, intercepts):
    order = np.lexsort((intercepts, -slopes))
    stack = []  # (segment start, line index)
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
    segments = []
    for idx, (lam, j) in enumerate(stack):
        end = stack[idx + 1][0] if idx + 1 < len(stack) else INF
        if end <= 0.0 or lam >= 1.0:
            continue
        segments.append((max(lam, 0.0), j))
    return segments


def ref_segment_events(a, x, target):
    n = a.shape[0]
    active = np.empty(n, dtype=int)
    events = []
    slopes_all = target - x
    for i in range(n):
        finite = np.where(np.isfinite(a[i]))[0]
        segments = ref_row_envelope(slopes_all[finite], a[i, finite] + x[finite])
        active[i] = finite[segments[0][1]]
        for lam, j in segments[1:]:
            events.append((lam, i, int(finite[j])))
    events.sort()
    return active, events


def ref_exact_line_search(a, y, x, target):
    n = a.shape[0]
    active, events = ref_segment_events(a, x, target)
    coeff_c = a[np.arange(n), active] + x[active] - y
    coeff_s = (target - x)[active]
    q2 = float(coeff_s @ coeff_s)
    q1 = float(coeff_s @ coeff_c)
    q0 = float(coeff_c @ coeff_c)
    best_val, best_lam = q0, 0.0

    def consider(lo, hi):
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


def ref_restricted_newton_target(a, y, pattern):
    n, d = a.shape
    parent = list(range(d))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for tie_set in pattern.tie_sets:
        root = find(tie_set[0])
        for k in tie_set[1:]:
            parent[find(k)] = root
    sel, x = pattern.selectors, pattern.x
    increment_sum, increment_cnt = {}, {}
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


def seeded_instances(seed, count):
    """Normal and integer regression instances, d = 1..6, with inf entries.

    Integer instances have integer x and target, so exact ties in
    intercepts, slopes and crossings are common.
    """
    rng = np.random.default_rng(seed)
    for k in range(count):
        n, d = int(rng.integers(1, 9)), 1 + k % 6
        if k % 2:
            a = rng.integers(-4, 5, size=(n, d)).astype(float)
            y = rng.integers(-4, 5, size=n).astype(float)
            x = rng.integers(-3, 4, size=d).astype(float)
            target = x + rng.integers(-3, 4, size=d)
        else:
            a = rng.normal(size=(n, d)) * 2
            y = rng.normal(size=n) * 2
            x = rng.normal(size=d)
            target = x + rng.normal(size=d)
        keep = rng.integers(0, d, size=n)
        a[(rng.random(size=a.shape) < 0.25) & (np.arange(d) != keep[:, None])] = INF
        yield a, y, x, target


def test_segment_events_match_hull_reference():
    for a, _, x, target in seeded_instances(30, 1200):
        active, events = segment_events(a, x, target)
        ref_active, ref_events = ref_segment_events(a, x, target)
        assert np.array_equal(active, ref_active)
        assert [tuple(e) for e in events] == ref_events


def test_line_search_matches_event_loop_reference():
    for a, y, x, target in seeded_instances(31, 1200):
        ta = TropicalMatrix(a)
        lam = exact_line_search(a, y, x, target)
        ref_lam = ref_exact_line_search(a, y, x, target)
        assert 0.0 <= lam <= 1.0
        found = residual_sq(ta, y, x + lam * (target - x))
        expected = residual_sq(ta, y, x + ref_lam * (target - x))
        # exact fits end near zero, where a one-ulp move of lam is all that differs
        floor = 1e-12 * residual_sq(ta, y, x)
        assert found == pytest.approx(expected, rel=1e-12, abs=floor)


def test_restricted_target_matches_union_find_reference():
    tied = 0
    for a, y, x, _ in seeded_instances(32, 1200):
        ta = TropicalMatrix(a)
        pattern = active_pattern(ta, x)
        if pattern.tied_rows:
            tied += 1
            expected = ref_restricted_newton_target(a, y, pattern)
            assert np.array_equal(restricted_newton_target(ta, y, pattern), expected)
    assert tied > 200


def test_restricted_target_merges_transitive_tie_chain():
    # row 0 ties columns {0, 1} and row 1 ties {1, 2}: all three columns
    # form one group and move by one common increment; column 3 moves alone
    a = np.array([[0.0, 0.0, 9.0, 9.0], [9.0, 0.0, 0.0, 9.0], [9.0, 9.0, 1.0, 9.0], [9.0, 9.0, 9.0, 0.0]])
    y = np.array([1.0, 2.0, 6.0, 5.0])
    x = np.zeros(4)
    ta = TropicalMatrix(a)
    pattern = active_pattern(ta, x)
    assert pattern.tie_sets == ((0, 1), (1, 2))
    target = restricted_newton_target(ta, y, pattern)
    # rows 0, 1 and 2 select columns 0, 1 and 2: increments 1, 2 and 5
    assert np.array_equal(target, [8 / 3, 8 / 3, 8 / 3, 5.0])


def walk_instances(seed, count):
    """Many-problem (values, slopes) tables for the envelope walk.

    Integer tables have exact intercept ties at lam = 0 between lines of
    different slopes and crossings at exactly lam = 1. In tables near 1e6
    every row's lines meet within a few ulps of one point at lam = 1, so
    rounding decides which rows move, and a row can move although its lines'
    values at lam = 1 round to the same number. Some rows start on their
    flattest line, and a quarter of the entries are inf (each row keeps one
    finite line).
    """
    rng = np.random.default_rng(seed)
    for k in range(count):
        n, d, p = int(rng.integers(1, 9)), int(rng.integers(1, 7)), int(rng.integers(1, 13))
        if k % 3 == 0:
            values = rng.integers(-4, 5, size=(d, p, n)).astype(float)
            slopes = rng.integers(-3, 4, size=(p, d)).astype(float)
        elif k % 3 == 1:
            values = rng.normal(size=(d, p, n)) * 2
            slopes = rng.normal(size=(p, d))
        else:
            slopes = 1e6 * rng.normal(size=(p, d))
            values = (1e6 + rng.normal(size=(1, p, n))) - slopes.T[:, :, None]
            values += rng.integers(-2, 3, size=values.shape) * np.spacing(values)
        keep = rng.integers(0, d, size=(p, n))
        k_, i_ = np.nonzero(rng.random(size=(p, n)) < 0.2)  # these rows start on their flattest line
        keep[k_, i_] = slopes.argmin(axis=1)[k_]
        values[keep[k_, i_], k_, i_] = values.min(axis=0)[k_, i_] - 1.0
        values[(rng.random(size=values.shape) < 0.25) & (np.arange(d)[:, None, None] != keep)] = INF
        yield values, slopes


def test_event_walk_matches_full_table_walk():
    # the walk over rows that can move returns the full-table walk's start
    # columns, events and left columns byte for byte. Coverage: rows that
    # move although no other line is strictly below their start line at
    # lam = 1, and tied rows whose flattest exact start is not the selector
    level_rows = flat_starts = 0
    for values, slopes in walk_instances(50, 900):
        sel, tied, _ = engine_selectors(values)
        got = reg._segment_events(values, slopes, sel, tied)
        want = full_table_segment_events(values, slopes)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        at_one = (values + slopes.T[:, :, None]).reshape(values.shape[0], -1)
        rows = np.arange(at_one.shape[1])
        start_at_one = at_one[want[0], rows]
        at_one[want[0], rows] = INF
        moved = np.unique(want[2])
        level_rows += int((at_one[:, moved].min(axis=0) == start_at_one[moved]).sum())
        flat_starts += int((want[0] != sel.ravel()).sum())
    assert level_rows > 20 and flat_starts > 100


def test_newton_targets_match_full_table_labels():
    # tie labels spread over tied rows alone give the full-table targets
    # byte for byte: a chain of ties across rows, problems with no tied
    # row, and a problem in which every row is tied
    rng = np.random.default_rng(51)
    chain = np.array([[0.0, 0.0, 9, 9, 9], [9, 0, 0, 9, 9], [9, 9, 0, 0, 9], [9, 9, 9, 1, 9], [9, 9, 9, 9, 0]])
    chain_x = np.zeros((4, 5))
    chain_x[1, 2] = chain_x[2, 0] = 0.5  # these problems break the chain at one link
    twin = rng.integers(0, 5, size=(6, 4)).astype(float)
    twin[:, 1] = twin[:, 0] = twin.min(axis=1) - 1.0  # columns 0 and 1 tie in every row
    cases = [
        (chain, chain_x),
        (rng.normal(size=(7, 4)), rng.normal(size=(5, 4))),
        (twin, np.vstack([np.zeros(4), rng.normal(size=(3, 4))])),
    ]
    for _ in range(40):
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        a = rng.integers(-3, 4, size=(n, d)).astype(float)
        a[(rng.random(size=a.shape) < 0.25) & (np.arange(d) != rng.integers(0, d, size=n)[:, None])] = INF
        cases.append((a, rng.integers(-2, 3, size=(int(rng.integers(1, 9)), d)).astype(float)))
    tied_counts = []
    for a, X in cases:
        Y = rng.integers(-4, 5, size=(X.shape[0], a.shape[0])).astype(float)
        sel, tied, near = engine_selectors(a.T[:, None, :] + X.T[:, :, None])
        got = reg._newton_targets(a[None], np.zeros(len(X), int), Y, X, sel, tied, near[:, tied])
        assert got.tobytes() == full_table_newton_targets(a, Y, X, sel, near).tobytes()
        tied_counts.append(tied.sum(axis=1))
    assert tied_counts[0].tolist() == [3, 1, 2, 3]  # whole chains, and chains broken at one link
    assert not tied_counts[1].any()
    assert tied_counts[2][0] == 6 and not tied_counts[2][1:].any()
    assert sum(int(c.sum()) for c in tied_counts[3:]) > 50


def ref_newton_loop(a, y, x, cfg):
    """The one-problem iteration the batched engine replaced, from public pieces."""
    ta = TropicalMatrix(a)
    trace = [float(np.sqrt(residual_sq(ta, y, x)))]
    converged, iterations = False, 0
    for _ in range(cfg.max_iter):
        target = restricted_newton_target(ta, y, active_pattern(ta, x))
        if float(np.max(np.abs(target - x))) == 0.0:
            converged = True  # stationary
            break
        lam = exact_line_search(a, y, x, target)
        x = x + lam * (target - x)
        iterations += 1
        trace.append(float(np.sqrt(residual_sq(ta, y, x))))
        if lam == 1.0 or trace[-2] - trace[-1] < cfg.tol * max(trace[-2], 1.0):
            converged = True
            break
    return x, iterations, converged, tuple(trace)


@pytest.mark.parametrize("block", [None, 64])
def test_newton_batch_matches_one_problem_path(block, monkeypatch):
    # p problems in one batch take exactly the steps each takes alone: the
    # same solutions bit for bit, iterations, converged flags and traces.
    # max_iter = 1 and tol = 1e-3 mix stop reasons within a batch, and a
    # block budget of 64 entries splits every batch into several blocks.
    if block is not None:
        monkeypatch.setattr(reg, "BATCH_ELEMENTS", block)
    rng = np.random.default_rng(41)
    mixed = 0
    for trial in range(30):
        n, d, p = int(rng.integers(1, 9)), 1 + trial % 6, int(rng.integers(1, 41))
        if trial % 2:
            a = rng.integers(-4, 5, size=(n, d)).astype(float)
            Y = rng.integers(-4, 5, size=(p, n)).astype(float)
            X0 = rng.integers(-3, 4, size=(p, d)).astype(float)
        else:
            a = rng.normal(size=(n, d)) * 2
            Y = rng.normal(size=(p, n)) * 2
            X0 = rng.normal(size=(p, d))
        keep = rng.integers(0, d, size=n)
        a[(rng.random(size=a.shape) < 0.25) & (np.arange(d) != keep[:, None])] = INF
        cfg = RegressionConfig(max_iter=(1, 2, 500)[trial % 3], tol=float(rng.choice([0.0, 1e-10, 1e-3])))
        X, converged, traces = reg._newton_batch(a, Y, X0, cfg)
        iterations = np.array([len(trace) - 1 for trace in traces])
        for k in range(p):
            one = newton_directed_line_search(TropicalMatrix(a), Y[k], x0=X0[k], cfg=cfg)
            assert X[k].tobytes() == one.solution.tobytes()
            assert (iterations[k], converged[k]) == (one.iterations, one.converged)
            assert tuple(traces[k]) == one.residual_trace
            if k < 2:
                x, its, conv, trace = ref_newton_loop(a, Y[k], X0[k], cfg)
                assert x.tobytes() == one.solution.tobytes()
                assert (its, conv, trace) == (one.iterations, one.converged, one.residual_trace)
        mixed += len(set(zip(iterations.tolist(), converged.tolist()))) > 1
    assert mixed >= 15


@pytest.mark.parametrize("block", [None, 64])
def test_newton_batch_design_stack_matches_one_problem_path(block, monkeypatch):
    # problems against a stack of 2 or 3 designs of one shape, each design with
    # its own right-hand sides (some passed as transposed views), take exactly
    # their one-problem steps; a budget of 64 entries makes blocks straddle designs
    if block is not None:
        monkeypatch.setattr(reg, "BATCH_ELEMENTS", block)
    rng = np.random.default_rng(43)
    straddled = 0
    for trial in range(24):
        g, n, d = 2 + trial % 2, int(rng.integers(1, 9)), 1 + trial % 5
        sizes = rng.integers(0, 21, size=g)
        if trial % 2:  # integer ties
            a = rng.integers(-4, 5, size=(g, n, d)).astype(float)
            Ys = [rng.integers(-4, 5, size=(n, p)).astype(float).T for p in sizes]
            X0 = rng.integers(-3, 4, size=(sizes.sum(), d)).astype(float)
        else:
            a = rng.normal(size=(g, n, d)) * 2
            Ys = [rng.normal(size=(p, n)) * 2 for p in sizes]
            X0 = rng.normal(size=(sizes.sum(), d))
        keep = rng.integers(0, d, size=(g, n))
        a[(rng.random(size=a.shape) < 0.25) & (np.arange(d) != keep[..., None])] = INF
        cfg = RegressionConfig(max_iter=(1, 2, 500)[trial % 3], tol=float(rng.choice([0.0, 1e-10, 1e-3])))
        X, converged, traces = reg._newton_batch(a, tuple(Ys), X0, cfg)
        iterations = np.array([len(trace) - 1 for trace in traces])
        offsets = np.cumsum([0, *sizes])
        for j in range(g):
            for k in range(sizes[j]):
                at = offsets[j] + k
                one = newton_directed_line_search(TropicalMatrix(a[j]), Ys[j][k], x0=X0[at], cfg=cfg)
                assert X[at].tobytes() == one.solution.tobytes()
                assert (iterations[at], converged[at]) == (one.iterations, one.converged)
                assert tuple(traces[at]) == one.residual_trace
        step = max(1, max(reg.BATCH_ELEMENTS, n * sizes.max()) // (n * d))
        straddled += any(0 < off < offsets[-1] and off % step for off in offsets[1:-1].tolist())
    assert straddled >= 15  # trials with a block holding problems of two designs


def test_line_search_default_start_is_chebyshev_solution():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n, d = int(rng.integers(1, 8)), int(rng.integers(1, 5))
        a = rng.normal(size=(n, d)) * 2
        y = rng.normal(size=n) * 2
        ta = TropicalMatrix(a)
        start = chebyshev_regression(ta, y).solution
        auto = newton_directed_line_search(ta, y)
        given = newton_directed_line_search(ta, y, x0=start)
        assert auto.solution.tobytes() == given.solution.tobytes()
        assert auto.residual_trace == given.residual_trace
    unbounded = TropicalMatrix(np.array([[0.0, INF], [1.0, INF]]))
    with pytest.raises(UnboundedColumnError):
        newton_directed_line_search(unbounded, np.array([0.0, 0.0]))
