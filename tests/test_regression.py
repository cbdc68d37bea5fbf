"""Min-plus regression: principal solution, Chebyshev optimum, line search."""

import numpy as np
import pytest

from minplus import (
    INF,
    DomainError,
    RegressionConfig,
    TropicalMatrix,
    UnboundedColumnError,
    active_pattern,
    chebyshev_regression,
    identity,
    min_plus_apply,
    newton_directed_line_search,
    newton_target,
    principal_solution,
    restricted_newton_target,
)
from minplus import regression as reg


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
    assert reg.residual_sq(TropicalMatrix(a), y, np.array([0.5, 0.5])) == pytest.approx(0.75)
    assert reg.residual_sq(identity(3), np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])) == 0.0


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


def test_line_search_is_exact_against_dense_sampling():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n, d = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        a = rng.normal(size=(n, d)) * 2
        a[rng.random(size=a.shape) < 0.15] = INF
        a[:, 0] = rng.normal(size=n)  # keep every row finite somewhere
        y = rng.normal(size=n) * 2
        x = rng.normal(size=d)
        target = x + rng.normal(size=d)
        ta = TropicalMatrix(a)
        lam = reg._exact_line_search(a, y, x, target)
        found = reg.residual_sq(ta, y, x + lam * (target - x))
        grid = np.linspace(0.0, 1.0, 2001)
        sampled = min(reg.residual_sq(ta, y, x + t * (target - x)) for t in grid)
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
        active, events = reg._segment_events(a, x, target)
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
        best = min(reg.residual_sq(ta, y, np.array([v])) for v in xs)
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
        active, events = reg._segment_events(a, x, target)
        ref_active, ref_events = ref_segment_events(a, x, target)
        assert np.array_equal(active, ref_active)
        assert [tuple(e) for e in events] == ref_events


def test_line_search_matches_event_loop_reference():
    for a, y, x, target in seeded_instances(31, 1200):
        ta = TropicalMatrix(a)
        lam = reg._exact_line_search(a, y, x, target)
        ref_lam = ref_exact_line_search(a, y, x, target)
        assert 0.0 <= lam <= 1.0
        found = reg.residual_sq(ta, y, x + lam * (target - x))
        expected = reg.residual_sq(ta, y, x + ref_lam * (target - x))
        # exact fits end near zero, where a one-ulp move of lam is all that differs
        floor = 1e-12 * reg.residual_sq(ta, y, x)
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
