"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Each test prints a single PASS line with the measured values once its
assertions hold; a pytest failure on any test is the corresponding FAIL.
"""

import itertools
import json
import time

import numpy as np
import pytest

from minplus import (
    INF,
    NegativeCycleError,
    SymFactorConfig,
    TropicalMatrix,
    actual_waypoint,
    chebyshev_regression,
    is_idempotent,
    jacobi_map,
    kleene_star,
    mp_multiply,
    mp_power,
    newton_directed_line_search,
    nnmf,
    principal_solution,
    read_matrix_csv,
    residual_of_given_factor,
    sym_factorize,
)
from minplus.cli import main

from conftest import (
    EXAMPLE_D,
    EXAMPLE_EDGES,
    EXAMPLE_F,
    EXAMPLE_WAYPOINT_PRODUCT,
    REGRESS_A,
    REGRESS_Y,
    random_nonneg_graph_matrix,
)
from oracles import oracle_min_path_fixed_length, truncated_series


def grid_residuals(a, y, axes):
    """Infinity-norm residual at every grid point; returns (points, values)."""
    d = a.shape[1]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    finite = np.where(np.isinf(a), np.nan, a)
    vals = np.nanmin(finite[None, :, :] + points[:, None, :], axis=2)
    return points, np.abs(vals - y[None, :]).max(axis=1)


def test_criterion_1_shortest_path_fixture(tmp_path):
    src = tmp_path / "example.edges"
    src.write_text(EXAMPLE_EDGES)
    started = time.perf_counter()
    rc = main(["spd", "--input", str(src), "--out-dir", str(tmp_path)])
    elapsed = time.perf_counter() - started
    assert rc == 0
    got = read_matrix_csv((tmp_path / "spd.csv").read_text()).data
    assert np.array_equal(got, EXAMPLE_D)  # integer entries, zero tolerance
    assert elapsed < 1.0
    print(f"PASS criterion 1: spd reproduces the reference distance matrix exactly in {elapsed:.3f}s")


def test_criterion_2_actual_waypoint_fixture():
    pair = actual_waypoint(EXAMPLE_D, [2, 3])  # nodes 3 and 4, 1-based
    product = mp_multiply(pair.left, pair.right).data
    assert np.array_equal(product, EXAMPLE_WAYPOINT_PRODUCT)
    assert pair.residual == pytest.approx(9.5917, abs=1e-3)
    assert pair.residual == pytest.approx(np.sqrt(92.0), abs=1e-12)
    print(f"PASS criterion 2: waypoints {{3,4}} give the printed product, residual {pair.residual:.4f}")


def test_criterion_3_given_factor_fixture():
    r = residual_of_given_factor(EXAMPLE_D, EXAMPLE_F)
    assert r == pytest.approx(4.5680, abs=1e-3)
    print(f"PASS criterion 3: reference rank-2 factor residual {r:.4f} within 1e-3 of 4.5680")


def test_criterion_4_sym_factorization_end_to_end():
    cfg = SymFactorConfig(
        rank=2, jacobi_steps=5, shoot=0.5, max_iter=100, restarts=100, seed=0
    )
    started = time.perf_counter()
    pair = sym_factorize(EXAMPLE_D, cfg)
    elapsed = time.perf_counter() - started
    assert pair.residual <= 4.62
    assert elapsed < 30.0
    assert pair.residual == pytest.approx(
        residual_of_given_factor(EXAMPLE_D, pair.left.data)
    )
    print(
        f"PASS criterion 4: rank-2 factorization residual {pair.residual:.4f} <= 4.62 "
        f"(100 restarts x 100 iterations in {elapsed:.2f}s)"
    )


def test_criterion_5_chebyshev_matches_grid_oracle():
    ta = TropicalMatrix(REGRESS_A)
    out = chebyshev_regression(ta, REGRESS_Y)
    assert np.allclose(out.solution, [0.5, 0.5])
    assert out.residual_norm == pytest.approx(0.5)

    step = 0.01
    axes = [np.arange(-2.0, 2.0 + step / 2, step)] * 2
    points, vals = grid_residuals(REGRESS_A, REGRESS_Y, axes)
    grid_min = vals.min()
    assert out.residual_norm <= grid_min + 1e-9
    assert grid_min <= out.residual_norm + step / 2 + 1e-9
    optimal = points[vals <= grid_min + 1e-9]
    assert (optimal >= out.solution[None, :] - step - 1e-9).all()

    rng = np.random.default_rng(100)
    checked = 0
    for _ in range(50):
        a = rng.integers(0, 5, size=(4, 3)).astype(float)
        y = rng.integers(0, 5, size=4).astype(float)
        res = chebyshev_regression(TropicalMatrix(a), y)
        xh = principal_solution(TropicalMatrix(a), y)
        delta = 0.25
        lo = np.floor(res.solution.min() - res.residual_norm - 0.5)
        hi = np.ceil(xh.max() + 0.5)
        axes = [np.arange(lo, hi + delta / 2, delta)] * 3
        points, vals = grid_residuals(a, y, axes)
        grid_min = vals.min()
        # integer data puts the true optimum on this grid exactly
        assert res.residual_norm <= grid_min + 1e-9
        assert grid_min <= res.residual_norm + 1e-9
        optimal = points[vals <= grid_min + 1e-9]
        assert (optimal >= res.solution[None, :] - delta - 1e-9).all()
        checked += 1
    print(
        "PASS criterion 5: closed-form regression matches the grid oracle on the "
        f"reference instance and {checked} random integer instances"
    )


def enumerate_negative_cycle(a):
    """Exhaustive simple-cycle sign check for small signed matrices."""
    n = a.shape[0]
    for length in range(1, n + 1):
        for cycle in itertools.permutations(range(n), length):
            if cycle[0] != min(cycle):
                continue  # canonical rotation only
            loop = list(cycle) + [cycle[0]]
            weight = 0.0
            ok = True
            for u, v in zip(loop[:-1], loop[1:]):
                if np.isinf(a[u, v]):
                    ok = False
                    break
                weight += a[u, v]
            if ok and weight < 0:
                return True
    return False


def test_criterion_6_walk_and_closure_identities():
    rng = np.random.default_rng(101)
    failures = 0
    graphs = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = TropicalMatrix(random_nonneg_graph_matrix(rng, n))
        b = TropicalMatrix(random_nonneg_graph_matrix(rng, n))
        # fixed-length walk weights equal matrix powers
        for ell in range(0, 5):
            p = mp_power(a, ell).data
            for i in range(n):
                for j in range(n):
                    if p[i, j] != oracle_min_path_fixed_length(a, i, j, ell):
                        failures += 1
        # two-hop oracles for the gram product and a general product
        gram = mp_multiply(a, a.transpose()).data
        prod = mp_multiply(a, b).data
        ad, bd = a.data, b.data
        for i in range(n):
            for j in range(n):
                if gram[i, j] != min(ad[i, k] + ad[j, k] for k in range(n)):
                    failures += 1
                if prod[i, j] != min(ad[i, k] + bd[k, j] for k in range(n)):
                    failures += 1
        # closure is idempotent and stabilizes at power n-1
        star = kleene_star(a)
        if not is_idempotent(TropicalMatrix(star.data)):  # an unmarked copy, so the product runs
            failures += 1
        if not np.array_equal(star.data, truncated_series(a, max(n - 1, 1)).data):
            failures += 1
        graphs += 1
    # convergence versus divergence tracks the sign of the worst cycle
    signed = 0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        a = rng.integers(-3, 7, size=(n, n)).astype(float)
        a[rng.random(size=(n, n)) < 0.3] = INF
        has_negative = enumerate_negative_cycle(a)
        try:
            star = kleene_star(TropicalMatrix(a))
            diverged = False
        except NegativeCycleError:
            diverged = True
        if diverged != has_negative:
            failures += 1
        if not diverged:
            series = truncated_series(TropicalMatrix(a), max(n - 1, 1))
            if not np.array_equal(star.data, series.data):
                failures += 1
        signed += 1
    assert failures == 0
    print(
        f"PASS criterion 6: walk, product, and closure identities verified on "
        f"{graphs} random graphs and {signed} signed matrices with 0 failures"
    )


def test_criterion_7_descent_properties():
    rng = np.random.default_rng(102)
    worst = 0.0
    instances = 0
    for _ in range(100):
        n, d = int(rng.integers(2, 7)), int(rng.integers(1, 6))
        a = rng.normal(size=(n, d)) * 3
        a[rng.random(size=(n, d)) < 0.15] = INF
        a[:, 0] = rng.normal(size=n)
        y = rng.normal(size=n) * 3
        out = newton_directed_line_search(TropicalMatrix(a), y)
        trace = np.array(out.residual_trace)
        if trace.size > 1:
            worst = max(worst, float(np.diff(trace).max()))
        instances += 1
    assert worst <= 1e-10

    sym_worst = 0.0
    for seed in range(5):
        cfg = SymFactorConfig(rank=2, restarts=3, max_iter=40, seed=seed)
        pair = sym_factorize(EXAMPLE_D, cfg)
        diffs = np.diff(np.array(pair.iteration_trace))
        if diffs.size:
            sym_worst = max(sym_worst, float(diffs.max()))
    assert sym_worst <= 1e-10

    nnmf_worst = 0.0
    for seed in range(5):
        m = np.abs(rng.normal(size=(6, 5)))
        res = nnmf(m, 2, iters=300, seed=seed)
        nnmf_worst = max(nnmf_worst, float(np.diff(np.array(res.residual_trace)).max()))
    assert nnmf_worst <= 1e-10
    print(
        f"PASS criterion 7: descent holds on {instances} regressions "
        f"(worst step {worst:.2e}), 5 factorizations, 5 NNMF runs"
    )


def random_connected_distance_matrix(rng, n):
    a = np.full((n, n), INF)
    np.fill_diagonal(a, 0.0)
    order = rng.permutation(n)
    for prev, node in zip(order[:-1], order[1:]):  # random spanning tree
        w = float(rng.integers(1, 7))
        a[prev, node] = a[node, prev] = w
    for _ in range(n):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            w = float(rng.integers(1, 7))
            a[i, j] = a[j, i] = min(a[i, j], w)
    return kleene_star(TropicalMatrix(a)).data


def test_criterion_8_jacobi_agrees_with_normal_equations():
    rng = np.random.default_rng(103)
    agreements = []
    for _ in range(20):
        d = random_connected_distance_matrix(rng, 4)
        f = np.abs(rng.normal(size=(4, 2))) * 3 + 0.1
        sel = (f[:, None, :] + f[None, :, :]).argmin(axis=2)

        fp = f.copy()
        converged = False
        for _ in range(10**4):
            new = jacobi_map(d, f, fp).data
            if np.abs(new - fp).max() < 1e-8:
                fp = new
                converged = True
                break
            fp = new
        assert converged

        # direct least-squares solve of the frozen quadratic over all
        # ordered pairs; variables are the 8 entries of F'
        rows = []
        rhs = []
        for i in range(4):
            for j in range(4):
                k = sel[i, j]
                coeff = np.zeros(8)
                coeff[i * 2 + k] += 1.0
                coeff[j * 2 + k] += 1.0
                rows.append(coeff)
                rhs.append(d[i, j])
        design = np.array(rows)
        solution = np.linalg.lstsq(design, np.array(rhs), rcond=None)[0].reshape(4, 2)
        constrained = design.any(axis=0).reshape(4, 2)
        gap = np.abs(np.where(constrained, solution - fp, 0.0)).max()
        agreements.append(gap)
        assert gap < 1e-6
    print(
        f"PASS criterion 8: iterated Jacobi matches the normal-equations solve on "
        f"20 instances (worst gap {max(agreements):.2e})"
    )


def test_criterion_9_large_graph_residual_curves(tmp_path):
    rng = np.random.default_rng(104)
    n = 62
    order = rng.permutation(n)
    edges = {(min(u, v), max(u, v)) for u, v in zip(order[:-1], order[1:])}
    while len(edges) < 140:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    text = "".join(f"{u} {v} 1\n" for u, v in sorted(edges))
    src = tmp_path / "surrogate62.edges"
    src.write_text(text)

    started = time.perf_counter()
    rc = main(
        [
            "residual-curve", "--input", str(src), "--method", "minplus-sym",
            "--restarts", "2", "--max-iter", "25", "--out-dir", str(tmp_path),
            "--out", "sym_curve.csv",
        ]
    )
    assert rc == 0
    rc = main(
        [
            "residual-curve", "--input", str(src), "--method", "svd",
            "--out-dir", str(tmp_path), "--out", "svd_curve.csv",
        ]
    )
    assert rc == 0
    elapsed = time.perf_counter() - started

    rows = (tmp_path / "sym_curve.csv").read_text().strip().splitlines()[1:]
    values = [float(r.split(",")[1]) for r in rows]
    assert len(values) == n
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == 0.0
    svd_rows = (tmp_path / "svd_curve.csv").read_text().strip().splitlines()[1:]
    svd_values = [float(r.split(",")[1]) for r in svd_rows]
    assert abs(svd_values[-1]) < 1e-10
    assert elapsed < 300.0
    print(
        f"PASS criterion 9: 62-node curves computed in {elapsed:.1f}s, min-plus curve "
        f"non-increasing with rank-62 residual 0, svd curve 0 at full rank"
    )
