"""Output checks computed apart from the program under test.

Nothing here imports minplus. Distances come from the benchmark's own
Dijkstra over its own parse of the edge file, products from its own
min-plus product, and singular values from numpy's LAPACK SVD. Each check
returns a list of problems (empty when the output is right) and the
operation's relative Frobenius residual.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

INF = np.inf
# Relative rise of a residual trace still taken as rounding, not as an increase.
TRACE_ROUNDING = 1e-12


def parse_edges(text: str) -> tuple[list[str], np.ndarray]:
    """Labels in first-appearance order and the symmetric one-hop matrix.

    Follows the documented edge-list format: `u v [w]` per line, `#`
    comments, default weight 1, repeated edges keep the smaller weight.
    """
    index: dict[str, int] = {}
    triples = []
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        u, v = (index.setdefault(t, len(index)) for t in tokens[:2])
        triples.append((u, v, float(tokens[2]) if len(tokens) > 2 else 1.0))
    n = len(index)
    w = np.full((n, n), INF)
    np.fill_diagonal(w, 0.0)
    for u, v, weight in triples:
        if u != v and weight < w[u, v]:
            w[u, v] = w[v, u] = weight
    return list(index), w


def dijkstra_all(w: np.ndarray) -> np.ndarray:
    """All-pairs distances by Dijkstra, run for every source at once.

    Step k settles, for each source, its nearest unsettled node and relaxes
    that node's out-edges. Exact for non-negative weights.
    """
    n = w.shape[0]
    rows = np.arange(n)
    dist = np.full((n, n), INF)
    dist[rows, rows] = 0.0
    settled = np.zeros((n, n), dtype=bool)
    for _ in range(n):
        u = np.where(settled, INF, dist).argmin(axis=1)
        settled[rows, u] = True
        dist = np.minimum(dist, dist[rows, u][:, None] + w[u, :])
    return dist


def minplus_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a (x) b)_ij = min_k a_ik + b_kj, one inner index at a time."""
    out = np.full((a.shape[0], b.shape[1]), INF)
    for k in range(a.shape[1]):
        np.minimum(out, a[:, k][:, None] + b[k, :][None, :], out=out)
    return out


def read_csv(path: Path) -> np.ndarray:
    rows = [[float(t) for t in line.split(",")] for line in path.read_text().splitlines() if line]
    return np.array(rows, dtype=float)


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def frobenius(x: np.ndarray) -> float:
    return float(np.sqrt(np.sum(x * x)))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_sym_curve(curve_csv: Path, max_rank: int) -> tuple[list[str], float]:
    """The curve covers ranks 1..max_rank, is finite, in [0, 1] and non-increasing."""
    lines = curve_csv.read_text().splitlines()
    if not lines or lines[0] != "rank,relative_residual":
        return ["curve header missing"], float("nan")
    rows = [line.split(",") for line in lines[1:]]
    ranks = [int(r[0]) for r in rows]
    values = np.array([float(r[1]) for r in rows])
    problems = []
    if ranks != list(range(1, max_rank + 1)):
        problems.append(f"curve ranks {ranks} are not 1..{max_rank}")
    if not np.isfinite(values).all():
        problems.append("curve has non-finite values")
    elif ((values < 0) | (values > 1)).any():
        problems.append("relative residual outside [0, 1]")
    if (np.diff(values) > 1e-12).any():
        problems.append("curve increases with rank")
    return problems, float(values.mean()) if len(values) else float("nan")


def check_general_factor(edges: Path, out: Path, rank: int) -> tuple[list[str], float]:
    """Factors have the requested rank; the reported residual equals
    ||D - A (x) B||_F and does not exceed its start."""
    labels, w = parse_edges(edges.read_text())
    d = dijkstra_all(w)
    n = d.shape[0]
    record = read_json(out / "factors.json")
    a, b = read_csv(out / "factors_left.csv"), read_csv(out / "factors_right.csv")
    problems = []
    if record["labels"] != labels:
        problems.append("factor labels differ from the edge file's node order")
    if record["rank"] != rank:
        problems.append(f"reported rank {record['rank']!r} is not {rank}")
    if a.shape != (n, rank) or b.shape != (rank, n):
        return problems + [f"factor shapes {a.shape} x {b.shape} are not ({n}, {rank}) x ({rank}, {n})"], float("nan")
    if not (np.array_equal(a, np.array(record["left"])) and np.array_equal(b, np.array(record["right"]))):
        problems.append("factor CSVs differ from factors.json")
    residual = frobenius(d - minplus_product(a, b))
    reported = float(record["residual"])
    if not _close(reported, residual, 1e-9):
        problems.append(f"reported residual {reported!r} but ||D - A(x)B||_F = {residual!r}")
    if reported > float(record["residual_trace"][0]):
        problems.append("residual exceeds the first entry of residual_trace")
    return problems, reported / frobenius(d)


def check_spd(edges: Path, spd_csv: Path) -> tuple[list[str], np.ndarray]:
    """The shortest-path CSV equals the benchmark's own Dijkstra exactly."""
    _, w = parse_edges(edges.read_text())
    d = dijkstra_all(w)
    got = read_csv(spd_csv)
    if got.shape != d.shape or not np.array_equal(got, d):
        return ["spd output differs from Dijkstra distances"], d
    return [], d


def check_actual_waypoints(d: np.ndarray, out: Path, rank: int) -> tuple[list[str], float]:
    """Left factor is D(:,W); the product dominates D and is exact on W."""
    record = read_json(out / "factors.json")
    left, right = read_csv(out / "factors_left.csv"), read_csv(out / "factors_right.csv")
    waypoints = [int(v) - 1 for v in record["waypoints"]]
    problems = []
    n = d.shape[0]
    if len(set(waypoints)) != rank or not all(0 <= v < n for v in waypoints):
        return [f"waypoints {record['waypoints']} are not {rank} distinct nodes"], float("nan")
    if left.shape != (n, rank):
        return [f"left factor shape {left.shape} is not ({n}, {rank})"], float("nan")
    if not np.array_equal(left, d[:, waypoints]):
        problems.append("left factor differs from D(:,W)")
    if right.shape != (rank, n) or not np.array_equal(right, left.T):
        return problems + ["right factor is not the transpose of the left factor"], float("nan")
    product = minplus_product(left, right)
    if (product < d).any():
        problems.append("waypoint product undercuts D")
    if not (np.array_equal(product[waypoints, :], d[waypoints, :])
            and np.array_equal(product[:, waypoints], d[:, waypoints])):
        problems.append("waypoint product is not exact on W's rows and columns")
    residual = frobenius(d - product)
    reported = float(record["residual"])
    if not _close(reported, residual, 1e-9):
        problems.append(f"reported residual {reported!r} but ||D - P||_F = {residual!r}")
    return problems, reported / frobenius(d)


def check_svd(edges: Path, out: Path, rank: int) -> tuple[list[str], float]:
    """Residual matches LAPACK's dropped singular values; the result has rank <= rank."""
    _, w = parse_edges(edges.read_text())
    d = dijkstra_all(w)
    sigma = np.linalg.svd(d, compute_uv=False)
    expected = float(np.sqrt(np.sum(sigma[rank:] ** 2))) / frobenius(d)
    reported = float(read_json(out / "baseline_report.json")["residuals"]["relative_residual"])
    approx = read_csv(out / "baseline.csv")
    problems = []
    if not _close(reported, expected, 1e-9):
        problems.append(f"reported relative residual {reported!r}, LAPACK gives {expected!r}")
    if approx.shape != d.shape:
        return problems + [f"approximation shape {approx.shape} is not {d.shape}"], reported
    if not _close(frobenius(d - approx) / frobenius(d), expected, 1e-9):
        problems.append("approximation's residual differs from the dropped singular values")
    if np.linalg.svd(approx, compute_uv=False)[rank] > 1e-9 * sigma[0]:
        problems.append(f"approximation has rank above {rank}")
    return problems, reported


def check_nnmf(edges: Path, out: Path, rank: int) -> tuple[list[str], float]:
    """Factors are non-negative, the trace never increases, and its last
    entry is ||A - W H||_F for the binary adjacency A."""
    _, w = parse_edges(edges.read_text())
    adjacency = (np.isfinite(w) & (w > 0)).astype(float)
    fw, fh = read_csv(out / "baseline_w.csv"), read_csv(out / "baseline_h.csv")
    trace = np.array([float(t) for t in (out / "baseline_trace.csv").read_text().split()])
    n = adjacency.shape[0]
    if fw.shape != (n, rank) or fh.shape != (rank, n):
        return [f"factor shapes {fw.shape}, {fh.shape} do not fit ({n}, {rank})"], float("nan")
    problems = []
    if (fw < 0).any() or (fh < 0).any():
        problems.append("negative entry in an NNMF factor")
    # a rise of a few rounding units at convergence is not an increase
    if len(trace) == 0 or (np.diff(trace) > TRACE_ROUNDING * trace[0]).any():
        problems.append("NNMF residual trace increases")
    elif not _close(trace[-1], frobenius(adjacency - fw @ fh), 1e-9):
        problems.append("last trace entry differs from ||A - W H||_F")
    return problems, float(trace[-1]) / frobenius(adjacency)
