"""Independent references and helpers used by the tests only.

oracle_min_path_fixed_length enumerates walks by brute force and refuses
instances too large to enumerate; truncated_series sums the Kleene series
through a given power; ref_kleene_star is the full-matrix Floyd-Warshall
loop that the blocked kleene_star must match bit for bit, bellman_ford
finds negative cycles and distances by another algorithm, and
ref_waypoint_search is the waypoint search that scores every candidate in
full, in sample order, which the pruned search must match. The full_table_*
functions are the 2-norm engine's Newton targets and envelope walk as
they were before they skipped untied and unmoving rows. The
ref_graph_to_* functions are the edge-at-a-time loops that the array
conversions must match byte for byte, and ref_tokenize_gml is the
character scanner that the GML tokenizer's regular expression replaced.
ref_jacobi_setup and ref_jacobi_apply are the Jacobi setup and sweep with
their bincounts in row order, which the column-order kernels must match
bit for bit. ref_alternate is the general driver's alternation with one
batch per half-sweep, which the default alternation's one batch per outer
iteration must match bit for bit.
identity, tropical_allclose,
min_plus_apply and render_edge_list were public names of the package that
only tests called.
"""

import itertools
import math

import numpy as np

from minplus import INF, DomainError, Graph, NegativeCycleError, ParseError, TropicalMatrix, mp_multiply
import minplus.factorization as factorization
from minplus.core import _mp
from minplus.regression import RegressionConfig, _newton_batch

ORACLE_MAX_NODES = 7
ORACLE_MAX_LENGTH = 5


def identity(n: int) -> TropicalMatrix:
    """Min-plus identity: 0 on the diagonal, +inf elsewhere."""
    data = np.full((n, n), INF)
    np.fill_diagonal(data, 0.0)
    return TropicalMatrix(data)


def tropical_allclose(A: TropicalMatrix, B: TropicalMatrix, tol: float = 1e-9) -> bool:
    """Entrywise comparison where inf matches only inf; tol=0 is exact."""
    a, b = A.data, B.data
    if a.shape != b.shape or not np.array_equal(np.isinf(a), np.isinf(b)):
        return False
    finite = ~np.isinf(a)
    return bool(np.all(np.abs(a[finite] - b[finite]) <= tol))


def min_plus_apply(A: TropicalMatrix, x: np.ndarray) -> np.ndarray:
    """A (x) x for a vector x: component i is min_j(a_ij + x_j)."""
    a = A.data
    x = np.asarray(x, dtype=float)
    if x.shape != (a.shape[1],):
        raise DomainError(f"vector length {x.shape} does not match {a.shape[1]} columns")
    if a.shape[1] == 0:
        return np.full(a.shape[0], INF)
    return np.min(a + x[None, :], axis=1)


def render_edge_list(g: Graph) -> str:
    """Inverse of load_edge_list up to edge ordering and formatting."""
    lines = [
        f"{g.node_labels[u]} {g.node_labels[v]} {format(w, '.17g')}" for u, v, w in g.edges
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def ref_graph_to_tropical(g: Graph) -> np.ndarray:
    """Weight matrix built one stored edge at a time, -0 weights as 0."""
    data = np.full((g.n_nodes, g.n_nodes), INF)
    np.fill_diagonal(data, 0.0)
    for u, v, w in g.edges:
        if u == v:
            continue
        w += 0.0
        data[u, v] = min(data[u, v], w)
        if not g.directed:
            data[v, u] = min(data[v, u], w)
    return data


def ref_graph_to_adjacency(g: Graph) -> np.ndarray:
    """0/1 adjacency built one stored edge at a time, self-loops dropped."""
    adj = np.zeros((g.n_nodes, g.n_nodes))
    for u, v, _ in g.edges:
        if u != v:
            adj[u, v] = 1.0
            if not g.directed:
                adj[v, u] = 1.0
    return adj


def ref_tokenize_gml(text: str) -> list[str]:
    """GML tokens one character at a time: brackets, quoted strings without
    their quotes, and runs of other non-space characters."""
    tokens: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "[]":
            tokens.append(c)
            i += 1
        elif c == '"':
            end = text.find('"', i + 1)
            if end < 0:
                raise ParseError("unterminated string literal")
            tokens.append(text[i + 1 : end])
            i = end + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "[]":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


class ScaleRefusalError(Exception):
    """A brute-force oracle was asked for an instance too large to enumerate."""


def oracle_min_path_fixed_length(A: TropicalMatrix, i: int, j: int, length: int) -> float:
    """Minimum weight over all walks with exactly `length` edges from i to j.

    Exhaustive enumeration, intended as an independent oracle for min-plus
    powers at test scale only; larger instances are refused.
    """
    a = A.data
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("oracle needs a square matrix")
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"node index outside 0..{n - 1}")
    if length < 0:
        raise ValueError("walk length must be >= 0")
    if n > ORACLE_MAX_NODES or length > ORACLE_MAX_LENGTH:
        raise ScaleRefusalError(
            f"instance too large to enumerate (n={n} > {ORACLE_MAX_NODES} or "
            f"length={length} > {ORACLE_MAX_LENGTH})"
        )
    if length == 0:
        return 0.0 if i == j else INF

    best = INF

    def walk(v: int, remaining: int, acc: float) -> None:
        nonlocal best
        if acc >= best:  # also prunes acc = inf once any finite walk is known
            return
        if remaining == 0:
            if v == j:
                best = acc
            return
        for u in range(n):
            walk(u, remaining - 1, acc + a[v, u])

    walk(i, length, 0.0)
    return best


def truncated_series(A: TropicalMatrix, max_power: int) -> TropicalMatrix:
    """Partial sum I min A min ... min A^max_power, with no convergence claim."""
    power = identity(A.rows)
    out = power.data
    for _ in range(max_power):
        power = mp_multiply(power, A)
        out = np.minimum(out, power.data)
    return TropicalMatrix(out)


def ref_kleene_star(a: np.ndarray) -> np.ndarray:
    """Floyd-Warshall over the whole matrix at each pivot, through one n x n
    buffer; raises NegativeCycleError on a negative diagonal."""
    d = np.minimum(a, identity(len(a)).data)
    via_k = np.empty_like(d)
    for k in range(len(d)):
        np.add(d[:, k, None], d[k, None, :], out=via_k)
        np.minimum(d, via_k, out=d)
    if (np.diag(d) < 0).any():
        raise NegativeCycleError("negative-weight cycle")
    return d


def bellman_ford(a: np.ndarray) -> np.ndarray | None:
    """All-pairs distances of the one-hop matrix a by Bellman-Ford from
    every source at once, or None when a negative cycle exists.

    Round r relaxes every edge (k, j) from every source s against the
    distances of round r - 1, so it finds the paths of up to r edges.
    Without a negative cycle n - 1 rounds settle them all and round n
    changes nothing; every node is a source, so every cycle is reached.
    """
    n = len(a)
    d = np.full((n, n), INF)
    np.fill_diagonal(d, 0.0)
    for _ in range(n):
        relaxed = np.minimum(d, (d[:, :, None] + a[None, :, :]).min(axis=1))
        if np.array_equal(relaxed, d):
            return d
        d = relaxed
    return None


def ref_waypoint_search(d, m, budget, seed):
    """The unpruned search: score every candidate in full, keep the best."""
    n = d.shape[0]
    if math.comb(n, m) <= budget:
        candidates = itertools.combinations(range(n), m)
    else:
        rng = np.random.default_rng([seed])
        candidates = (
            tuple(int(w) for w in np.sort(rng.choice(n, size=m, replace=False)))
            for _ in range(budget)
        )
    best_w, best_left, best_res = None, None, np.inf
    for w in candidates:
        left = d[:, list(w)]
        res = float(np.sqrt(np.sum((d - _mp(left, left.T)) ** 2)))
        if res < best_res or (res == best_res and (best_w is None or tuple(w) < best_w)):
            best_w, best_left, best_res = tuple(w), left, res
    return best_w, best_left, best_res


def ref_jacobi_setup(d, selectors, m):
    """Row-order Jacobi tables for (P, n, n) selectors: pair (i,j) of start
    p feeds bin p*n*m + i*m + K[p,i,j] with weight d[i,j]."""
    p, n = selectors.shape[:2]
    rows, starts = np.arange(n), np.arange(p)[:, None]
    offset = starts[:, :, None] * (n * m)
    bins = (offset + rows[:, None] * m + selectors).ravel()
    gather = (offset + rows[None, :] * m + selectors).ravel()  # flat position of fp[p, j, K[p,i,j]]
    diag_hot = np.zeros((p, n, m))
    diag_hot[starts, rows, selectors[:, rows, rows]] = 1.0
    d_diag = d[rows, rows][:, None]
    count = np.bincount(bins, minlength=p * n * m).reshape(p, n, m)
    weights = np.broadcast_to(d, (p, n, n)).ravel()
    d_sums = np.bincount(bins, weights=weights, minlength=p * n * m).reshape(p, n, m)
    static_num = d_sums - diag_hot * d_diag
    denominator = 2.0 * diag_hot + (count - diag_hot)
    positive = denominator > 0
    anchored_num = d_diag * diag_hot + static_num
    return bins, gather, diag_hot, anchored_num, positive, np.where(positive, denominator, 1.0)


def ref_jacobi_apply(setup, fp):
    """One row-order Jacobi sweep of (P, n, m) values fp."""
    bins, gather, diag_hot, anchored_num, positive, denominator = setup
    fp_sums = np.bincount(bins, weights=fp.ravel()[gather], minlength=fp.size).reshape(fp.shape)
    cross = fp_sums - diag_hot * fp
    return np.where(positive, (anchored_num - cross) / denominator, fp)


def full_table_newton_targets(a, Y, X, sel, near):
    """Tie-restricted Newton targets of p problems, with the group labels
    propagated over the whole (d, p, n) near table in every round."""
    d, p, n = near.shape
    labels = np.broadcast_to(np.arange(d)[:, None], (d, p))
    while True:
        row_label = np.where(near, labels[:, :, None], d).min(axis=0)
        merged = np.minimum(labels, np.where(near, row_label, d).min(axis=2, initial=d))
        if np.array_equal(merged, labels):
            break
        labels = merged
    problems = np.arange(p)[:, None]
    group = (labels[sel, problems] + d * problems).ravel()
    weights = Y - a[np.arange(n), sel] - X[problems, sel]
    sums = np.bincount(group, weights=weights.ravel(), minlength=p * d)
    counts = np.bincount(group, minlength=p * d)
    increment = np.divide(sums, counts, out=np.zeros(p * d), where=counts > 0).reshape(p, d)
    return X + increment[problems, labels.T]


def full_table_segment_events(values, slopes):
    """Start columns and events (lam, row, new column, old column) of the
    envelope walk along x + lam*slopes, with every row of the (d, p, n)
    table copied into slope order and walked until its crossing reaches 1."""
    d, p, n = values.shape
    order = np.argsort(slopes, axis=1, kind="stable")
    problems = np.arange(p)[:, None]
    lines = values.transpose(1, 0, 2)[problems, order].transpose(1, 0, 2).reshape(d, p * n)
    line_slopes = np.repeat(slopes[problems, order].T, n, axis=1)
    rows = np.arange(p * n)
    start = cur = lines.argmin(axis=0)
    lam = np.zeros(rows.size)
    found = [(lam[:0], rows[:0], rows[:0])]
    while rows.size:
        at = np.arange(rows.size)
        s = line_slopes[cur, at]
        cross = np.divide(
            lines - lines[cur, at], s - line_slopes, out=np.full(lines.shape, INF), where=line_slopes < s
        )
        nxt = cross.argmin(axis=0)
        lam = np.maximum(cross[nxt, at], lam)
        go = lam < 1.0
        rows, cur, lam, lines, line_slopes = rows[go], nxt[go], lam[go], lines[:, go], line_slopes[:, go]
        found.append((lam, rows, order[rows // n, cur]))
    lams, event_rows, cols = (np.concatenate(part) for part in zip(*found))
    by = np.lexsort((event_rows, lams, event_rows // n))
    start, lams, event_rows, cols = order[np.arange(p * n) // n, start], lams[by], event_rows[by], cols[by]
    # the column each event leaves: its row's start column or previous event's column
    by_row = np.argsort(event_rows, kind="stable")
    same_row = event_rows[by_row[1:]] == event_rows[by_row[:-1]]
    prev = start[event_rows]
    prev[by_row[1:][same_row]] = cols[by_row[:-1][same_row]]
    return start, lams, event_rows, cols, prev


def ref_alternate(m_mat, a, b, cfg):
    """The general driver's alternation with each half-sweep its own batch,
    the row half-sweep after the column half-sweep."""
    inner_cfg = RegressionConfig(max_iter=factorization.INNER_MAX_ITER)
    yield a, b
    for _ in range(cfg.max_iter):
        a_prev, b_prev = a, b
        b = _newton_batch(a, m_mat.T, b.T, inner_cfg)[0].T
        yield a, b
        a = _newton_batch((b if cfg.gauss_seidel else b_prev).T, m_mat, a, inner_cfg)[0]
        yield a, b
        tol = factorization.NONSYM_TOL
        if (np.abs(a - a_prev) < tol).all() and (np.abs(b - b_prev) < tol).all():
            return
