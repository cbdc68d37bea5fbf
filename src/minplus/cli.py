"""Batch command-line front end.

Subcommands: spd, regress, factor, baseline, residual-curve, assign.
Every run writes its data files plus a `<command>_report.json` echoing the
command, seed, and parameters; identical commands with identical seeds
reproduce identical data files byte for byte (the report differs only in
its wall_time_s field).

Exit codes: 0 success, 2 usage, 3 parse or data error, 4 numerical domain
error (negative cycle, infinite entries in a finite objective).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .baselines import _dropped, _relative, nnmf, svd, svd_truncate
from .core import (
    CSV_FLOAT_FORMAT,
    INF,
    TropicalMatrix,
    kleene_star,
    read_matrix_csv,
    write_matrix_csv,
)
from .errors import DomainError, MinPlusError, ParseError, ShapeError
from .factorization import (
    NonsymFactorConfig,
    SymFactorConfig,
    actual_waypoint_search,
    nonsym_factorize,
    sym_factorize,
)
from .graphs import (
    Graph,
    graph_to_adjacency,
    load_edge_list,
    load_gml_subset,
    shortest_path_matrix,
)
from .regression import RegressionConfig, chebyshev_regression, newton_directed_line_search

USAGE_EXIT = 2
DATA_EXIT = 3
NUMERIC_EXIT = 4


class UsageError(Exception):
    """Flag combination that argparse alone cannot reject."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _unit_fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a value in (0, 1], got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {value}")
    return value


def _infer_format(path: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    suffix = Path(path).suffix.lower()
    if suffix == ".gml":
        return "gml"
    if suffix == ".csv":
        return "matrix-csv"
    return "edgelist"


def _load_input(args) -> Graph | TropicalMatrix:
    """The Graph of an edge list or GML file, or the TropicalMatrix of a matrix CSV."""
    fmt = _infer_format(args.input, args.format)
    text = Path(args.input).read_text()
    if fmt == "edgelist":
        return load_edge_list(text, directed=args.directed)
    if fmt == "gml":
        return load_gml_subset(text)
    return read_matrix_csv(text)


def _apply_cap(matrix: TropicalMatrix, cap: float | None) -> TropicalMatrix:
    """Replace inf entries with cap, which must bound every finite entry
    and leave room for the sum of two entries. A matrix with no inf entry
    comes back as it is, keeping a closure's idempotent mark."""
    if cap is None:
        return matrix
    infinite = np.isinf(matrix.data)
    finite = matrix.data[~infinite]
    if finite.size and cap < finite.max():
        raise UsageError(f"--cap {cap:g} is below the largest finite entry {finite.max():g}")
    if math.isinf(2.0 * cap):
        raise UsageError(f"--cap {cap:g} is too large: twice it overflows")
    if not infinite.any():
        return matrix
    return TropicalMatrix._wrap(np.where(infinite, cap, matrix.data))


def _distances(loaded: Graph | TropicalMatrix, cap: float | None) -> tuple[TropicalMatrix, tuple[str, ...]]:
    """A graph's shortest-path matrix and its labels, or a matrix CSV as it
    is with labels 1..n; cap then replaces inf entries."""
    if isinstance(loaded, Graph):
        return _apply_cap(shortest_path_matrix(loaded), cap), loaded.node_labels
    return _apply_cap(loaded, cap), tuple(str(i + 1) for i in range(loaded.rows))


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _json_text(record, sort_keys: bool = False) -> str:
    """Strict JSON: a NaN or infinite value raises ValueError, which exits 4."""
    return json.dumps(record, indent=2, sort_keys=sort_keys, allow_nan=False) + "\n"


def _sym_config(args, rank: int) -> SymFactorConfig:
    return SymFactorConfig(
        rank=rank,
        jacobi_steps=args.t,
        shoot=args.mu,
        max_iter=args.max_iter,
        restarts=args.restarts,
        seed=args.seed,
    )


def _nonsym_config(args) -> NonsymFactorConfig:
    return NonsymFactorConfig(
        max_iter=args.max_iter,
        restarts=args.restarts,
        seed=args.seed,
        gauss_seidel=getattr(args, "gauss_seidel", False),
    )


def _read_vector_csv(path: str, what: str) -> np.ndarray:
    matrix = read_matrix_csv(Path(path).read_text())
    data = matrix.data
    if data.shape[0] == 0:
        raise ShapeError(f"{what} file is empty")
    if data.shape[0] != 1 and data.shape[1] != 1:
        raise ShapeError(f"{what} must be a single row or column, got {data.shape}")
    return data.ravel()


def _cmd_spd(args, out_dir: Path):
    loaded = _load_input(args)
    result = shortest_path_matrix(loaded) if isinstance(loaded, Graph) else kleene_star(loaded)
    out_path = _write(out_dir / args.out, write_matrix_csv(result))
    return [out_path], {"nodes": result.rows}


def _cmd_regress(args, out_dir: Path):
    a = read_matrix_csv(Path(args.matrix).read_text())
    y = _read_vector_csv(args.rhs, "rhs")
    if args.norm == "inf":
        outcome = chebyshev_regression(a, y)
    else:
        x0 = None if args.x0 == "auto" else _read_vector_csv(args.x0, "x0")
        cfg = RegressionConfig(max_iter=args.max_iter, tol=args.tol)
        outcome = newton_directed_line_search(a, y, x0=x0, cfg=cfg)
    record = {**dataclasses.asdict(outcome), "solution": outcome.solution.tolist()}
    out_path = _write(out_dir / args.out, _json_text(record))
    return [out_path], {"residual_norm": outcome.residual_norm}


def _cmd_factor(args, out_dir: Path):
    matrix, labels = _distances(_load_input(args), args.cap)
    if args.rank > min(matrix.shape):
        raise UsageError(f"--rank {args.rank} exceeds the input size {min(matrix.shape)}")
    waypoints = None
    if args.mode == "sym":
        pair = sym_factorize(matrix, _sym_config(args, args.rank))
    elif args.mode == "general":
        pair = nonsym_factorize(matrix, args.rank, _nonsym_config(args))
    else:  # actual
        waypoints, pair = actual_waypoint_search(matrix, args.rank, budget=args.budget, seed=args.seed)
    record = {
        "mode": args.mode,
        "rank": args.rank,
        "residual": float(pair.residual),
        "restarts_used": pair.restarts_used,
        "labels": list(labels),
        "left": pair.left.data.tolist(),
        "right": pair.right.data.tolist(),
        "residual_trace": list(pair.iteration_trace),
    }
    extras = {"residual": record["residual"], "restarts_used": pair.restarts_used, "nodes": matrix.rows}
    if waypoints is not None:
        record["waypoints"] = extras["waypoints"] = [int(w) + 1 for w in waypoints]  # 1-based positions
    stem = Path(args.out).stem
    outputs = [
        _write(out_dir / args.out, _json_text(record)),
        _write(out_dir / f"{stem}_left.csv", write_matrix_csv(pair.left)),
        _write(out_dir / f"{stem}_right.csv", write_matrix_csv(pair.right)),
    ]
    return outputs, extras


def _baseline_matrix(args) -> TropicalMatrix:
    """nnmf runs on a graph's raw 0/1 adjacency, every other method on its
    distance matrix; a matrix CSV is taken as it is. --cap replaces inf entries."""
    loaded = _load_input(args)
    if args.method == "nnmf" and isinstance(loaded, Graph):
        return TropicalMatrix._wrap(graph_to_adjacency(loaded))
    return _distances(loaded, args.cap)[0]


def _cmd_baseline(args, out_dir: Path):
    matrix = _baseline_matrix(args)
    if args.rank > min(matrix.shape):
        raise UsageError(f"--rank {args.rank} exceeds the input size {min(matrix.shape)}")
    if args.method == "svd":
        approx, rel = svd_truncate(matrix, args.rank)
        out_path = _write(out_dir / args.out, write_matrix_csv(approx))
        return [out_path], {"relative_residual": rel}
    result = nnmf(matrix, args.rank, iters=args.iters, seed=args.seed)
    final = result.residual_trace[-1]
    stem = Path(args.out).stem
    outputs = [
        _write(out_dir / f"{stem}_w.csv", write_matrix_csv(result.W)),
        _write(out_dir / f"{stem}_h.csv", write_matrix_csv(result.H)),
        _write(
            out_dir / f"{stem}_trace.csv",
            "".join(f"{v:{CSV_FLOAT_FORMAT}}\n" for v in result.residual_trace),
        ),
    ]
    return outputs, {"residual": final, "relative_residual": float(_relative(matrix.data, final))}


def _pad_rank_init(prev_left: np.ndarray) -> np.ndarray:
    """Extend a rank-(m-1) factor with one never-selected column.

    The constant exceeds every existing entry, so the padded column never
    attains a pairwise min and the padded product (hence residual) matches
    the previous rank exactly. This seeds the next rank at the previous
    best, making the sweep non-increasing. A general pair pads A this way
    and B through its transpose: the new term is then larger than every
    sum a_ik + b_kj.
    """
    big = float(prev_left.max()) + 1.0
    return np.hstack([prev_left, np.full((prev_left.shape[0], 1), big)])


def _cmd_residual_curve(args, out_dir: Path):
    matrix = _baseline_matrix(args)
    max_rank = min(matrix.shape)
    if args.max_rank is not None:
        max_rank = min(max_rank, args.max_rank)
    ranks = range(1, max_rank + 1)
    if args.method == "svd":
        residuals = _dropped(svd(matrix).singular_values)[1:max_rank + 1]
    elif args.method == "nnmf":
        residuals = [nnmf(matrix, m, iters=args.iters, seed=args.seed).residual_trace[-1] for m in ranks]
    else:  # minplus-sym or minplus-general: each rank also starts from the last rank's pair
        residuals, pair = [], None
        for m in ranks:
            if args.method == "minplus-sym":
                extra = () if pair is None else (_pad_rank_init(pair.left.data),)
                pair = sym_factorize(matrix, _sym_config(args, m), extra_inits=extra)
            else:
                extra = () if pair is None else (
                    (_pad_rank_init(pair.left.data), _pad_rank_init(pair.right.data.T).T),
                )
                pair = nonsym_factorize(matrix, m, _nonsym_config(args), extra_inits=extra)
            residuals.append(pair.residual)
    relative = _relative(matrix.data, residuals).tolist()
    if not np.isfinite(relative).all():
        raise DomainError("residual curve is not finite; use a smaller --cap")
    body = "rank,relative_residual\n" + "".join(f"{m},{v:{CSV_FLOAT_FORMAT}}\n" for m, v in zip(ranks, relative))
    out_path = _write(out_dir / args.out, body)
    return [out_path], {"ranks": len(relative), "final_relative_residual": relative[-1] if relative else None}


def _csv_field(text: str) -> str:
    """text as one RFC 4180 field: quoted, inner quotes doubled, if it holds a comma, a quote or a line break."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _cmd_assign(args, out_dir: Path):
    record = json.loads(Path(args.factors).read_text())
    try:
        left = np.asarray(record["left"], dtype=float)
    except (TypeError, ValueError) as exc:  # ragged rows or non-numeric entries
        raise ShapeError(f"left factor is not a numeric matrix: {exc}") from exc
    if left.ndim != 2 or 0 in left.shape:
        raise ShapeError(f"left factor is not a non-empty matrix: shape {left.shape}")
    if np.isnan(left).any():
        raise ParseError("left factor holds a NaN entry")
    labels = record.get("labels") or [str(i + 1) for i in range(left.shape[0])]
    if not isinstance(labels, list) or len(labels) != left.shape[0]:
        raise ShapeError(f"labels do not name the {left.shape[0]} left factor rows one each")
    assigned = left.argmin(axis=1) + 1  # smallest index wins ties, 1-based
    nonpositive = int(np.sum(left <= 0.0))
    with np.errstate(over="ignore"):  # 1/v of a subnormal v overflows to inf, the sentinel anyway
        recips = np.divide(1.0, left, out=np.full(left.shape, INF), where=left > 0.0)
    rows = write_matrix_csv(TropicalMatrix._wrap(recips)).splitlines(keepends=True)
    header = "node,assigned," + ",".join(f"recip_{k + 1}" for k in range(left.shape[1])) + "\n"
    body = "".join(f"{_csv_field(str(label))},{choice},{row}" for label, choice, row in zip(labels, assigned, rows))
    out_path = _write(out_dir / args.out, header + body)
    return [out_path], {"nonpositive_entries": nonpositive, "sentinel": "inf"}


@functools.cache  # parse_args leaves the parser as it was, so one per process serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minplus",
        description="Tropical linear algebra toolkit: shortest paths, min-plus "
        "regression, low-rank factorizations, and classical baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="root seed for all randomness")
    common.add_argument("--out-dir", default=".", help="directory for output files")

    graph_input = argparse.ArgumentParser(add_help=False)
    graph_input.add_argument("--input", required=True, help="edge list, GML, or matrix CSV file")
    graph_input.add_argument(
        "--format",
        choices=["edgelist", "gml", "matrix-csv"],
        default=None,
        help="input format (default: inferred from the file suffix)",
    )
    graph_input.add_argument(
        "--directed", action="store_true", help="treat edge-list input as directed"
    )

    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument(
        "--cap",
        type=_finite_float,
        default=None,
        help="replace infinite entries with this value before optimizing",
    )
    sym = argparse.ArgumentParser(add_help=False)  # factor and residual-curve share these
    sym.add_argument("--t", type=_positive_int, default=5, help="Jacobi sweeps per step (sym)")
    sym.add_argument("--mu", type=_unit_fraction, default=0.5, help="undershooting weight (sym)")

    p = sub.add_parser("spd", parents=[common, graph_input], help="all-pairs shortest-path matrix")
    p.add_argument("--out", default="spd.csv")
    p.set_defaults(func=_cmd_spd)

    p = sub.add_parser("regress", parents=[common], help="min-plus linear regression")
    p.add_argument("--matrix", required=True, help="design matrix CSV")
    p.add_argument("--rhs", required=True, help="target vector CSV (row or column)")
    p.add_argument("--norm", choices=["inf", "2"], default="inf")
    p.add_argument("--x0", default="auto", help="'auto' or a start vector CSV (2-norm only)")
    p.add_argument("--max-iter", type=_positive_int, default=500)
    p.add_argument("--tol", type=_finite_float, default=1e-10)
    p.add_argument("--out", default="regress.json")
    p.set_defaults(func=_cmd_regress)

    p = sub.add_parser(
        "factor", parents=[common, graph_input, cap, sym], help="min-plus low-rank factorization"
    )
    p.add_argument("--rank", type=_positive_int, required=True)
    p.add_argument("--mode", choices=["sym", "general", "actual"], default="sym")
    p.add_argument("--restarts", type=_positive_int, default=100)
    p.add_argument("--max-iter", type=_positive_int, default=100)
    p.add_argument("--budget", type=_positive_int, default=10000, help="subset budget (actual)")
    p.add_argument("--gauss-seidel", action="store_true", help="row sweeps use the fresh B (general)")
    p.add_argument("--out", default="factors.json")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser(
        "baseline", parents=[common, graph_input, cap], help="classical baselines (svd, nnmf)"
    )
    p.add_argument("--method", choices=["svd", "nnmf"], required=True)
    p.add_argument("--rank", type=_positive_int, required=True)
    p.add_argument("--iters", type=_positive_int, default=2000, help="nnmf iterations")
    p.add_argument("--out", default="baseline.csv")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser(
        "residual-curve",
        parents=[common, graph_input, cap, sym],
        help="relative residual for every rank",
    )
    p.add_argument(
        "--method",
        choices=["minplus-sym", "minplus-general", "svd", "nnmf"],
        required=True,
    )
    p.add_argument("--restarts", type=_positive_int, default=10)
    p.add_argument("--max-iter", type=_positive_int, default=100)
    p.add_argument("--iters", type=_positive_int, default=500, help="nnmf iterations per rank")
    p.add_argument("--max-rank", type=_positive_int, default=None)
    p.add_argument("--out", default="curve.csv")
    p.set_defaults(func=_cmd_residual_curve)

    p = sub.add_parser("assign", parents=[common], help="nearest waypoint per node")
    p.add_argument("--factors", required=True, help="factors.json from the factor command")
    p.add_argument("--out", default="assign.csv")
    p.set_defaults(func=_cmd_assign)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        code = exc.code if isinstance(exc.code, int) else USAGE_EXIT
        return code
    out_dir = Path(args.out_dir)
    started = time.perf_counter()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs, extras = args.func(args, out_dir)
        wall = time.perf_counter() - started
        parameters = {
            k: v for k, v in vars(args).items() if k not in ("func", "command") and not callable(v)
        }
        report = {
            "command": argv,
            "seed": getattr(args, "seed", None),
            "parameters": parameters,
            "residuals": extras,
            "wall_time_s": wall,
            "outputs": outputs,
        }
        report_path = out_dir / f"{args.command.replace('-', '_')}_report.json"
        report_path.write_text(_json_text(report, sort_keys=True))
    except UsageError as exc:
        print(f"minplus: usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ParseError, ShapeError, json.JSONDecodeError, KeyError) as exc:
        print(f"minplus: data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except OSError as exc:
        print(f"minplus: cannot read or write: {exc}", file=sys.stderr)
        return DATA_EXIT
    except DomainError as exc:  # NegativeCycleError and friends included
        print(f"minplus: numerical error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except (ValueError, MinPlusError) as exc:
        print(f"minplus: error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
