"""The benchmark's workloads: the CLI calls of one operation and its checks.

An operation is one instance (one generated graph) pushed through the
workload's whole CLI sequence. `fixed_ops` operations are run by every run
whatever its length; rel_residual and the per-layer counters are taken
over exactly those, so they are the same for every run with a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen

RANK = 4
SYM_MAX_RANK = 12


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is in BENCHMARK.json and README.md."""

    name: str
    fixed_ops: int
    # op directory -> list of CLI argv lists, run in order
    argvs: Callable[[Path], list[list[str]]]
    # op directory -> (problems, relative residual)
    check: Callable[[Path], tuple[list[str], float]]

    def write_input(self, op_dir: Path, seed: int, index: int) -> Path:
        op_dir.mkdir(parents=True, exist_ok=True)
        return gen.write_graph(op_dir / "graph.edges", self.name, seed, index)


def _sym_argvs(op: Path) -> list[list[str]]:
    return [[
        "residual-curve", "--input", str(op / "graph.edges"), "--method", "minplus-sym",
        "--restarts", "2", "--max-iter", "25", "--max-rank", str(SYM_MAX_RANK),
        "--out-dir", str(op / "out"),
    ]]


def _sym_check(op: Path):
    return checks.check_sym_curve(op / "out" / "curve.csv", SYM_MAX_RANK)


def _general_argvs(op: Path) -> list[list[str]]:
    return [[
        "factor", "--input", str(op / "graph.edges"), "--mode", "general",
        "--rank", str(RANK), "--max-iter", "3", "--restarts", "1", "--out-dir", str(op / "out"),
    ]]


def _general_check(op: Path):
    return checks.check_general_factor(op / "graph.edges", op / "out", RANK)


def _dense_argvs(op: Path) -> list[list[str]]:
    edges, out = str(op / "graph.edges"), str(op / "out")
    return [
        ["spd", "--input", edges, "--out-dir", out],
        ["factor", "--input", edges, "--mode", "actual", "--rank", str(RANK),
         "--budget", "200", "--out-dir", out],
    ]


def _dense_check(op: Path):
    problems, d = checks.check_spd(op / "graph.edges", op / "out" / "spd.csv")
    more, rel = checks.check_actual_waypoints(d, op / "out", RANK)
    return problems + more, rel


def _baselines_argvs(op: Path) -> list[list[str]]:
    edges = str(op / "graph.edges")
    return [
        ["baseline", "--input", edges, "--method", "svd", "--rank", str(RANK),
         "--out-dir", str(op / "svd")],
        ["baseline", "--input", edges, "--method", "nnmf", "--rank", str(RANK),
         "--out-dir", str(op / "nnmf")],
    ]


def _baselines_check(op: Path):
    svd_problems, svd_rel = checks.check_svd(op / "graph.edges", op / "svd", RANK)
    nnmf_problems, nnmf_rel = checks.check_nnmf(op / "graph.edges", op / "nnmf", RANK)
    return svd_problems + nnmf_problems, (svd_rel + nnmf_rel) / 2.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sym-curve-62", 8, _sym_argvs, _sym_check),
        Workload("general-factor-62", 10, _general_argvs, _general_check),
        Workload("dense-400", 7, _dense_argvs, _dense_check),
        Workload("baselines-120", 3, _baselines_argvs, _baselines_check),
    )
}
