"""Golden CLI outputs: seeded commands must reproduce committed files byte for byte.

The input, golden/graph30.edges, is a fixed weighted graph: 30 nodes and
75 edges (a random spanning tree plus chords, integer weights 1..9).
golden/graph30_real.edges is the same graph with every weight scaled by
0.1*pi and written with 17 significant digits, so its distances are not
integers and rounding shows. golden/graph150_real.edges is a larger graph
of the same kind: 150 nodes and 375 edges (a random spanning tree plus
chords) with weights 0.1*pi*(1..9), enough to span three row tiles of
the waypoint scan and to end the closure on a partial block of pivots.
golden/graph30.gml is graph30.edges in GML, its nodes listed in the edge
list's order of first appearance, with a top-level Creator line, quoted
labels and a graphics block per node. Each case runs one CLI command on
one of them and compares every data file it writes with the copy under
golden/<case>/. Reports are not compared; they hold timings.

`PYTHONPATH=src python tests/test_golden.py [CASE ...]` writes the named
cases, or every case when none is named. Generate a new case before
editing `src/`, naming only that case, so the committed files of the
others are not rewritten. After a change that is meant to alter these
outputs, regenerate the affected cases and say why in the change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from minplus.cli import main

GOLDEN = Path(__file__).parent / "golden"
GRAPH = GOLDEN / "graph30.edges"
REAL_GRAPH = GOLDEN / "graph30_real.edges"
TILES_GRAPH = GOLDEN / "graph150_real.edges"
GML_GRAPH = GOLDEN / "graph30.gml"
FACTOR_FILES = ("factors.json", "factors_left.csv", "factors_right.csv")

CASES = {
    "factor-sym": (
        ["factor", "--mode", "sym", "--rank", "4", "--restarts", "10", "--seed", "7"],
        ("factors.json", "factors_left.csv", "factors_right.csv"),
    ),
    "curve-sym": (
        [
            "residual-curve", "--method", "minplus-sym", "--max-rank", "6",
            "--restarts", "3", "--max-iter", "50", "--seed", "7",
        ],
        ("curve.csv",),
    ),
    "spd": (["spd"], ("spd.csv",)),
    "factor-actual": (
        ["factor", "--mode", "actual", "--rank", "3", "--seed", "7"],
        ("factors.json", "factors_left.csv", "factors_right.csv"),
    ),
    "factor-general": (
        [
            "factor", "--mode", "general", "--rank", "3", "--max-iter", "5",
            "--restarts", "1", "--seed", "7",
        ],
        ("factors.json", "factors_left.csv", "factors_right.csv"),
    ),
    # two restarts pick the better pair; the warm-started rank chain
    # adds an extra start after the kmeans restarts at every rank above 1
    "factor-general-gs": (
        [
            "factor", "--mode", "general", "--rank", "3", "--max-iter", "5",
            "--restarts", "2", "--gauss-seidel", "--seed", "7",
        ],
        FACTOR_FILES,
    ),
    "curve-general": (
        [
            "residual-curve", "--method", "minplus-general", "--max-rank", "5",
            "--max-iter", "5", "--restarts", "2", "--seed", "7",
        ],
        ("curve.csv",),
    ),
    # C(30,4) = 27,405 > 200: the sampled branch of the waypoint search
    "factor-actual-sampled": (
        ["factor", "--mode", "actual", "--rank", "4", "--budget", "200", "--seed", "7"],
        FACTOR_FILES,
    ),
    # 100 restarts at n = 30 run in more than one batch block of starts
    "factor-sym-blocks": (
        ["factor", "--mode", "sym", "--rank", "3", "--max-iter", "10", "--seed", "7"],
        FACTOR_FILES,
    ),
    "curve-sym-real": (
        [
            "residual-curve", "--method", "minplus-sym", "--max-rank", "6",
            "--restarts", "3", "--max-iter", "50", "--seed", "7",
        ],
        ("curve.csv",),
        REAL_GRAPH,
    ),
    "spd-real": (["spd"], ("spd.csv",), REAL_GRAPH),
    "factor-actual-real": (
        ["factor", "--mode", "actual", "--rank", "3", "--seed", "7"],
        FACTOR_FILES,
        REAL_GRAPH,
    ),
    # 150 nodes: three row tiles of the waypoint scan, a partial last closure block
    "spd-tiles": (["spd"], ("spd.csv",), TILES_GRAPH),
    "factor-actual-tiles": (
        ["factor", "--mode", "actual", "--rank", "5", "--budget", "400", "--seed", "7"],
        FACTOR_FILES,
        TILES_GRAPH,
    ),
    # multiplicative updates on the raw adjacency: factors and residual trace
    "baseline-nnmf": (
        ["baseline", "--method", "nnmf", "--rank", "3", "--iters", "300", "--seed", "7"],
        ("baseline_w.csv", "baseline_h.csv", "baseline_trace.csv"),
    ),
    # graph30 in GML: a Creator line, quoted labels and graphics blocks around it
    "spd-gml": (["spd"], ("spd.csv",), GML_GRAPH),
    # the two residual-curve branches that warm-start no rank
    "curve-svd": (["residual-curve", "--method", "svd", "--max-rank", "6"], ("curve.csv",)),
    "curve-nnmf": (
        ["residual-curve", "--method", "nnmf", "--iters", "50", "--max-rank", "4", "--seed", "7"],
        ("curve.csv",),
    ),
}


def case_argv(name: str, out_dir: Path) -> list[str]:
    argv, _, *graph = CASES[name]
    source = graph[0] if graph else GRAPH
    return [*argv, "--input", str(source), "--out-dir", str(out_dir)]


def run_case(name: str, out_dir: Path) -> None:
    assert main(case_argv(name, out_dir)) == 0


def assert_matches_golden(name: str, out_dir: Path) -> None:
    for filename in CASES[name][1]:
        expected = (GOLDEN / name / filename).read_bytes()
        assert (out_dir / filename).read_bytes() == expected, f"{name}/{filename} changed"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs_byte_identical(name, tmp_path):
    run_case(name, tmp_path)
    assert_matches_golden(name, tmp_path)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_outputs_do_not_depend_on_blas_threads(threads, tmp_path):
    # every min-plus outer sum is a BLAS matmul: the data files must not
    # depend on how many threads OpenBLAS splits it over
    names = ["spd-real", "factor-actual-real", "factor-sym"]
    runs = [case_argv(name, tmp_path / name) for name in names]
    script = "import json, sys; from minplus.cli import main; sys.exit(max(map(main, json.loads(sys.argv[1]))))"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for name in names:
        assert_matches_golden(name, tmp_path / name)


if __name__ == "__main__":
    unknown = [case for case in sys.argv[1:] if case not in CASES]
    if unknown:
        sys.exit(f"unknown golden case(s): {', '.join(unknown)}; known: {', '.join(sorted(CASES))}")
    for case in sys.argv[1:] or CASES:
        (GOLDEN / case).mkdir(exist_ok=True)
        run_case(case, GOLDEN / case)
        for leftover in (GOLDEN / case).glob("*_report.json"):
            leftover.unlink()
