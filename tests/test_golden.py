"""Golden CLI outputs: seeded commands must reproduce committed files byte for byte.

The input, golden/graph30.edges, is a fixed weighted graph: 30 nodes and
75 edges (a random spanning tree plus chords, integer weights 1..9).
golden/graph30_real.edges is the same graph with every weight scaled by
0.1*pi and written with 17 significant digits, so its distances are not
integers and rounding shows. Each case runs one CLI command on one of
them and compares every data file it writes with the copy under
golden/<case>/. Reports are not compared; they hold timings.

`PYTHONPATH=src python tests/test_golden.py [CASE ...]` writes the named
cases, or every case when none is named. Generate a new case before
editing `src/`, naming only that case, so the committed files of the
others are not rewritten. After a change that is meant to alter these
outputs, regenerate the affected cases and say why in the change.
"""

from pathlib import Path

import pytest

from minplus.cli import main

GOLDEN = Path(__file__).parent / "golden"
GRAPH = GOLDEN / "graph30.edges"
REAL_GRAPH = GOLDEN / "graph30_real.edges"
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
}


def run_case(name: str, out_dir: Path) -> None:
    argv, _, *graph = CASES[name]
    source = graph[0] if graph else GRAPH
    assert main([*argv, "--input", str(source), "--out-dir", str(out_dir)]) == 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs_byte_identical(name, tmp_path):
    run_case(name, tmp_path)
    for filename in CASES[name][1]:
        expected = (GOLDEN / name / filename).read_bytes()
        assert (tmp_path / filename).read_bytes() == expected, f"{name}/{filename} changed"


if __name__ == "__main__":
    import sys

    unknown = [case for case in sys.argv[1:] if case not in CASES]
    if unknown:
        sys.exit(f"unknown golden case(s): {', '.join(unknown)}; known: {', '.join(sorted(CASES))}")
    for case in sys.argv[1:] or CASES:
        (GOLDEN / case).mkdir(exist_ok=True)
        run_case(case, GOLDEN / case)
        for leftover in (GOLDEN / case).glob("*_report.json"):
            leftover.unlink()
