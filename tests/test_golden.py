"""Golden CLI outputs: seeded commands must reproduce committed files byte for byte.

The input, golden/graph30.edges, is a fixed weighted graph: 30 nodes and
75 edges (a random spanning tree plus chords, integer weights 1..9). Each
case runs one CLI command on it and compares every data file it writes
with the copy under golden/<case>/. Reports are not compared; they hold
timings.

After a change that is meant to alter these outputs, regenerate them with
`PYTHONPATH=src python tests/test_golden.py` and say why in the change.
"""

from pathlib import Path

import pytest

from minplus.cli import main

GOLDEN = Path(__file__).parent / "golden"
GRAPH = GOLDEN / "graph30.edges"

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
}


def run_case(name: str, out_dir: Path) -> None:
    argv, _ = CASES[name]
    assert main([*argv, "--input", str(GRAPH), "--out-dir", str(out_dir)]) == 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs_byte_identical(name, tmp_path):
    run_case(name, tmp_path)
    for filename in CASES[name][1]:
        expected = (GOLDEN / name / filename).read_bytes()
        assert (tmp_path / filename).read_bytes() == expected, f"{name}/{filename} changed"


if __name__ == "__main__":
    for case in CASES:
        run_case(case, GOLDEN / case)
        for leftover in (GOLDEN / case).glob("*_report.json"):
            leftover.unlink()
