"""Each output check accepts the program's real output and rejects it once
a single entry is changed.

    PYTHONPATH=src python3 -m pytest bench/test_checks.py

The operations are the workloads' own CLI calls, run on a 24-node graph
so the file runs in seconds.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import checks
import gen
from workloads import WORKLOADS

minplus_cli = pytest.importorskip("minplus.cli")

TINY_NODES, TINY_EDGES = 24, 50


def _run(workload: str, op: Path) -> Path:
    """Write a small weighted (or unit, for the sym curve) graph and run the
    workload's CLI calls on it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(gen.RECIPES, workload, (TINY_NODES, TINY_EDGES, gen.RECIPES[workload][2]))
        WORKLOADS[workload].write_input(op, seed=7, index=0)
    for argv in WORKLOADS[workload].argvs(op):
        assert minplus_cli.main(argv) == 0
    return op


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("ops")
    return {name: _run(name, base / name) for name in WORKLOADS}


def _copy(outputs, name: str, tmp_path: Path) -> Path:
    """A private copy of one workload's output directory."""
    copy = tmp_path / name
    shutil.copytree(outputs[name], copy)
    return copy


def _edit_csv(path: Path, row: int, col: int, change) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(change(float(cells[col])))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _edit_json(path: Path, change) -> None:
    record = json.loads(path.read_text())
    change(record)
    path.write_text(json.dumps(record))


def _lower_left_entry(op: Path) -> None:
    # far below every other entry, so it wins its row's minimum
    _edit_csv(op / "out" / "factors_left.csv", 0, 0, lambda v: v - 100.0)

    def lower(record):
        record["left"][0][0] -= 100.0

    _edit_json(op / "out" / "factors.json", lower)


def _scale_residual(record: dict) -> None:
    record["residual"] *= 1.001


def _lower_both_factors(op: Path) -> None:
    # D(:,W) loses one entry on both sides, so the product drops below D there
    _edit_csv(op / "out" / "factors_left.csv", 5, 1, lambda v: v - 1.0)
    _edit_csv(op / "out" / "factors_right.csv", 1, 5, lambda v: v - 1.0)


def _add_factor_column(op: Path) -> None:
    # a fifth inner index far above D: the product, the residual and the
    # CSV-to-JSON agreement all stay as they were, only the rank is wrong
    out = op / "out"
    left = (out / "factors_left.csv").read_text().splitlines()
    (out / "factors_left.csv").write_text("".join(f"{line},1000.0\n" for line in left))
    right = (out / "factors_right.csv").read_text().splitlines()
    right.append(",".join(["1000.0"] * len(right[0].split(","))))
    (out / "factors_right.csv").write_text("\n".join(right) + "\n")

    def widen(record):
        for row in record["left"]:
            row.append(1000.0)
        record["right"].append([1000.0] * len(record["right"][0]))

    _edit_json(out / "factors.json", widen)


def _raise_reported_rank(record: dict) -> None:
    record["rank"] += 1


def _bump_baseline_residual(op: Path) -> None:
    def bump(record):
        record["residuals"]["relative_residual"] += 1e-6

    _edit_json(op / "svd" / "baseline_report.json", bump)


def _edit_trace(op: Path, index: int, change) -> None:
    path = op / "nnmf" / "baseline_trace.csv"
    values = path.read_text().split()
    values[index] = repr(change(float(values[index])))
    path.write_text("\n".join(values) + "\n")


def _lower_trace_start(record: dict) -> None:
    record["residual_trace"][0] = record["residual"] - 1.0


CORRUPTIONS = [
    # the highest rank's residual set to 1, above the rank below it
    ("sym-curve-62", "curve increases", lambda op: _edit_csv(op / "out" / "curve.csv", -1, 1, lambda v: 1.0)),
    ("sym-curve-62", "non-finite", lambda op: _edit_csv(op / "out" / "curve.csv", 3, 1, lambda v: float("nan"))),
    ("general-factor-62", "||D - A(x)B||_F", _lower_left_entry),
    ("general-factor-62", "reported residual", lambda op: _edit_json(op / "out" / "factors.json", _scale_residual)),
    ("general-factor-62", "CSVs differ", lambda op: _edit_csv(op / "out" / "factors_right.csv", 1, 2, lambda v: v + 1.0)),
    ("general-factor-62", "residual_trace", lambda op: _edit_json(op / "out" / "factors.json", _lower_trace_start)),
    ("general-factor-62", "factor shapes", _add_factor_column),
    ("general-factor-62", "reported rank", lambda op: _edit_json(op / "out" / "factors.json", _raise_reported_rank)),
    ("dense-400", "Dijkstra", lambda op: _edit_csv(op / "out" / "spd.csv", 2, 5, lambda v: v + 1.0)),
    ("dense-400", "D(:,W)", lambda op: _edit_csv(op / "out" / "factors_left.csv", 5, 1, lambda v: v + 1.0)),
    ("dense-400", "transpose", lambda op: _edit_csv(op / "out" / "factors_right.csv", 0, 3, lambda v: v - 1.0)),
    ("dense-400", "undercuts D", _lower_both_factors),
    ("dense-400", "||D - P||_F", lambda op: _edit_json(op / "out" / "factors.json", _scale_residual)),
    ("baselines-120", "LAPACK", _bump_baseline_residual),
    ("baselines-120", "rank above", lambda op: _edit_csv(op / "svd" / "baseline.csv", 4, 4, lambda v: v + 1.0)),
    ("baselines-120", "negative entry", lambda op: _edit_csv(op / "nnmf" / "baseline_w.csv", 3, 0, lambda v: -v)),
    ("baselines-120", "trace increases", lambda op: _edit_trace(op, -2, lambda v: v + 1.0)),
    ("baselines-120", "||A - W H||_F", lambda op: _edit_trace(op, -1, lambda v: v * 0.999)),
]


def test_nnmf_trace_rise_of_one_rounding_unit_passes(outputs, tmp_path):
    # multiplicative updates settle at a fixed point where the computed
    # norm can wobble by an ulp; the check must not call that an increase
    op = _copy(outputs, "baselines-120", tmp_path)
    last = float((op / "nnmf" / "baseline_trace.csv").read_text().split()[-1])
    _edit_trace(op, -2, lambda v: float(np.nextafter(last, -np.inf)))
    problems, _ = WORKLOADS["baselines-120"].check(op)
    assert problems == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_real_output_passes(outputs, name):
    problems, rel = WORKLOADS[name].check(outputs[name])
    assert problems == []
    assert 0.0 <= rel <= 1.0


@pytest.mark.parametrize(
    "name,expected,corrupt", CORRUPTIONS, ids=[f"{c[0]}:{c[1]}" for c in CORRUPTIONS]
)
def test_one_changed_entry_is_rejected(outputs, tmp_path, name, expected, corrupt):
    op = _copy(outputs, name, tmp_path)
    corrupt(op)
    problems, _ = WORKLOADS[name].check(op)
    assert any(expected in p for p in problems), problems


def test_dijkstra_matches_floyd_warshall_on_a_generated_graph():
    _, w = checks.parse_edges("".join(f"{u} {v} {c}\n" for u, v, c in gen.graph_edges("dense-400", 3, 0)))
    d = w.copy()
    for k in range(d.shape[0]):
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    assert np.array_equal(checks.dijkstra_all(w), d)
