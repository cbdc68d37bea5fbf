"""End-to-end CLI behavior: files, reports, exit codes, determinism."""

import csv
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from minplus import read_matrix_csv, svd_truncate
from minplus import cli
from minplus.cli import main

from conftest import EXAMPLE_EDGES, EXAMPLE_D, EXAMPLE_F, MALFORMED_GML

# bench/gen.py --workload general-factor-62 --seed 2 --index 0: 62 nodes,
# 140 edges with integer weights 1..9
GENERAL_62 = Path(__file__).parent / "data" / "general62_seed2.edges"

GML_SQUARE = """
graph [
  node [ id 10 ]
  node [ id 11 ]
  node [ id 12 ]
  node [ id 13 ]
  edge [ source 10 target 11 value 2 ]
  edge [ source 11 target 12 value 2 ]
  edge [ source 12 target 13 value 2 ]
  edge [ source 13 target 10 value 2 ]
]
"""


@pytest.fixture
def edges_file(tmp_path):
    path = tmp_path / "example.edges"
    path.write_text(EXAMPLE_EDGES)
    return path


def read_report(out_dir, command):
    name = command.replace("-", "_") + "_report.json"
    return json.loads((out_dir / name).read_text())


def test_spd_reproduces_distances(edges_file, tmp_path):
    out = tmp_path / "run"
    assert main(["spd", "--input", str(edges_file), "--out-dir", str(out)]) == 0
    got = read_matrix_csv((out / "spd.csv").read_text())
    assert np.array_equal(got.data, EXAMPLE_D)
    report = read_report(out, "spd")
    assert report["seed"] == 0
    assert report["residuals"]["nodes"] == 6
    assert str(out / "spd.csv") in report["outputs"]
    assert report["wall_time_s"] >= 0.0


def test_spd_empty_graph(tmp_path):
    src = tmp_path / "empty.edges"
    src.write_text("")
    assert main(["spd", "--input", str(src), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "spd.csv").read_text() == ""


def test_spd_disconnected_graph_prints_inf(tmp_path):
    src = tmp_path / "two.edges"
    src.write_text("a b 1\nc d 2\n")
    assert main(["spd", "--input", str(src), "--out-dir", str(tmp_path)]) == 0
    assert "inf" in (tmp_path / "spd.csv").read_text()


def test_spd_accepts_gml(tmp_path):
    src = tmp_path / "square.gml"
    src.write_text(GML_SQUARE)
    assert main(["spd", "--input", str(src), "--out-dir", str(tmp_path)]) == 0
    got = read_matrix_csv((tmp_path / "spd.csv").read_text()).data
    assert got[0, 2] == 4.0  # opposite corners of the 4-cycle


def test_spd_accepts_gml_with_quoted_brackets(tmp_path):
    # ids and labels holding brackets, spaces and '#': a quoted bracket never nests
    src = tmp_path / "quoted.gml"
    src.write_text(
        """
graph [
  node [ id "[ #0" label "[" ]
  node [ id "] 1" label "]" ]
  node [ id "[2]" label "a [ b" ]
  node [ id "#3 ]" label "# ]" ]
  edge [ source "[ #0" target "] 1" value 2 ]
  edge [ source "] 1" target "[2]" value 2 ]
  edge [ source "[2]" target "#3 ]" value 2 ]
  edge [ source "#3 ]" target "[ #0" value 2 ]
]
"""
    )
    assert main(["spd", "--input", str(src), "--out-dir", str(tmp_path)]) == 0
    got = read_matrix_csv((tmp_path / "spd.csv").read_text()).data
    assert np.array_equal(got, [[0, 2, 4, 2], [2, 0, 2, 4], [4, 2, 0, 2], [2, 4, 2, 0]])


def test_spd_accepts_matrix_csv(tmp_path):
    src = tmp_path / "m.csv"
    src.write_text("0,5\ninf,0\n")
    assert main(["spd", "--input", str(src), "--out-dir", str(tmp_path)]) == 0
    got = read_matrix_csv((tmp_path / "spd.csv").read_text()).data
    assert np.array_equal(got, np.array([[0.0, 5.0], [np.inf, 0.0]]))


@pytest.mark.parametrize(
    "name, text",
    [
        ("zero.edges", "a b -0\nb c 1\n"),
        ("zero.gml", "graph [ node [ id 0 ] node [ id 1 ] node [ id 2 ]\n"
         "edge [ source 0 target 1 value -0.0 ] edge [ source 1 target 2 value 1 ] ]\n"),
        ("zero.csv", "0,-0,1\n-0,0,1\n1,1,-0\n"),
    ],
    ids=["edges", "gml", "csv"],
)
def test_spd_writes_no_negative_zero(name, text, tmp_path):
    # -0 enters as 0 in every input format, so d(b,b) is 0, not -0; the values are unchanged
    src = tmp_path / name
    src.write_text(text)
    assert main(["spd", "--input", str(src), "--out-dir", str(tmp_path)]) == 0
    written = (tmp_path / "spd.csv").read_text()
    assert "-0" not in written
    assert np.array_equal(read_matrix_csv(written).data, [[0, 0, 1], [0, 0, 1], [1, 1, 0]])


def test_format_override_beats_suffix(tmp_path):
    src = tmp_path / "graph.txt"  # edge list despite the odd suffix
    src.write_text("x y 3\n")
    assert (
        main(
            ["spd", "--input", str(src), "--format", "edgelist", "--out-dir", str(tmp_path)]
        )
        == 0
    )


def test_factor_sym_writes_factors_and_csvs(edges_file, tmp_path):
    out = tmp_path / "run"
    rc = main(
        [
            "factor", "--input", str(edges_file), "--rank", "2", "--mode", "sym",
            "--restarts", "5", "--max-iter", "30", "--out-dir", str(out),
        ]
    )
    assert rc == 0
    record = json.loads((out / "factors.json").read_text())
    assert record["mode"] == "sym" and record["rank"] == 2
    assert record["labels"] == ["1", "2", "3", "4", "5", "6"]
    left = np.array(record["left"])
    assert left.shape == (6, 2)
    assert np.array_equal(
        read_matrix_csv((out / "factors_left.csv").read_text()).data, left
    )
    right = read_matrix_csv((out / "factors_right.csv").read_text()).data
    assert np.array_equal(right, left.T)
    trace = np.array(record["residual_trace"])
    assert (np.diff(trace) <= 1e-10).all()


def test_factor_actual_reports_waypoints(edges_file, tmp_path):
    rc = main(
        [
            "factor", "--input", str(edges_file), "--rank", "2", "--mode", "actual",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    record = json.loads((tmp_path / "factors.json").read_text())
    assert record["mode"] == "actual"
    assert len(record["waypoints"]) == 2
    assert all(1 <= w <= 6 for w in record["waypoints"])
    report = read_report(tmp_path, "factor")
    assert report["residuals"]["waypoints"] == record["waypoints"]


def test_factor_general_mode_runs(edges_file, tmp_path):
    rc = main(
        [
            "factor", "--input", str(edges_file), "--rank", "2", "--mode", "general",
            "--restarts", "2", "--max-iter", "8", "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    record = json.loads((tmp_path / "factors.json").read_text())
    right = np.array(record["right"])
    assert right.shape == (2, 6)


def test_factor_determinism_data_files_hash_equal(edges_file, tmp_path):
    args = [
        "factor", "--input", str(edges_file), "--rank", "2", "--mode", "sym",
        "--restarts", "4", "--max-iter", "15", "--seed", "7",
    ]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(args + ["--out-dir", str(out_a)]) == 0
    assert main(args + ["--out-dir", str(out_b)]) == 0
    for name in ("factors.json", "factors_left.csv", "factors_right.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    ra, rb = read_report(out_a, "factor"), read_report(out_b, "factor")
    for rep in (ra, rb):
        rep.pop("wall_time_s")
        rep["parameters"].pop("out_dir")
        rep.pop("outputs")
        rep.pop("command")
    assert ra == rb


def test_regress_both_norms(tmp_path):
    (tmp_path / "A.csv").write_text("0,0\n1,0\n0,1\n")
    (tmp_path / "y.csv").write_text("0\n1\n1\n")
    rc = main(
        [
            "regress", "--matrix", str(tmp_path / "A.csv"), "--rhs", str(tmp_path / "y.csv"),
            "--norm", "inf", "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    record = json.loads((tmp_path / "regress.json").read_text())
    assert record["solution"] == [0.5, 0.5]
    assert record["residual_norm"] == 0.5
    assert record["norm_kind"] == "inf"

    rc = main(
        [
            "regress", "--matrix", str(tmp_path / "A.csv"), "--rhs", str(tmp_path / "y.csv"),
            "--norm", "2", "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    record = json.loads((tmp_path / "regress.json").read_text())
    assert record["norm_kind"] == "2"
    assert record["converged"] is True
    assert record["residual_norm"] == pytest.approx(np.sqrt(2.0 / 3.0))
    trace = np.array(record["residual_trace"])
    assert (np.diff(trace) <= 1e-10).all()


def test_regress_json_holds_the_outcome_fields_in_order(tmp_path):
    (tmp_path / "A.csv").write_text("0,inf\n1,0\n0,1\n")
    (tmp_path / "y.csv").write_text("0\n1\n1\n")
    keys = ["solution", "residual_norm", "norm_kind", "iterations", "converged", "residual_trace"]
    for norm in ("inf", "2"):
        argv = ["regress", "--matrix", str(tmp_path / "A.csv"), "--rhs", str(tmp_path / "y.csv"), "--norm", norm]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "regress.json").read_text())
        assert list(record) == keys
        assert record["norm_kind"] == norm and record["residual_trace"][-1] == record["residual_norm"]


def test_regress_x0_file(tmp_path):
    (tmp_path / "A.csv").write_text("0,0\n1,0\n0,1\n")
    (tmp_path / "y.csv").write_text("0,1,1\n")  # row vector form
    (tmp_path / "x0.csv").write_text("0,0\n")
    rc = main(
        [
            "regress", "--matrix", str(tmp_path / "A.csv"), "--rhs", str(tmp_path / "y.csv"),
            "--norm", "2", "--x0", str(tmp_path / "x0.csv"), "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0


def test_regress_rejects_matrix_rhs(tmp_path):
    (tmp_path / "A.csv").write_text("0,0\n1,0\n")
    (tmp_path / "y.csv").write_text("0,1\n1,0\n")
    rc = main(
        [
            "regress", "--matrix", str(tmp_path / "A.csv"), "--rhs", str(tmp_path / "y.csv"),
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 3


# A has 3 rows and 2 columns: the rhs needs length 3 and x0 length 2
@pytest.mark.parametrize("rhs, x0", [("short.csv", "short.csv"), ("y.csv", "y.csv")], ids=["rhs", "x0"])
def test_regress_length_mismatch_exits_3(tmp_path, rhs, x0):
    (tmp_path / "A.csv").write_text("0,0\n1,0\n0,1\n")
    (tmp_path / "y.csv").write_text("0\n1\n1\n")
    (tmp_path / "short.csv").write_text("0\n1\n")
    rc = main(
        [
            "regress", "--matrix", str(tmp_path / "A.csv"), "--rhs", str(tmp_path / rhs),
            "--norm", "2", "--x0", str(tmp_path / x0), "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 3
    assert not (tmp_path / "regress.json").exists()


def test_baseline_svd_on_graph(edges_file, tmp_path):
    rc = main(
        [
            "baseline", "--input", str(edges_file), "--method", "svd", "--rank", "2",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    report = read_report(tmp_path, "baseline")
    sv = np.linalg.svd(EXAMPLE_D, compute_uv=False)
    expect = np.sqrt(np.sum(sv[2:] ** 2)) / np.linalg.norm(EXAMPLE_D)
    assert report["residuals"]["relative_residual"] == pytest.approx(expect, abs=1e-10)
    approx = read_matrix_csv((tmp_path / "baseline.csv").read_text()).data
    assert approx.shape == (6, 6)


def test_svd_relative_residual_has_one_set_of_bits(tmp_path):
    # baseline, the curve and svd_truncate share one tail sum and one norm
    edges = Path(__file__).parent / "golden" / "graph30_real.edges"
    assert main(["spd", "--input", str(edges), "--out-dir", str(tmp_path)]) == 0
    d = read_matrix_csv((tmp_path / "spd.csv").read_text()).data
    assert main(["residual-curve", "--input", str(edges), "--method", "svd", "--out-dir", str(tmp_path)]) == 0
    curve = np.loadtxt(tmp_path / "curve.csv", delimiter=",", skiprows=1)[:, 1]
    for m in range(1, 30):
        argv = ["baseline", "--input", str(edges), "--method", "svd", "--rank", str(m), "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        reported = read_report(tmp_path, "baseline")["residuals"]["relative_residual"]
        assert reported.hex() == float(curve[m - 1]).hex() == svd_truncate(d, m)[1].hex(), m


def test_baseline_nnmf_uses_adjacency(edges_file, tmp_path):
    rc = main(
        [
            "baseline", "--input", str(edges_file), "--method", "nnmf", "--rank", "2",
            "--iters", "300", "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    w = read_matrix_csv((tmp_path / "baseline_w.csv").read_text()).data
    h = read_matrix_csv((tmp_path / "baseline_h.csv").read_text()).data
    assert w.shape == (6, 2) and h.shape == (2, 6)
    trace = [float(line) for line in (tmp_path / "baseline_trace.csv").read_text().split()]
    assert (np.diff(np.array(trace)) <= 1e-10).all()


def test_baseline_svd_infinite_needs_cap(tmp_path):
    src = tmp_path / "two.edges"
    src.write_text("a b 1\nc d 2\n")
    rc = main(
        ["baseline", "--input", str(src), "--method", "svd", "--rank", "1", "--out-dir", str(tmp_path)]
    )
    assert rc == 4
    rc = main(
        [
            "baseline", "--input", str(src), "--method", "svd", "--rank", "1",
            "--cap", "10", "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0


@pytest.mark.parametrize("method", ["svd", "nnmf"])
def test_baseline_infinite_matrix_error_names_cap(tmp_path, capsys, method):
    src = tmp_path / "gap.csv"
    src.write_text("0,inf\n1,0\n")
    argv = ["baseline", "--input", str(src), "--method", method, "--rank", "1", "--out-dir", str(tmp_path)]
    assert main(argv) == 4
    assert "--cap" in capsys.readouterr().err


def test_factor_inf_distances_need_cap(tmp_path):
    src = tmp_path / "two.edges"
    src.write_text("a b 1\nc d 2\n")
    base = [
        "factor", "--input", str(src), "--rank", "1", "--mode", "sym",
        "--restarts", "2", "--max-iter", "5", "--out-dir", str(tmp_path),
    ]
    assert main(base) == 4
    assert main(base + ["--cap", "9"]) == 0


def test_residual_curve_sym_monotone_and_exact_at_full_rank(edges_file, tmp_path):
    rc = main(
        [
            "residual-curve", "--input", str(edges_file), "--method", "minplus-sym",
            "--restarts", "2", "--max-iter", "15", "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    lines = (tmp_path / "curve.csv").read_text().strip().splitlines()
    assert lines[0] == "rank,relative_residual"
    ranks = [int(line.split(",")[0]) for line in lines[1:]]
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert ranks == list(range(1, 7))
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == 0.0


def test_residual_curve_checks_idempotency_once(tmp_path, idempotency_products):
    calls = idempotency_products
    src = tmp_path / "d.csv"
    src.write_text("\n".join(",".join(f"{v:g}" for v in row) for row in EXAMPLE_D) + "\n")
    argv = [
        "residual-curve", "--method", "minplus-sym", "--max-rank", "4", "--restarts", "1",
        "--max-iter", "3",
    ]
    assert main([*argv, "--input", str(src), "--out-dir", str(tmp_path / "csv")]) == 0
    assert len(calls) == 1  # one matrix-CSV input, four ranks
    graph = tmp_path / "g.edges"
    graph.write_text(EXAMPLE_EDGES)
    assert main([*argv, "--input", str(graph), "--out-dir", str(tmp_path / "graph")]) == 0
    assert len(calls) == 1  # a closure is idempotent by construction


def test_cap_on_connected_graph_keeps_closure_unchecked(tmp_path, idempotency_products):
    # a connected graph's closure has no inf entry, so --cap leaves it as it
    # is, still marked idempotent by kleene_star: the idempotency product never runs
    argv = [
        "factor", "--mode", "sym", "--rank", "2", "--restarts", "1", "--max-iter", "2",
        "--input", str(GENERAL_62), "--out-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    assert main([*argv, "--cap", "100"]) == 0
    assert idempotency_products == []


def test_residual_curve_general_never_rises(tmp_path):
    # with a cold start at every rank this curve rose from 0.19442 at rank
    # 4 to 0.19635 at rank 5; the previous rank's padded pair now also runs
    argv = [
        "residual-curve", "--input", str(GENERAL_62), "--method", "minplus-general",
        "--max-rank", "8", "--max-iter", "3", "--restarts", "1", "--out-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    values = np.loadtxt(tmp_path / "curve.csv", delimiter=",", skiprows=1)[:, 1]
    assert values.shape == (8,)
    assert (np.diff(values) <= 0.0).all()


def test_residual_curve_svd_rank_limited(tmp_path):
    rng = np.random.default_rng(50)
    left = rng.normal(size=(6, 3))
    right = rng.normal(size=(3, 6))
    m = left @ right  # rank 3 synthetic
    text = "\n".join(",".join(format(v, ".17g") for v in row) for row in m)
    src = tmp_path / "m.csv"
    src.write_text(text + "\n")
    rc = main(
        [
            "residual-curve", "--input", str(src), "--method", "svd",
            "--out-dir", str(tmp_path), "--out", "svd_curve.csv",
        ]
    )
    assert rc == 0
    rows = (tmp_path / "svd_curve.csv").read_text().strip().splitlines()[1:]
    values = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    assert values[3] < 1e-12  # exact from rank 3 on
    assert values[6] == 0.0


def test_residual_curve_max_rank_flag(edges_file, tmp_path):
    rc = main(
        [
            "residual-curve", "--input", str(edges_file), "--method", "nnmf",
            "--iters", "50", "--max-rank", "2", "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    rows = (tmp_path / "curve.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 2


@pytest.mark.parametrize("argv", [["factor", "--rank", "2"], ["residual-curve", "--method", "minplus-sym"]])
def test_sym_step_flags_carry_help_and_defaults_on_both_commands(argv, capsys):
    assert main([argv[0], "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--t T Jacobi sweeps per step (sym)" in text and "--mu MU undershooting weight (sym)" in text
    args = cli._build_parser().parse_args([*argv, "--input", "graph.edges"])
    assert (args.t, args.mu) == (5, 0.5)


def test_assign_from_reference_factor(tmp_path):
    record = {
        "mode": "sym",
        "rank": 2,
        "residual": 4.568,
        "labels": ["1", "2", "3", "4", "5", "6"],
        "left": EXAMPLE_F.tolist(),
        "right": EXAMPLE_F.T.tolist(),
    }
    src = tmp_path / "factors.json"
    src.write_text(json.dumps(record))
    rc = main(["assign", "--factors", str(src), "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "assign.csv").read_text().strip().splitlines()
    assert lines[0] == "node,assigned,recip_1,recip_2"
    rows = [line.split(",") for line in lines[1:]]
    # first three nodes belong to the first neighborhood, last three to the second
    assert [r[1] for r in rows] == ["1", "1", "1", "2", "2", "2"]
    assert float(rows[2][2]) == pytest.approx(1.0 / 0.2222)
    report = read_report(tmp_path, "assign")
    assert report["residuals"]["nonpositive_entries"] == 0


def test_assign_tie_and_nonpositive_sentinel(tmp_path):
    record = {"left": [[2.0, 2.0], [0.0, 1.0]], "labels": ["u", "v"]}
    src = tmp_path / "factors.json"
    src.write_text(json.dumps(record))
    rc = main(["assign", "--factors", str(src), "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "assign.csv").read_text().strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0][1] == "1"  # tie goes to the smallest index
    assert rows[1][2] == "inf"  # nonpositive entry maps to the sentinel
    report = read_report(tmp_path, "assign")
    assert report["residuals"]["nonpositive_entries"] == 1


def test_assign_writes_reciprocals_byte_for_byte(tmp_path):
    # zeros of both signs and negatives map to inf, as does 1/5e-324, which
    # overflows; JSON Infinity loads as inf, whose reciprocal is 0; a tie
    # goes to the first column
    left = [[0.0, -0.0, 2.0], [-2.0, 5e-324, 0.5], [float("inf"), 3.0, 3.0], [0.1, 7.0, 1e-300]]
    labels = ["a", "b", "c", "d"]
    src = tmp_path / "factors.json"
    src.write_text(json.dumps({"left": left, "labels": labels}))
    assert "Infinity" in src.read_text() and "-0.0" in src.read_text()
    assert main(["assign", "--factors", str(src), "--out-dir", str(tmp_path)]) == 0
    expected = "node,assigned,recip_1,recip_2,recip_3\n" + "".join(
        f"{label},{row.index(min(row)) + 1},"
        + ",".join(format(1.0 / v if v > 0 else math.inf, ".17g") for v in row) + "\n"
        for label, row in zip(labels, left)
    )
    assert (tmp_path / "assign.csv").read_text() == expected


def test_assign_quotes_labels_that_hold_csv_specials(tmp_path):
    # edge-list labels may hold commas; quoted GML ids may hold quotes and line breaks too
    (tmp_path / "g.edges").write_text("a,b c,d 1\nc,d e 2\na,b e 4\n")
    argv = ["factor", "--input", str(tmp_path / "g.edges"), "--mode", "sym", "--rank", "1", "--restarts", "2"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    factors = tmp_path / "factors.json"
    record = json.loads(factors.read_text())
    record["labels"][1] = 'say "hi",\nthen\r go'
    factors.write_text(json.dumps(record))
    assert main(["assign", "--factors", str(factors), "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "assign.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert all(len(row) == 3 for row in rows)
    assert [row[0] for row in rows] == ["node"] + record["labels"]
    assert "\ne,1," in (tmp_path / "assign.csv").read_text()  # a plain label stays bare


@pytest.mark.parametrize(
    "record",
    [
        {"left": [[1.0, 2.0], [2.0, 1.0], [3.0, 0.5]], "labels": ["u", "v"]},
        {"left": [[1.0, 2.0], [2.0]]},
        {"left": [[1.0, float("nan")], [2.0, 1.0]]},
        {"left": [[1.0, 2.0], [2.0, 1.0]], "labels": 7},
        {"left": [[]]},
    ],
    ids=["too-few-labels", "ragged-rows", "nan-entry", "labels-not-a-list", "no-columns"],
)
def test_assign_rejects_malformed_factors(record, tmp_path):
    src = tmp_path / "factors.json"
    src.write_text(json.dumps(record))
    assert main(["assign", "--factors", str(src), "--out-dir", str(tmp_path)]) == 3
    assert not (tmp_path / "assign.csv").exists()


def test_assign_missing_file_is_data_error(tmp_path):
    assert main(["assign", "--factors", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)]) == 3


def test_usage_errors_exit_2(edges_file, tmp_path):
    assert main(["factor", "--input", str(edges_file), "--rank", "0"]) == 2
    assert main(["spd"]) == 2
    assert main(["spd", "--input", str(edges_file), "--bogus"]) == 2
    assert main(["nope"]) == 2
    rc = main(
        ["factor", "--input", str(edges_file), "--rank", "9", "--out-dir", str(tmp_path)]
    )
    assert rc == 2  # rank exceeds the input size


@pytest.mark.parametrize("name", ["empty.edges", "empty.csv"])
@pytest.mark.parametrize(
    "command",
    [["factor"], ["baseline", "--method", "svd"], ["baseline", "--method", "nnmf"]],
    ids=["factor", "svd", "nnmf"],
)
def test_rank_above_empty_input_exits_2(tmp_path, name, command):
    src = tmp_path / name
    src.write_text("")
    argv = [*command, "--input", str(src), "--rank", "1", "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert list(tmp_path.glob("*.json")) == []


def test_parse_errors_exit_3(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    assert main(["spd", "--input", str(bad), "--out-dir", str(tmp_path)]) == 3
    missing = tmp_path / "missing.edges"
    assert main(["spd", "--input", str(missing), "--out-dir", str(tmp_path)]) == 3
    badgml = tmp_path / "bad.gml"
    badgml.write_text("graph [ node [ id 1 ]")
    assert main(["spd", "--input", str(badgml), "--out-dir", str(tmp_path)]) == 3
    badgml.write_text("graph [ node [ id 1 ] node [ id 2 ] edge [ source 1 target 2 value [ x 5 ] ] ]")
    assert main(["spd", "--input", str(badgml), "--out-dir", str(tmp_path)]) == 3
    badtext = tmp_path / "bad.txt"  # the suffix would say edge list
    for text, _ in MALFORMED_GML:
        badtext.write_text(text)
        assert main(["spd", "--input", str(badtext), "--format", "gml", "--out-dir", str(tmp_path)]) == 3
    assert not (tmp_path / "spd.csv").exists()


GML_NODES = "node [ id 1 ] node [ id 2 ]"


@pytest.mark.parametrize(
    "body, code, message",
    [
        # every node block is read before any edge block
        (f"edge [ source 1 ] {GML_NODES} node [ label x ]", 3, "node block without 'id'"),
        (f"{GML_NODES} edge [ source 1 target 2 value x ] node [ id 2 ]", 3, "duplicate node id '2'"),
        # within one edge block, the ids come before the weight
        (f"{GML_NODES} edge [ source 1 target 5 value x ]", 3, "edge references unknown node id '5'"),
        (f"{GML_NODES} edge [ source 1 target 5 value -1 ]", 3, "edge references unknown node id '5'"),
        (f"{GML_NODES} edge [ target 2 value -1 ]", 3, "edge block without 'source'"),
        # edge blocks in block order: an earlier bad weight before a later missing source
        (f"{GML_NODES} edge [ source 1 target 2 value -1 ] edge [ target 2 ]", 4, "edge (1, 2): weight '-1'"),
        (f"{GML_NODES} edge [ source 1 target 2 value x ] edge [ target 2 ]", 3, "edge (1, 2): cannot parse weight 'x'"),
    ],
    ids=[
        "node-before-edge", "duplicate-before-edge", "ids-before-unparsed-weight", "ids-before-bad-weight",
        "source-before-weight", "earlier-bad-weight-first", "earlier-unparsed-weight-first",
    ],
)
def test_gml_fault_precedence(tmp_path, capsys, body, code, message):
    src = tmp_path / "faults.gml"
    src.write_text(f"graph [ {body} ]")
    assert main(["spd", "--input", str(src), "--out-dir", str(tmp_path)]) == code
    assert message in capsys.readouterr().err


def test_numerical_errors_exit_4(tmp_path):
    cyc = tmp_path / "neg.csv"
    cyc.write_text("0,-1\n-1,0\n")
    assert main(["spd", "--input", str(cyc), "--out-dir", str(tmp_path)]) == 4
    neg = tmp_path / "neg.edges"
    neg.write_text("a b -1\n")
    assert main(["spd", "--input", str(neg), "--out-dir", str(tmp_path)]) == 4
    dag = tmp_path / "dag.csv"  # finite weights whose closure overflows to -inf, then NaN
    dag.write_text("0,-1e308,inf\ninf,0,-1e308\ninf,inf,0\n")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["spd", "--input", str(dag), "--out-dir", str(tmp_path)]) == 4


@pytest.mark.parametrize(
    "command",
    [["factor", "--rank", "1"], ["residual-curve", "--method", "minplus-sym"]],
)
@pytest.mark.parametrize("mu", ["0", "1.5", "nan"])
def test_mu_outside_unit_interval_exits_2(edges_file, tmp_path, command, mu):
    argv = command + ["--input", str(edges_file), "--mu", mu, "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert list(tmp_path.glob("*.json")) == []


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_cap_or_tol_exits_2(edges_file, tmp_path, value):
    (tmp_path / "A.csv").write_text("0,0\n1,0\n")
    (tmp_path / "y.csv").write_text("0\n1\n")
    for argv in (
        ["factor", "--input", str(edges_file), "--rank", "1", "--cap", value],
        ["regress", "--matrix", str(tmp_path / "A.csv"), "--rhs", str(tmp_path / "y.csv"),
         "--norm", "2", "--tol", value],
    ):
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        assert list(tmp_path.glob("*.json")) == []


@pytest.mark.parametrize("mode", ["sym", "actual"])
def test_nonfinite_result_exits_4_without_json(tmp_path, mode):
    # actual mode overflows in the search's ranking keys and bounds as well
    src = tmp_path / "two.edges"
    src.write_text("a b 1\nc d 2\n")
    out = tmp_path / "run"
    argv = [
        "factor", "--mode", mode, "--input", str(src), "--rank", "1", "--cap", "1e300",
        "--restarts", "2", "--max-iter", "5", "--out-dir", str(out),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv) == 4
    assert list(out.glob("*.json")) == []


@pytest.mark.parametrize("method", ["svd", "minplus-sym"])
def test_nonfinite_residual_curve_exits_4_without_files(tmp_path, method):
    src = tmp_path / "two.edges"
    src.write_text("a b 1\nb c 1\nd e 2\n")
    out = tmp_path / "run"
    argv = [
        "residual-curve", "--method", method, "--input", str(src), "--cap", "1e300",
        "--restarts", "2", "--max-iter", "5", "--out-dir", str(out),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv) == 4
    assert list(out.iterdir()) == []


def test_module_entry_point(edges_file, tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "minplus", "spd",
            "--input", str(edges_file), "--out-dir", str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "spd.csv").exists()


def test_spd_leaves_numpy_ma_unimported(tmp_path):
    # np.unique, np.isin and np.union1d import numpy.ma on first call, 1.7 MB of resident memory
    script = (
        "import sys; from minplus.cli import main; "
        f"main(['spd', '--input', {str(GENERAL_62)!r}, '--out-dir', {str(tmp_path)!r}]); "
        "print('numpy.ma' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
    assert (tmp_path / "spd.csv").exists()


def test_main_calls_in_one_process_match_separate_runs(edges_file, tmp_path):
    # main reuses one parser per process: two commands with a usage error
    # between them give the exit codes and files of three separate runs
    runs = [
        ["spd", "--input", str(edges_file)],
        ["factor", "--rank", "0", "--input", str(edges_file)],
        ["factor", "--mode", "general", "--rank", "2", "--max-iter", "3", "--input", str(edges_file)],
    ]
    codes = [main(argv + ["--out-dir", str(tmp_path / "one" / str(k))]) for k, argv in enumerate(runs)]
    assert codes == [0, 2, 0]
    assert cli._build_parser() is cli._build_parser()
    for k, argv in enumerate(runs):
        out = tmp_path / "apart" / str(k)
        proc = subprocess.run([sys.executable, "-m", "minplus", *argv, "--out-dir", str(out)], capture_output=True)
        assert proc.returncode == codes[k]
        one = tmp_path / "one" / str(k)
        assert out.exists() == one.exists()
        names = sorted(p.name for p in out.iterdir()) if out.exists() else []
        assert names == (sorted(p.name for p in one.iterdir()) if one.exists() else [])
        for name in names:
            if name.endswith("_report.json"):
                a, b = (json.loads((d / name).read_text()) for d in (out, one))
                for rep in (a, b):
                    for key in ("wall_time_s", "outputs", "command"):
                        rep.pop(key)
                    rep["parameters"].pop("out_dir")
                assert a == b
            else:
                assert (out / name).read_bytes() == (one / name).read_bytes()


@pytest.mark.parametrize("cap", ["0.5", "1e308"])  # below the largest distance 2; 2*cap overflows
@pytest.mark.parametrize(
    "command",
    [
        ["factor", "--mode", "sym", "--rank", "1"],
        ["baseline", "--method", "svd", "--rank", "1"],
        ["residual-curve", "--method", "minplus-sym"],
    ],
)
def test_cap_out_of_range_exits_2_before_work(tmp_path, command, cap):
    src = tmp_path / "two.edges"
    src.write_text("a b 1\nb c 1\nd e 2\n")
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow and no idempotency warning: nothing ran
        assert main(command + ["--input", str(src), "--cap", cap, "--out-dir", str(out)]) == 2
    assert list(out.iterdir()) == []


# inputs of the exit-code table, by file name
EXIT_INPUTS = {
    "six.edges": EXAMPLE_EDGES,
    "split.edges": "a b 1\nb c 1\nd e 2\n",  # two components: inf distances
    "neg.edges": "a b -1\n",
    "bad.csv": "1,2\n3\n",
    "cycle.csv": "0,-1\n-1,0\n",
    "A.csv": "0,0\n1,0\n",
    "infrow.csv": "0,0\ninf,inf\n",
    "y.csv": "0\n1\n",
    "short.csv": "0\n",
    "factors.json": '{"left": [[1, 2]], "labels": ["a", "b"]}',
    "asym_inf.csv": "0,1\ninf,0\n",
    "x0inf.csv": "inf,0\n",
}
FACTOR = ["factor", "--restarts", "1", "--max-iter", "2", "--input"]
REGRESS = ["regress", "--matrix", "A.csv", "--rhs"]


@pytest.mark.parametrize(
    "argv, code",
    [
        # 2: a flag's value, checked by argparse or against the input before any work
        ([*FACTOR, "six.edges", "--rank", "0"], 2),
        ([*FACTOR, "six.edges", "--rank", "1", "--mu", "1.5"], 2),
        ([*FACTOR, "six.edges", "--rank", "1", "--mode", "bogus"], 2),
        ([*FACTOR, "six.edges", "--rank", "1", "--cap", "nan"], 2),
        ([*REGRESS, "y.csv", "--norm", "2", "--tol", "inf"], 2),
        (["spd"], 2),
        ([*FACTOR, "six.edges", "--rank", "7"], 2),
        ([*FACTOR, "split.edges", "--rank", "1", "--cap", "0.5"], 2),
        (["residual-curve", "--method", "svd", "--input", "split.edges", "--cap", "1e308"], 2),
        # 3: a file that cannot be read or parsed, or whose shape is wrong
        (["spd", "--input", "bad.csv"], 3),
        (["spd", "--input", "missing.edges"], 3),
        (["spd", "--input", "six.edges", "--format", "matrix-csv"], 3),
        ([*REGRESS, "short.csv"], 3),
        ([*REGRESS, "y.csv", "--norm", "2", "--x0", "short.csv"], 3),
        (["assign", "--factors", "factors.json"], 3),
        # 4: the numbers: a negative cycle or weight, or inf entries in a finite objective
        (["spd", "--input", "cycle.csv"], 4),
        (["spd", "--input", "neg.edges"], 4),
        ([*FACTOR, "split.edges", "--rank", "1"], 4),
        (["baseline", "--method", "svd", "--rank", "1", "--input", "split.edges"], 4),
        (["residual-curve", "--method", "minplus-sym", "--input", "split.edges"], 4),
        (["regress", "--matrix", "infrow.csv", "--rhs", "y.csv"], 4),
        # two faults: argparse runs first, then the input is read, then --cap and --rank are checked
        ([*FACTOR, "split.edges", "--rank", "7"], 2),
        (["baseline", "--method", "svd", "--rank", "7", "--input", "split.edges"], 2),
        ([*FACTOR, "bad.csv", "--rank", "0"], 2),
        ([*REGRESS, "short.csv", "--norm", "2", "--tol", "nan"], 2),
        ([*FACTOR, "bad.csv", "--rank", "7"], 3),
        ([*FACTOR, "missing.edges", "--rank", "1", "--cap", "0.5"], 3),
        ([*FACTOR, "neg.edges", "--rank", "7"], 4),
        # a non-symmetric matrix with an inf entry: the minplus-sym check of symmetry is a data error (3),
        # and each other method rejects the inf entry (4), as the Newton solver rejects an infinite x0
        (["residual-curve", "--method", "minplus-sym", "--input", "asym_inf.csv"], 3),
        (["residual-curve", "--method", "minplus-general", "--input", "asym_inf.csv"], 4),
        (["residual-curve", "--method", "svd", "--input", "asym_inf.csv"], 4),
        (["residual-curve", "--method", "nnmf", "--input", "asym_inf.csv"], 4),
        ([*REGRESS, "y.csv", "--norm", "2", "--x0", "x0inf.csv"], 4),
    ],
)
def test_exit_code_by_flag_class(tmp_path, monkeypatch, argv, code):
    for name, text in EXIT_INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == code
    assert not out.exists() or list(out.iterdir()) == []
