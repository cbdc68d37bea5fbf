"""Benchmark of the minplus CLI: end-to-end metrics, or per-layer metrics
from a traced run.

    python3 bench/run.py --workload sym-curve-62 --seed 1 --trace 0
    python3 bench/run.py                  # every workload, one after another

Run from a checkout: the program is imported from its src/ directory.
Each workload runs in a fresh single-threaded process (worker.py); this
script measures set-up time, starts that process, checks every output
against its own computations (checks.py), and prints each metric by name
and unit. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. Metric names, units, bounds
and the run length are read from BENCHMARK.json at the checkout root.
The exit code is 1 when an output is wrong or an operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refkernel
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_LAUNCHES = 10
SETUP_NEAR = 2
WORKER_TIMEOUT_S = 170
SINGLE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({name: "1" for name in SINGLE_THREAD})
    return env


def measure_setup_s(env: dict[str, str]) -> tuple[float, float]:
    """Median scaled and raw seconds to start python3 and import minplus.cli.

    One pass of the reference kernel runs before the first launch and
    after each one. A launch is scaled by the median of the SETUP_NEAR
    passes on each side of it: a single pass is short enough that its own
    noise showed in the result.
    """
    launches, refs = [], [refkernel.kernel_once()]
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import minplus.cli"], env=env, cwd=ROOT, check=True)
        launches.append(time.perf_counter() - start)
        refs.append(refkernel.kernel_once())
    scaled = [
        t / refkernel.speed_index([statistics.median(refs[max(0, i + 1 - SETUP_NEAR): i + 1 + SETUP_NEAR])], [])
        for i, t in enumerate(launches)
    ]
    return statistics.median(scaled), statistics.median(launches)


def run_worker(name: str, seed: int, seconds: int, trace: int, env: dict[str, str]) -> dict:
    out = OUT_DIR / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result_path = out / "records.json"
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out-dir", str(out),
        "--result", str(result_path),
    ]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads(result_path.read_text())


def check_records(name: str, records: list[dict]) -> tuple[int, list[str], dict[int, float]]:
    """Failed count, problems in outputs of operations that did not fail,
    and the relative residual of each plain operation by index. Marks each
    record "ok" when its operation did not fail."""
    workload = WORKLOADS[name]
    failed, problems, residuals = 0, [], {}
    for record in records:
        record["ok"] = not (record["error"] or any(record["codes"]) or not record["codes"])
        if not record["ok"]:
            failed += 1
            print(f"  op {record['index']} ({record['mode']}) failed: exit codes {record['codes']}"
                  f"{' ' + record['error'] if record['error'] else ''}", file=sys.stderr)
            continue
        try:
            found, rel = workload.check(Path(record["dir"]))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found, rel = [f"output unreadable: {exc!r}"], float("nan")
        problems += [f"op {record['index']} ({record['mode']}): {p}" for p in found]
        if record["mode"] == "plain":
            residuals[record["index"]] = rel
    return failed, problems, residuals


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: int, trace: int, spec: dict) -> dict:
    env = _program_env()
    setup_s, setup_raw = measure_setup_s(env) if not trace else (None, None)
    result = run_worker(name, seed, seconds, trace, env)
    records = result["records"]
    failed, problems, residuals = check_records(name, records)
    # times and layer figures come only from operations that did not fail
    plain = [r for r in records if r["mode"] == "plain" and r["ok"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    # the first operation warms the process up: it is checked, not timed
    timed_plain = [r for r in plain if r["index"] > 0]
    if not timed_plain:
        raise SystemExit(f"{name}: no timed operation succeeded")
    print(f"{name}: seed {seed}, {len(records)} operations attempted, {failed} failed, "
          f"raw op median {statistics.median(r['raw_s'] for r in timed_plain):.4f} s, "
          f"reference kernel median {statistics.median(x for r in records for x in r['refs']):.4f} s "
          f"(nominal {refkernel.NOMINAL_REF_S} s)")
    sampled = [r["sample_mean_s"] for r in records if r["samples"]]
    if sampled:
        print(f"  in-op sample median {statistics.median(sampled):.5f} s "
              f"(nominal {refkernel.NOMINAL_SAMPLE_S} s)")
    if trace:
        traced = [r for r in records if r["mode"] == "traced" and r["ok"]]
        memory = [r for r in records if r["mode"] == "memory" and r["ok"]]
        if not traced or not memory:
            raise SystemExit(f"{name}: no traced operation succeeded")
        # one traced pass per fixed operation: memory for the first, time for the rest
        fixed = [r for r in traced + memory if r["index"] < result["fixed_ops"]]
        known = set(result["layer_metric_names"]) | {"trace.overhead_ratio"}
        plain_s = {r["index"]: r["op_s"] for r in plain}
        overhead = statistics.median(t["op_s"] / plain_s[t["index"]] for t in traced if t["index"] in plain_s)
        metrics = {}
        for m in spec["per_layer"]:
            metric = m["name"]
            if metric not in known:
                raise SystemExit(f"per-layer metric {metric} is not produced by the tracer")
            if metric == "trace.overhead_ratio":
                value = overhead
            elif metric.endswith(".peak_mb"):
                value = statistics.median(r["layers"].get(metric, 0.0) for r in memory)
            elif m["unit"] == "count":  # exact per instance: mean over the fixed instances
                value = statistics.fmean(r["layers"].get(metric, 0) for r in fixed)
            else:
                value = statistics.median(r["layers"].get(metric, 0.0) for r in traced)
            metrics[metric] = _metric(value, m["unit"])
    else:
        fixed_residuals = [residuals[i] for i in range(result["fixed_ops"]) if i in residuals]
        values = {
            "op_s": statistics.median(r["op_s"] for r in timed_plain),
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
            "rel_residual": statistics.fmean(fixed_residuals) if fixed_residuals else float("nan"),
        }
        metrics = {m["name"]: _metric(values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
        print(f"  setup raw median {setup_raw:.4f} s over {SETUP_LAUNCHES} launches")
    for key, metric in metrics.items():
        print(f"  {key} = {metric['value']:.6g} {units[key]}")
    for problem in problems:
        print(f"  CHECK FAILED {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["all", *WORKLOADS], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "minplus" / "cli.py").is_file() or not spec_path.is_file():
        print(f"bench: {ROOT} is not a minplus checkout (src/minplus/cli.py and BENCHMARK.json "
              "are needed)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    # The bounds hold for runs of run_seconds; a run of another length is refused.
    seconds = spec["run_seconds"]
    if args.seconds not in (None, seconds):
        print(f"bench: --seconds must be {seconds}, the run_seconds of BENCHMARK.json", file=sys.stderr)
        return 2
    # One CPU for this process and every process it starts, so that the
    # reference kernel always runs where the measured work runs: the two
    # CPUs of a shared machine slow down independently of each other.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, seconds, args.trace, spec) for name in names}
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        for name, result in results.items():
            print(f"{name} {json.dumps(result)}")
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary, allow_nan=False))
    if summary["failed"]:
        print(f"bench: {summary['failed']} operations failed", file=sys.stderr)
    return 0 if summary["correct"] and not summary["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
