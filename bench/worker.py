"""Workload process: one workload's closed loop through minplus.cli.main.

Started by run.py with PYTHONPATH set to the checkout's src/ and BLAS
threads set to 1. One client, one operation at a time: generate the
operation's input, run its CLI calls, time them, run the reference kernel.
Operations continue until --seconds have passed and at least the
workload's fixed operations are done. With --trace 1 each operation after
the first runs twice on the same input, first untraced and then traced,
so the tracing overhead is measured on identical work; the first runs
once, under tracemalloc, for the memory peaks (see spans.py).

Writes one JSON file with a record per operation; run.py checks the
outputs and turns the records into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import time
import traceback
from pathlib import Path

import refkernel
from workloads import WORKLOADS


def _status_mb(field: str) -> float:
    """A memory field of this process's own address space, such as VmHWM
    (high-water resident set) or VmRSS (resident set now).

    ru_maxrss is not used: on Linux it also counts the parent's memory
    at the moment the parent spawned this process.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} missing from /proc/self/status")


def _run_op(cli, argvs: list[list[str]], sampler: refkernel.Sampler | None):
    """Wall seconds (sampler time excluded), exit codes and error text of
    one operation's CLI calls."""
    codes: list[int] = []
    error = None
    with sampler or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            for argv in argvs:
                codes.append(cli.main(argv))
                if codes[-1] != 0:
                    break
        except Exception:  # an escaped exception fails the operation, not the run
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
    return elapsed - (sampler.spent_s if sampler else 0.0), codes, error


def _passes(trace: int, index: int) -> tuple[str, ...]:
    """The passes of one operation. In a traced run the first operation,
    the untimed warm-up, runs only under tracemalloc for the memory peaks;
    every later one runs untraced and then traced for times."""
    if not trace:
        return ("plain",)
    return ("memory",) if index == 0 else ("plain", "traced")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    from minplus import cli

    workload = WORKLOADS[args.workload]
    out_dir = Path(args.out_dir)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    sampler = refkernel.Sampler()
    records = []
    peak_rss_mb = None
    ref_before = None
    start = time.perf_counter()
    index = 0
    while index < workload.fixed_ops or time.perf_counter() - start < args.seconds:
        base = out_dir / f"op{index:04d}"
        workload.write_input(base, args.seed, index)
        for mode in _passes(args.trace, index):
            op_dir = base
            tracing = contextlib.nullcontext()
            if mode != "plain":
                # traced outputs go next to the plain ones, from the same input
                op_dir = base / mode
                workload.write_input(op_dir, args.seed, index)
                tracing = tracer.tracing(index, memory=mode == "memory")
            # in-op samples are not taken under tracemalloc, which slows them
            # as much as the program, and would add their arrays to the peaks
            op_sampler = None if mode == "memory" else sampler
            with tracing:
                raw_s, codes, error = _run_op(cli, workload.argvs(op_dir), op_sampler)
            if peak_rss_mb is None:
                # one fresh process through one operation, before any reference kernel
                peak_rss_mb = _status_mb("VmHWM")
            else:
                # what later operations keep resident: a leak or a growing cache
                peak_rss_mb = max(peak_rss_mb, _status_mb("VmRSS"))
            ref_after = refkernel.measure()
            refs = [r for r in (ref_before, ref_after) if r is not None]
            samples = op_sampler.samples if op_sampler else []
            speed = refkernel.speed_index(refs, samples)
            record = {
                "index": index,
                "mode": mode,
                "dir": str(op_dir),
                "codes": codes,
                "error": error,
                "raw_s": raw_s,
                "refs": refs,
                "samples": len(samples),
                "sample_mean_s": sum(samples) / len(samples) if samples else None,
                "op_s": raw_s / speed,
            }
            if mode != "plain":
                record["layers"] = {
                    k: v / speed if k.endswith("_s") else v
                    for k, v in tracer.op_metrics(index, memory=mode == "memory").items()
                }
            records.append(record)
            ref_before = ref_after
        index += 1

    result = {"records": records, "peak_rss_mb": peak_rss_mb, "fixed_ops": workload.fixed_ops}
    if tracer:
        tracer.write_jsonl(out_dir / "spans.jsonl")
        result["layer_metric_names"] = sorted(tracer.metric_names)
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
