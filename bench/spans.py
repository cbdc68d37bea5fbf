"""Span tracer for the traced run.

Rebinds every public function of the minplus layer modules, in every
layer module's namespace, to a wrapper that records a span (name, start,
end, parent). Nothing in src/ changes: the wrappers are installed from
here for one operation and the original functions are put back
afterwards. Spans are kept in memory and written as JSONL when the run
ends.

An operation is traced in one of two passes:

* "time": spans only. Times come from this pass.
* "memory": spans plus tracemalloc, recording the peak of traced memory
  inside each span. tracemalloc slows allocation-heavy Python 7-10x
  (general-factor-62, baselines-120), which would distort every time, so
  peaks are taken in a pass of their own.

Call counts and the counters read from return values are the same in
both passes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("cli", "graphs", "core", "regression", "factorization", "baselines")
MIB = float(1 << 20)

# Counters read from return values, by span name.
COUNTERS_FROM_RESULT = {
    "factorization.sym_factorize": lambda pair: {
        "factorization.sym_iterations": len(pair.iteration_trace) - 1,
        "factorization.restarts_used": pair.restarts_used,
    },
    "regression.newton_directed_line_search": lambda outcome: {
        "regression.newton_iterations": outcome.iterations,
    },
}
COUNTER_NAMES = ("factorization.sym_iterations", "factorization.restarts_used", "regression.newton_iterations")
SPAN_KEYS = ("op", "pass", "id", "parent", "name", "start", "end", "peak_bytes")


class Tracer:
    def __init__(self) -> None:
        self.modules = [importlib.import_module(f"minplus.{layer}") for layer in LAYERS]
        self.functions = {}  # original function -> span name
        for layer, module in zip(LAYERS, self.modules):
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    self.functions[obj] = f"{layer}.{attr}"
        self.spans: list[tuple] = []  # SPAN_KEYS plus an outermost-of-its-name flag
        self.counters: dict[tuple[int, str], Counter] = defaultdict(Counter)
        self._stack: list[list] = []
        self._depth: Counter = Counter()
        self._key = (-1, "time")
        self._memory = False

    @contextmanager
    def tracing(self, op: int, memory: bool):
        """Trace one operation in the "memory" pass or the "time" pass."""
        restore = []
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self.functions:
                    restore.append((module, attr, obj))
                    setattr(module, attr, self._wrap(self.functions[obj], obj))
        self._key = (op, "memory" if memory else "time")
        self._memory = memory
        if memory:
            tracemalloc.start()
        try:
            yield
        finally:
            if memory:
                tracemalloc.stop()
            for module, attr, obj in restore:
                setattr(module, attr, obj)

    def _wrap(self, name: str, fn):
        counts = COUNTERS_FROM_RESULT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if counts is not None:
                self.counters[self._key].update(counts(result))
            return result

        return traced

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        current = 0
        if self._memory:
            # hand the peak so far to the parent, then measure this span alone
            _, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent[4] = max(parent[4], peak)
            tracemalloc.reset_peak()
            current, _ = tracemalloc.get_traced_memory()
        self._depth[name] += 1
        frame = [
            len(self.spans) + len(self._stack), parent[0] if parent else None,
            name, current, current, self._depth[name] == 1, time.perf_counter(),
        ]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, parent, name, base, high, outermost, start = frame
        self._depth[name] -= 1
        peak = None
        if self._memory:
            high = max(high, tracemalloc.get_traced_memory()[1])
            if self._stack:
                self._stack[-1][4] = max(self._stack[-1][4], high)
            tracemalloc.reset_peak()
            peak = high - base
        self.spans.append((*self._key, span_id, parent, name, start, end, peak, outermost))

    def write_jsonl(self, path: Path) -> None:
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(SPAN_KEYS, span))) + "\n")

    def op_metrics(self, op: int, memory: bool) -> dict[str, float]:
        """Per-layer metrics of one traced pass of an operation.

        <layer>.self_s: the time in the layer's spans not covered by child
        spans. <layer>.<function>.calls and .busy_s: the span count and the
        time in outermost spans of that name. Counters read from return
        values are added as they are. The memory pass adds
        <layer>.<function>.peak_mb, the largest tracemalloc peak above the
        span's starting level; its times are slowed by tracemalloc.
        """
        key = (op, "memory" if memory else "time")
        spans = [s for s in self.spans if s[:2] == key]
        child_time: Counter = Counter()
        for s in spans:
            if s[3] is not None:
                child_time[s[3]] += s[6] - s[5]
        metrics: dict[str, float] = defaultdict(float)
        for _, _, span_id, _, name, start, end, peak, outermost in spans:
            metrics[f"{name.split('.', 1)[0]}.self_s"] += (end - start) - child_time[span_id]
            metrics[f"{name}.calls"] += 1
            if outermost:
                metrics[f"{name}.busy_s"] += end - start
            if memory:
                metrics[f"{name}.peak_mb"] = max(metrics[f"{name}.peak_mb"], peak / MIB)
        metrics.update(self.counters[key])
        return dict(metrics)

    @property
    def metric_names(self) -> set[str]:
        """Every name op_metrics can produce."""
        stats = ("calls", "busy_s", "peak_mb")
        return (
            {f"{layer}.self_s" for layer in LAYERS}
            | set(COUNTER_NAMES)
            | {f"{name}.{stat}" for name in self.functions.values() for stat in stats}
        )
