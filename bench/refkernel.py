"""Reference kernel used to scale operation times.

CPU speed on a shared machine drifts in phases lasting seconds: raw
seconds of identical code differ by a third from one run to the next, and
by more within a run. So each operation's time is divided by a speed
index and reported in nominal seconds, the time it would take when the
kernel runs at its nominal speed.

The speed index averages two measurements of the same kinds of work:

* the full kernel, run in the workload process just before and just after
  each operation (`measure`). It mixes interpreter-bound Python, numpy
  calls on short vectors, broadcast reductions over arrays that fit in
  cache, and a reduction over a temporary of tens of MiB;
* a small kernel without the large temporary, run every SAMPLE_INTERVAL_S
  during the operation from a SIGALRM handler (`Sampler`). Phases often
  change in the middle of an operation of several seconds, which the
  measurements at its ends cannot see. The handler's own time is
  subtracted from the operation's time.

On 7 to 30 operations per workload, the per-operation coefficient of
variation fell from 10-19% raw to 4-10% scaled this way; either
measurement alone did worse on three of the four workloads.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Kernel times on the machine where the reference figures in README.md
# were taken, in a fast phase. Changing them rescales every time metric.
NOMINAL_REF_S = 0.08
NOMINAL_SAMPLE_S = 0.003

REPEATS = 3
SAMPLE_INTERVAL_S = 0.1
_LARGE_SIDE = 180  # 180^3 float64 temporary: 44 MiB

_V = np.linspace(0.0, 1.0, 62)
_F = np.linspace(0.0, 5.0, 62 * 8).reshape(62, 8)
_A = np.linspace(0.0, 1.0, _LARGE_SIDE * _LARGE_SIDE).reshape(_LARGE_SIDE, _LARGE_SIDE)


def _interpreted(count: int) -> float:
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(count):
        key = i & 255
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += table[key] % 7.0
    return acc


def _small_numpy(count: int) -> float:
    acc = 0.0
    for _ in range(count):
        w = _V + acc
        acc = float(w.min()) * 1e-9 + float(np.abs(w).sum()) * 1e-12
    return acc


def _medium_numpy(count: int) -> float:
    acc = 0.0
    for _ in range(count):
        pairs = _F[:, None, :] + _F[None, :, :]
        acc += float(pairs.argmin(axis=2).sum()) + float(pairs.min(axis=2).sum())
    return acc


def _large_numpy() -> float:
    return float(np.min(_A[:, :, None] + _A.T[None, :, :], axis=1).sum())


def _small_kernel() -> None:
    _interpreted(3000)
    _small_numpy(200)
    _medium_numpy(2)


def kernel_once() -> float:
    """Wall seconds of one pass of the full kernel, about 20 ms per part."""
    start = time.perf_counter()
    _interpreted(62000)
    _small_numpy(4000)
    _medium_numpy(34)
    _large_numpy()
    return time.perf_counter() - start


def measure() -> float:
    """Median of REPEATS passes of the full kernel."""
    return statistics.median(kernel_once() for _ in range(REPEATS))


class Sampler:
    """Runs the small kernel every SAMPLE_INTERVAL_S while active.

    A signal handler runs between bytecodes, so a sample that falls in a
    long numpy call waits for it to return; samples are never nested.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        _small_kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent_s += elapsed

    def __enter__(self) -> "Sampler":
        self.samples, self.spent_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def speed_index(refs: list[float], samples: list[float]) -> float:
    """Slowness relative to nominal: 1.0 at nominal speed, 1.3 when 30% slower."""
    index = statistics.fmean(refs) / NOMINAL_REF_S
    if samples:
        index = (index + statistics.fmean(samples) / NOMINAL_SAMPLE_S) / 2.0
    return index
