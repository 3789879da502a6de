"""Wall time rescaled to a reference speed.

The speed of a shared benchmark host drifts by 20-60% over seconds to tens
of seconds: a fixed CPU-bound loop, timed in 5 s windows over 150 s on a
2-vCPU machine, had window medians between 4.7 and 7.5 ms, and its process
CPU time drifted just as much. The program's timings drift with it.

So the speed is measured all along a timed sample: a fixed reference kernel
(small numpy products driven from Python, like most of the program's work)
runs just before and just after the sample and, from a SIGALRM handler,
every TICK_SECONDS inside it. Each stretch of the sample between two kernel
runs is rescaled by REF_SECONDS / (the mean kernel time at its two ends),
and the kernel runs themselves are left out. A sample thus reads as the
time it would have taken at the speed at which the kernel takes
REF_SECONDS. On the host above, the kernel runs around each sample cut the
spread between 5 s windows of paper-scale predict timings from 25% to 2%;
a kernel with a pure-Python loop in it tracked the program less well (4%).
The ticks matter for samples of many seconds: see bench/README.md.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

REF_SECONDS = 0.0011  # the kernel's usual time between program calls on a 2-vCPU x86-64 VM
TICK_SECONDS = 0.25
REPEATS = 3
_A = np.random.default_rng(0).normal(size=(64, 64))


def reference_kernel() -> None:
    x = _A
    for _ in range(40):
        x = np.tanh(x @ _A * 0.01)


class Sample:
    seconds: float = 0.0  # wall time at the reference speed, kernel runs left out


class RefClock:
    def __init__(self, ticking: bool):
        # A traced run measures only around each sample, so that no signal
        # handler runs inside a layer's span.
        self.ticking = ticking
        self.kernel = reference_kernel  # a traced run swaps in a wrapped kernel
        self.refs: list[float] = []  # every kernel time measured, for the report
        self._ticks: list[tuple[float, float, float]] | None = None  # (start, end, ref) inside a sample

    def reference(self) -> float:
        """Best of a few kernel runs: a stray interrupt only ever adds time."""
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - t0)
        self.refs.append(best)
        return best

    def _tick(self, _signum, _frame) -> None:
        if self._ticks is None:
            return
        ticks, self._ticks = self._ticks, None  # no nested ticks while measuring
        start = time.perf_counter()
        ref = self.reference()
        ticks.append((start, time.perf_counter(), ref))
        self._ticks = ticks

    @contextmanager
    def _ticking(self, ticks: list):
        """Measure the speed every TICK_SECONDS into `ticks` while inside."""
        if not self.ticking:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._ticks = ticks
        signal.setitimer(signal.ITIMER_REAL, TICK_SECONDS, TICK_SECONDS)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._ticks = None
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def timed(self):
        if self._ticks is not None:
            raise RuntimeError("timed samples do not nest")
        sample = Sample()
        ticks: list[tuple[float, float, float]] = []
        ref0 = self.reference()
        with self._ticking(ticks):
            t0 = time.perf_counter()
            try:
                yield sample
            finally:
                t1 = time.perf_counter()
        sample.seconds = rescale(t0, t1, ref0, ticks, self.reference())


def rescale(t0: float, t1: float, ref0: float, ticks, ref1: float) -> float:
    """Reference-speed seconds of [t0, t1], less the kernel runs in `ticks`."""
    scaled = 0.0
    edge, ref = t0, ref0
    for start, end, r in list(ticks) + [(t1, t1, ref1)]:
        scaled += (start - edge) * REF_SECONDS / ((ref + r) / 2.0)
        edge, ref = end, r
    return scaled
