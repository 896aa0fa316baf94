"""The speed-calibration kernel.

The machines this benchmark runs on drift in speed by up to 1.5x over
minutes, with CPU time tracking wall time, so raw timings of the same
code disagree between runs.  The kernel below is timed between batches
of real work; every end-to-end timing is divided by the speed ratio
``calib_ms / CALIB_REF_MS`` measured next to it.  Timings are therefore
reported in milliseconds and seconds *at the reference speed*.

The kernel is pure-int arithmetic, a method call per step and a lookup
in a dict built at import.  It allocates no gc-tracked object (small
ints are never tracked), so neither the program's heap size nor the
cyclic collector can change its cost: it measures the machine, not the
state the workload left behind.  ``test_counts.py`` checks this by
comparing the kernel alone, before any workload, with its interleaved
value.
"""

from __future__ import annotations

import statistics
import time

CALIB_REF_MS = 1.0
"""Kernel time (ms per sample) that defines the reference speed.  On the
2-core x86-64 VM the benchmark was built on, samples ranged from 0.8 ms
to 2.0 ms as the machine's speed drifted; see NOTES.md."""

_LOOPS = 4000
_TABLE = {index: (index * 2654435761) & 0xFFFF for index in range(4096)}


class _Mixer:
    __slots__ = ()

    def mix(self, left: int, right: int) -> int:
        return ((left ^ right) * 1103515245 + 12345) & 0xFFFFFF


def kernel(loops: int = _LOOPS) -> int:
    mixer = _Mixer()
    table = _TABLE
    acc = 1
    for step in range(loops):
        acc = mixer.mix(acc, step)
        acc += table[acc & 4095]
    return acc


def factor(samples_ms: list[float]) -> float:
    """The speed correction for work timed between ``samples_ms``."""
    return CALIB_REF_MS / statistics.fmean(samples_ms)


def sample() -> float:
    """One calibration sample in ms: the median of three kernel runs, so
    a single preemption does not skew it."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        kernel()
        times.append((time.perf_counter() - started) * 1000.0)
    times.sort()
    return times[1]


class Calibrator:
    """Interleaves kernel samples with batches of work.

    Call :meth:`tick` after each batch; it returns the batch's index.
    Once the run is over, :meth:`factor` gives a batch's speed correction
    from the median of the samples within three ticks of it: local
    enough to follow the machine's speed switches, which last seconds,
    and robust to a sample disturbed by other work (such as the serve
    daemon finishing a reply on the same CPU).
    """

    WINDOW = 3

    def __init__(self) -> None:
        self.samples: list[float] = [sample()]

    def tick(self) -> int:
        self.samples.append(sample())
        return len(self.samples) - 2

    def factor(self, batch: int) -> float:
        window = self.samples[max(0, batch + 1 - self.WINDOW): batch + 1 + self.WINDOW]
        return CALIB_REF_MS / statistics.median(window)
