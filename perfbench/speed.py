"""Timings corrected for the speed of a shared machine.

On a host shared with other tenants, the same single-threaded work can take
up to twice as long from one second to the next (measured on the 2-vCPU Intel
Xeon host this benchmark was defined on: a fixed pure-Python loop swung
between 56 and 100 ms in phases of 1 to 10 s, and the run-to-run spread of
raw pass times reached 35% of their median).  Each timing is therefore
corrected by the machine's speed, measured in the same process at the same
time: a fixed pure-Python calibration kernel runs just before and just after
the timed work and, through SIGALRM, every ``SAMPLE_INTERVAL_S`` during it.
The corrected time is

    raw time * mean(REFERENCE_S / kernel time)

that is, the time the work would have taken at the speed where one kernel
run takes ``REFERENCE_S``.  Kernel runs inside the timed work are taken out
of its raw time.  Signals are handled in the main thread between bytecodes,
so no thread is started; a long call into native code delays the next
sample until it returns.
"""
from __future__ import annotations

import signal
import time
from typing import Callable, TypeVar

KERNEL_ITERATIONS = 8000
# The kernel's time on the defining host in its faster phases; corrected
# times there read close to the raw times of an unloaded machine.
REFERENCE_S = 0.00075
SAMPLE_INTERVAL_S = 0.05

T = TypeVar("T")


def kernel() -> float:
    """Run the calibration kernel once; returns its wall time in seconds."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(KERNEL_ITERATIONS):
        total += (i * i) % 7
        table[i & 63] = total
    return time.perf_counter() - start


def factor(samples: list[float]) -> float:
    """Mean speed over the samples, relative to the reference speed."""
    return sum(REFERENCE_S / s for s in samples) / len(samples)


class Meter:
    """Times calls and corrects each time by the speed sampled around and during it.

    Installs a SIGALRM handler for the life of the process; use one meter per process.
    """

    def __init__(self):
        self._samples: list[float] = []
        self._active = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, *_) -> None:
        if self._active:  # a signal still pending after the timer stopped is ignored
            self._samples.append(kernel())

    def time(self, fn: Callable[[], T]) -> tuple[T, float, float]:
        """(result, raw seconds, corrected seconds) of ``fn()``."""
        before = kernel()
        self._samples = []
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._active = False
        during = self._samples
        raw = elapsed - sum(during)
        return result, raw, raw * factor([before, *during, kernel()])
