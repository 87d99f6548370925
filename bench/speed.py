"""The host's speed, sampled on the thread that does a workload's work.

This host shares its cores with other guests, and how fast it runs one
thread moves by 10-50% within minutes: a CPU clock moves with it.  A
fixed set-up took 1.9 CPU-s in one run of a ten-run set and 2.9 CPU-s
in another, and passes of one sweep over the same inputs spread 7-10%
(interquartile range over median).  So, every ``PERIOD_S`` of the
working thread's CPU time, the benchmark runs :func:`kernel` on that
thread and times it.  A measured unit's CPU time, times
``KERNEL_REF_S`` over the kernel's mean time during the unit, is the
time the unit would have taken on a host that runs the kernel in
``KERNEL_REF_S``: the *reference time*.  Measured this way, the same
passes spread 2-3%, because the kernel slows with the program, while
the program's own changes leave the kernel alone: it is pure Python on
its own data, and only the second of two back-to-back runs is timed,
so what the program left in the caches does not reach it.

From run to run the program's time moved about as much as the
kernel's or more (fitted exponents of 0.7-1.8 over sets of ten runs),
so the reference time is taken in proportion to the kernel's time, with
no fitted exponent.
"""

from __future__ import annotations

import gc
import signal
import time
from contextlib import contextmanager
from itertools import repeat

# The reference host runs the warm kernel in 30 us.  The baseline's
# 2-core host took 27-36 us: 28 in a loop of samples, more between the
# program's steps.
KERNEL_REF_S = 30e-6
PERIOD_S = 0.01


def kernel() -> float:
    """A fixed interpreter workload of ~30 us.  Its floats come from the
    interpreter's free list, so neither the size nor the layout of the
    program's heap reaches its time."""
    x = 0.5
    for _ in repeat(None, 2000):
        x = x * 0.999 + 0.25
    return x


class HostSpeed:
    """Kernel samples taken on one thread, and the time they cost.

    ``enabled=False`` (traced runs) takes no samples and makes every
    :meth:`factor` 1.0, so measurements stay raw CPU time.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spent_s = 0.0  # CPU time spent sampling, to take out of units
        self.kernel_s = 0.0  # the timed (second) kernel runs
        self.samples = 0
        self._due = 0.0

    def sample(self) -> None:
        # A collection of the program's heap must not land in a sample.
        collecting = gc.isenabled()
        gc.disable()
        began = time.thread_time()
        kernel()
        warm = time.thread_time()
        kernel()
        end = time.thread_time()
        if collecting:
            gc.enable()
        self.kernel_s += end - warm
        self.samples += 1
        self.spent_s += end - began

    def tick(self) -> None:
        """Sample when ``PERIOD_S`` of this thread's CPU time has passed
        since the last sample."""
        if self.enabled and time.thread_time() >= self._due:
            self.sample()
            self._due = time.thread_time() + PERIOD_S

    def mark(self) -> tuple[float, int]:
        return self.kernel_s, self.samples

    def factor(self, mark: tuple[float, int]) -> float:
        """Reference seconds per CPU second over the samples since
        ``mark`` (a unit too short to hold one gets a fresh sample)."""
        if not self.enabled:
            return 1.0
        if self.samples == mark[1]:
            self.sample()
        mean = (self.kernel_s - mark[0]) / (self.samples - mark[1])
        return KERNEL_REF_S / mean

    def start(self) -> None:
        """Sample from a SIGVTALRM handler on the main thread every
        ``PERIOD_S`` of process CPU time, until :meth:`stop`: for work
        the benchmark cannot tick between (imports, a ``run_sweep``
        call)."""
        if self.enabled:
            signal.signal(signal.SIGVTALRM, lambda *_: self.sample())
            signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0.0, 0.0)
            signal.signal(signal.SIGVTALRM, signal.SIG_IGN)

    @contextmanager
    def signals(self):
        """:meth:`start` to :meth:`stop` around a block."""
        self.start()
        try:
            yield
        finally:
            self.stop()
