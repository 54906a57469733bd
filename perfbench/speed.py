"""Machine-speed sampling, so timings survive a host whose speed drifts.

On a shared host the speed of one core drifts by a third within a minute,
with neighbours on the same core and caches, and a run's median pass
follows the drift.  So while a command runs, a SIGALRM timer interrupts
it every PERIOD_S seconds to time a fixed pure-Python loop.  The median
loop time over the command says how fast the machine ran meanwhile.  A
time scaled by REFERENCE_S / that median is in *reference seconds*: what
the command would have taken on a machine that runs the loop in
REFERENCE_S.  The loops' own time is taken out first.

Python runs signal handlers between bytecodes, so a long numpy call is
not interrupted; it only yields fewer samples.
"""
from __future__ import annotations

import contextlib
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.05
# Median loop time on the machine the benchmark was written on (a 2-core
# 2.0 GHz Xeon sandbox, Python 3.11.7); only ratios to it matter.
REFERENCE_S = 0.0005
MIN_OWN_SAMPLES = 3  # fewer than this, and a command borrows its pass's samples


_DATA = list(range(1024))


def _loop() -> int:
    # Small ints and a fixed list only: the loop creates no object the
    # garbage collector tracks, so its time does not grow with the heap of
    # the program it interrupts.
    total = 0
    for i in range(4000):
        total += _DATA[i & 1023] ^ i
    return total


class Speedometer:
    """Loop-time samples taken while a command ran, and the time they took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        _loop()
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    @contextlib.contextmanager
    def running(self):
        """Sample every PERIOD_S seconds of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def reference_seconds(parts: list[tuple[float, Speedometer]]) -> float:
    """Sum of (measured seconds, speedometer) parts in reference seconds.
    Each part is scaled by its own samples, or by all the parts' samples
    when it has too few of its own."""
    pooled = [s for _, meter in parts for s in meter.samples]
    if not pooled:
        raise ValueError("no speed samples taken")
    total = 0.0
    for seconds, meter in parts:
        own = meter.samples if len(meter.samples) >= MIN_OWN_SAMPLES else pooled
        total += (seconds - meter.spent) * REFERENCE_S / statistics.median(own)
    return total
