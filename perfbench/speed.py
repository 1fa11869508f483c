"""Machine-speed probe: measured seconds scaled to a reference speed.

The benchmark runs on a few cores of a shared host. Other tenants move
the speed of those cores by up to ~2x, over seconds to minutes, and a
run of 20 seconds can fall wholly in a slow or a fast stretch. Wall
times of identical work then spread across runs by more than any bound
a regression gate can use.

A probe times a fixed kernel, again and again, next to the measured
work. The kernel is the operation mix of the mining hot path, written
here and not taken from the program, so that no change to the program
changes it: numpy boolean-mask calls on rows of a few thousand, an
interpreter loop over tuples and a dict, and a small matrix product.
Of these, the mask calls tracked a crime iteration's time best on a
shared 2-core Xeon (log-log slope 1.12, correlation 0.91 over 37
iterations whose wall time spanned 1.5x), so they take most of the
kernel's time.

Every time the harness reports is scaled by
``REFERENCE_KERNEL_S / kernel_s``, where ``kernel_s`` is the median
kernel time measured during (or right around) the work. The result is
in *reference seconds*: the time the work would take on a machine on
which the kernel takes :data:`REFERENCE_KERNEL_S`. A change to the
program moves it as it moves wall time; a change of the host's speed
moves it much less. The time the probe itself takes is subtracted
first.

Two ways of sampling:

- :meth:`SpeedProbe.sampling`: a timer signal runs the kernel every
  :data:`PERIOD_S` inside the main thread's own work (the mining
  loop). The samples in an interval give its speed.
- :meth:`SpeedProbe.burst`: the kernel :data:`BURST` times in a row,
  between operations that run in other threads (the service loop) or
  around short set-up blocks.
"""

from __future__ import annotations

import gc
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: Kernel seconds of the reference machine. A fixed constant, so
#: reference seconds from two runs, or two commits, compare directly.
#: It is about what the kernel takes on the fast stretches of the
#: 2-core box the benchmark was tuned on, so reference seconds read
#: close to wall seconds there.
REFERENCE_KERNEL_S = 0.0008
#: Seconds between two samples while :meth:`SpeedProbe.sampling`.
PERIOD_S = 0.1
#: Kernel runs in one :meth:`SpeedProbe.burst`.
BURST = 8

# The kernel's inputs: fixed, whatever the workload or its seed.
_RNG = np.random.default_rng(20180416)
_ROWS = 2000
_MASKS = _RNG.random((33, _ROWS)) < 0.3
_VALUES = _RNG.random(_ROWS)
_LEFT = _RNG.random((16, _ROWS))
_RIGHT = _RNG.random((_ROWS, 32))


def kernel() -> int:
    """One fixed unit of work shaped like the mining hot path."""
    found = 0
    for i in range(32):
        mask = _MASKS[i] & _MASKS[i + 1]
        found += int(np.count_nonzero(mask))
        rows = np.flatnonzero(mask)
        found += int(_VALUES[rows].sum() > 0)
    table: dict[tuple[int, int], int] = {}
    for i in range(800):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + hash(key) % 5
    found += len(table)
    found += int((_LEFT @ _RIGHT).shape[0])
    return found


class SpeedProbe:
    """Kernel timings of one run, and the scaling they imply."""

    def __init__(self) -> None:
        #: ``(started, seconds)`` of every kernel run, in perf_counter time.
        self.samples: list[tuple[float, float]] = []

    def measure(self) -> float:
        """Run the kernel once, with the collector off; its seconds."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = perf_counter()
            kernel()
            seconds = perf_counter() - started
        finally:
            if collecting:
                gc.enable()
        self.samples.append((started, seconds))
        return seconds

    def burst(self, runs: int = BURST) -> tuple[float, float]:
        """``runs`` kernel runs in a row; returns their interval."""
        started = perf_counter()
        for _ in range(runs):
            self.measure()
        return started, perf_counter()

    @contextmanager
    def sampling(self, period: float = PERIOD_S):
        """Sample the kernel every ``period`` seconds on a timer signal.

        The handler runs in the main thread between bytecodes of
        whatever it is doing, so the samples interleave with that work.
        Only for work done in the main thread.
        """

        def handler(signum, frame):
            self.measure()

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def within(self, start: float, end: float) -> list[tuple[float, float]]:
        """Samples that started inside ``[start, end]``."""
        return [s for s in self.samples if start <= s[0] <= end]

    def kernel_s(self, start: float, end: float) -> float:
        """Median kernel seconds in ``[start, end]``.

        The median, not the mean: a sample that the scheduler preempts
        reads tens of times the rest and would swing a mean.

        With no sample inside, the :data:`BURST` nearest samples on
        either side stand in (the bursts around an interval, or the
        timer ticks around one shorter than :data:`PERIOD_S`).
        """
        inside = self.within(start, end)
        if not inside:
            before = [s for s in self.samples if s[0] < start][-BURST:]
            after = [s for s in self.samples if s[0] > end][:BURST]
            inside = before + after
        if not inside:
            raise ValueError("no probe sample near the interval")
        return statistics.median(seconds for _, seconds in inside)

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per measured second in ``[start, end]``."""
        return REFERENCE_KERNEL_S / self.kernel_s(start, end)

    def scale(self, seconds: float, start: float, end: float) -> float:
        """Reference seconds of ``seconds`` of work done in ``[start, end]``.

        The probe's own runs inside the interval are subtracted first.
        """
        busy = sum(s for _, s in self.within(start, end))
        return max(seconds - busy, 0.0) * self.factor(start, end)

    def run_kernel_s(self) -> float:
        """Median kernel seconds over the whole run (recorded in notes)."""
        return statistics.median(s for _, s in self.samples) if self.samples else 0.0


def to_reference(metrics: dict, factor: float) -> dict:
    """``metrics`` with times multiplied by ``factor`` and rates divided.

    For per-layer metrics, scaled by one factor per run: layer times
    keep their proportions, so self times still sum to the operation.
    """
    scaled = {}
    for name, entry in metrics.items():
        value = entry["value"]
        if entry["unit"] in ("s", "us"):
            value *= factor
        elif entry["unit"] == "1/s":
            value /= factor
        scaled[name] = {"value": float(value), "unit": entry["unit"]}
    return scaled
