"""Host-speed probe: a fixed reference loop, timed every few milliseconds from a timer signal.

On a shared VM the speed at which this one process runs drifts with what other
tenants do: a fixed loop took 1.5x to 2x as long for minutes at a time, and
flickered by +-20% from second to second.  Such drift moves every wall time
in a run together.  The probe measures it while the benchmark runs: a
SIGALRM every INTERVAL_S interrupts the program between two bytecodes, and
the handler runs `reference_loop` twice (about 0.2 ms each, so about 2% of
the run) and keeps the time of the second pass; the first brings the loop
back into the caches, so what the program did just before does not slow it.
The loop mixes interpreted arithmetic with small numpy calls, as the decoder
does, and uses nothing from pdtcoord, so no change to the package can change
it.

A time measured over an interval is scaled by REFERENCE_S over the loop's mean
time in that interval: it becomes the time the same work would take on a
host that runs the loop in REFERENCE_S.  `clock` leaves out the probe's own
time, so the handler does not count against the program.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

INTERVAL_S = 0.02
# Normalised times are seconds on a host that runs reference_loop in 0.2 ms,
# about what a lightly loaded 2-vCPU Xeon VM does with Python 3.11.
REFERENCE_S = 0.0002
# Consecutive intervals are pooled until they hold this many samples.
MIN_SAMPLES = 25

_X = np.linspace(-1.0, 1.0, 64)


def reference_loop() -> float:
    total = 0.0
    for i in range(30):
        y = np.exp(_X - _X.max())
        y /= y.sum()
        total += float(y @ _X) + (i % 7) * 0.5
    return total


class HostProbe:
    """Counts and times the reference-loop samples taken while `sampling` is active."""

    def __init__(self) -> None:
        self.count = 0
        self.loop_s = 0.0  # time of the timed passes
        self.spent_s = 0.0  # time of the handler as a whole

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_loop()
        timed = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.loop_s += end - timed
        self.spent_s += end - start
        self.count += 1

    def clock(self) -> float:
        """Wall-clock seconds, less the time spent in the probe."""
        return time.perf_counter() - self.spent_s

    def reading(self) -> tuple[int, float]:
        """Samples taken so far, and the time of their timed passes."""
        return self.count, self.loop_s

    @contextmanager
    def sampling(self) -> Iterator[HostProbe]:
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def scale_factors(samples: list[tuple[int, float]]) -> list[float]:
    """REFERENCE_S over the mean loop time, for each interval given as (samples, loop seconds).

    Consecutive intervals are pooled until the pool holds MIN_SAMPLES samples,
    and every interval of a pool gets the pool's factor; a short last pool
    joins the one before it.  With no samples at all the factor is 1.
    """
    pools: list[list[int]] = []
    n = 0
    for i, (count, _) in enumerate(samples):
        if not pools or n >= MIN_SAMPLES:
            pools.append([])
            n = 0
        pools[-1].append(i)
        n += count
    if len(pools) > 1 and n < MIN_SAMPLES:
        pools[-2].extend(pools.pop())
    factors = [1.0] * len(samples)
    for pool in pools:
        factor = pooled_factor([samples[i] for i in pool])
        for i in pool:
            factors[i] = factor
    return factors


def pooled_factor(samples: list[tuple[int, float]]) -> float:
    """REFERENCE_S over the mean loop time of all the intervals together; 1 without samples."""
    count = sum(n for n, _ in samples)
    loop_s = sum(t for _, t in samples)
    return REFERENCE_S * count / loop_s if count else 1.0
