"""Tests of the host-speed probe and of the scale factors drawn from it."""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostspeed import REFERENCE_S, HostProbe, pooled_factor, scale_factors  # noqa: E402


def test_intervals_pool_until_they_hold_enough_samples():
    factors = scale_factors([(10, 0.002), (20, 0.004), (30, 0.009)])
    assert factors[0] == factors[1] == pytest.approx(REFERENCE_S * 30 / 0.006)
    assert factors[2] == pytest.approx(REFERENCE_S * 30 / 0.009)


def test_a_short_last_pool_joins_the_one_before():
    factors = scale_factors([(30, 0.006), (5, 0.002)])
    assert factors == [pytest.approx(REFERENCE_S * 35 / 0.008)] * 2


def test_no_samples_leave_times_unscaled():
    assert scale_factors([(0, 0.0), (0, 0.0)]) == [1.0, 1.0]


def test_sampling_counts_samples_and_restores_the_handler():
    probe = HostProbe()
    before = signal.getsignal(signal.SIGALRM)
    with probe.sampling():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    count, loop_s = probe.reading()
    assert count > 0 and 0.0 < loop_s < probe.spent_s
    assert probe.clock() == pytest.approx(time.perf_counter() - probe.spent_s, abs=1e-3)


def test_pooled_factor_takes_every_interval_together():
    assert pooled_factor([(10, 0.001), (30, 0.007)]) == pytest.approx(REFERENCE_S * 40 / 0.008)
    assert pooled_factor([]) == 1.0
