"""Emission cadence policies: deterministic, stochastic, adaptive."""

from __future__ import annotations

import numpy as np
import pytest

from pdtcoord.cadence import (
    CadenceConfig,
    ContextSignals,
    modulation_factor,
    next_emission,
)
from pdtcoord.errors import ConfigError


def collect(config: CadenceConfig, n: int, seed: int = 0, signals=None) -> list[int]:
    return [p for p in range(1, n + 1) if next_emission(config, seed, 0, p, signals)]


def test_deterministic_positions():
    cfg = CadenceConfig(mode="deterministic", interval_m=4)
    assert collect(cfg, 13) == [4, 8, 12]


def test_deterministic_interval_one_every_token():
    cfg = CadenceConfig(mode="deterministic", interval_m=1)
    assert collect(cfg, 5) == [1, 2, 3, 4, 5]


def test_stochastic_rate_and_geometric_gaps():
    cfg = CadenceConfig(mode="stochastic", interval_m=4)
    emits = collect(cfg, 40000, seed=1)
    gaps = np.diff(np.asarray(emits))
    assert abs(gaps.mean() - 4.0) < 0.1
    assert abs(gaps.var(ddof=1) - 12.0) < 0.6
    assert gaps.min() >= 1


def test_stochastic_is_replayable():
    cfg = CadenceConfig(mode="stochastic", interval_m=3)
    assert collect(cfg, 500, seed=5) == collect(cfg, 500, seed=5)
    assert collect(cfg, 500, seed=5) != collect(cfg, 500, seed=6)
    # Draws are keyed by position, so the order of the questions cannot matter.
    backwards = [p for p in range(500, 0, -1) if next_emission(cfg, 5, 0, p)]
    assert backwards[::-1] == collect(cfg, 500, seed=5)


def test_streams_draw_independently():
    cfg = CadenceConfig(mode="stochastic", interval_m=2)
    seq_a = [next_emission(cfg, 0, 0, p) for p in range(1, 201)]
    seq_b = [next_emission(cfg, 0, 1, p) for p in range(1, 201)]
    assert seq_a != seq_b


def test_adaptive_neutral_matches_stochastic():
    adaptive = CadenceConfig(mode="adaptive", interval_m=4)
    stochastic = CadenceConfig(mode="stochastic", interval_m=4)
    assert collect(adaptive, 2000, signals=ContextSignals()) == collect(stochastic, 2000)


def test_modulation_neutral_is_one():
    cfg = CadenceConfig(mode="adaptive")
    assert modulation_factor(cfg, ContextSignals()) == 1.0


def test_modulation_pressure_terms_raise_rate():
    cfg = CadenceConfig(mode="adaptive")
    low_agree = modulation_factor(cfg, ContextSignals(agreement=0.0))
    assert low_agree == 1.5
    noisy = modulation_factor(cfg, ContextSignals(entropy_norm=1.0))
    assert noisy == 1.5
    stale = modulation_factor(cfg, ContextSignals(note_age=128))
    assert stale == 1.5
    gap = modulation_factor(cfg, ContextSignals(coverage_gap=1.0))
    assert gap == 1.5


def test_modulation_closed_gate_lowers_rate():
    cfg = CadenceConfig(mode="adaptive")
    assert modulation_factor(cfg, ContextSignals(gate=0.0)) == 0.5


def test_modulation_bounds():
    cfg = CadenceConfig(mode="adaptive", m_min=0.5, m_max=2.0)
    everything = ContextSignals(agreement=0.0, entropy_norm=1.0, coverage_gap=2.0, note_age=10**6)
    assert modulation_factor(cfg, everything) == 2.0


def test_adaptive_pressure_increases_emissions():
    cfg = CadenceConfig(mode="adaptive", interval_m=8)
    calm = collect(cfg, 4000, signals=ContextSignals())
    stressed = collect(cfg, 4000, signals=ContextSignals(agreement=0.0, entropy_norm=1.0))
    assert len(stressed) > len(calm)


def test_config_validation():
    with pytest.raises(ConfigError):
        CadenceConfig(mode="sometimes")
    with pytest.raises(ConfigError):
        CadenceConfig(interval_m=0)
    with pytest.raises(ConfigError):
        CadenceConfig(m_min=0.0)
    with pytest.raises(ConfigError):
        CadenceConfig(m_min=3.0, m_max=2.0)
