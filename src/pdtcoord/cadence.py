"""Note emission cadence policies.

Three modes share one interface, a question about one token position:
deterministic (every M tokens), stochastic (Bernoulli 1/M per token,
geometric inter-arrivals with mean M), and adaptive (the per-token
probability is modulated by decode-context signals, bounded to
[M_MIN, M_MAX] times the base rate).  Draws are keyed by (seed, stream,
position), so any position can be asked in any order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, get_args

from .errors import ConfigError
from .rng import DOMAIN_CADENCE, uniform

CadenceMode = Literal["deterministic", "stochastic", "adaptive"]
# Note age at which staleness pressure saturates: 128 tokens, the gate's default warmup.
NOTE_AGE_WINDOW = 128
# Bounds on the adaptive modulation factor: context can halve or double the base rate, never silence a stream.
M_MIN = 0.5
M_MAX = 2.0


@dataclass(frozen=True)
class CadenceConfig:
    mode: CadenceMode = "deterministic"
    interval_m: int = 4

    def __post_init__(self) -> None:
        if self.mode not in get_args(CadenceMode):
            raise ConfigError(f"unknown cadence mode {self.mode!r}")
        if self.interval_m < 1:
            raise ConfigError("interval_m must be >= 1")


@dataclass(frozen=True)
class ContextSignals:
    """Decode-context inputs to the adaptive modulation factor.

    Neutral defaults produce a modulation factor of exactly 1, so the adaptive
    mode degrades gracefully to the stochastic base rate.  note_age pressure
    saturates at NOTE_AGE_WINDOW tokens.
    """

    agreement: float = 0.5
    entropy_norm: float = 0.5
    coverage_gap: float = 0.0
    note_age: int = 0
    gate: float = 1.0


def modulation_factor(signals: ContextSignals) -> float:
    """Bounded cadence modulation m_t in [M_MIN, M_MAX].

    Pressure terms raise the rate: low agreement, high normalized entropy,
    uncovered constraints, and stale notes.  A closed gate halves it, since
    siblings are not consuming the notes anyway.
    """
    m = 1.0
    m += max(0.0, 0.5 - signals.agreement)
    m += max(0.0, signals.entropy_norm - 0.5)
    m += 0.5 * max(0.0, signals.coverage_gap)
    m += 0.5 * min(1.0, signals.note_age / NOTE_AGE_WINDOW)
    if signals.gate < 1e-6:
        m -= 0.5
    return min(M_MAX, max(M_MIN, m))


def next_emission(
    config: CadenceConfig,
    seed: int,
    stream_id: int,
    position: int,
    signals: ContextSignals | None = None,
) -> bool:
    """Whether a stream emits a note at its 1-based token position.

    Deterministic mode emits exactly at positions M, 2M, 3M, ...  Stochastic
    mode emits with probability 1/M per position.  Adaptive mode scales that
    probability by modulation_factor (capped at 1).
    """
    if config.mode == "deterministic":
        return position % config.interval_m == 0
    p = 1.0 / config.interval_m
    if config.mode == "adaptive":
        p = min(1.0, p * modulation_factor(signals or ContextSignals()))
    return uniform(seed, DOMAIN_CADENCE, stream_id, position) < p
