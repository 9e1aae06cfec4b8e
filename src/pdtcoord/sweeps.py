"""Deterministic experiment sweeps over decode controller settings.

Each sweep replays the same artifact under a grid of configurations and
returns one row per run.  Rows are plain dataclasses so callers can format
them as CSV or tables without re-running anything.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .cadence import CadenceConfig
from .decode import DecodeConfig, NoteEvent, RollbackEvent, TokenEvent, run_parallel
from .errors import ConfigError
from .replay import ReplayArtifact


@dataclass(frozen=True)
class CadenceSweepRow:
    mode: str
    interval_m: int
    stride_b: int
    tokens: int
    notes: int
    rollbacks: int
    trace_hash: str


def cadence_sweep(
    artifact: ReplayArtifact,
    config: DecodeConfig,
    intervals: tuple[int, ...],
    strides: tuple[int, ...],
    modes: tuple[str, ...] = ("deterministic", "stochastic"),
) -> list[CadenceSweepRow]:
    """Grid over emission interval and stride length."""
    if not intervals or not strides:
        raise ConfigError("intervals and strides must be non-empty")
    rows = []
    for mode in modes:
        for m in intervals:
            for b in strides:
                cfg = replace(
                    config,
                    cadence=CadenceConfig(mode=mode, interval_m=m),
                    stride_b=b,
                    horizon_l=max(config.horizon_l, b),
                )
                trace = run_parallel(artifact, cfg)
                rows.append(
                    CadenceSweepRow(
                        mode=mode,
                        interval_m=m,
                        stride_b=b,
                        tokens=sum(len(t) for t in trace.token_logs),
                        notes=sum(1 for e in trace.events if isinstance(e, NoteEvent)),
                        rollbacks=sum(1 for e in trace.events if isinstance(e, RollbackEvent)),
                        trace_hash=trace.trace_hash(),
                    )
                )
    return rows


@dataclass(frozen=True)
class MaskAblationRow:
    masked_stride: int
    baseline_margin: float
    masked_margin: float
    margin_delta: float
    baseline_rollbacks: int
    masked_rollbacks: int


def _mean_margin(margins: tuple[tuple[float, ...], ...]) -> float:
    flat = [m for stream in margins for m in stream]
    return sum(flat) / len(flat) if flat else 0.0


def mask_ablation(
    artifact: ReplayArtifact,
    config: DecodeConfig,
    strides: tuple[int, ...] | None = None,
) -> list[MaskAblationRow]:
    """Suppress sibling-note reads one stride at a time.

    The per-run statistic is the mean argmax margin of the biased logits; the
    delta against the unmasked baseline measures how much the cross-stream
    residual was sharpening (positive delta) or blurring decisions in the
    masked stride.
    """
    base_cfg = replace(config, record_margins=True, masked_strides=frozenset())
    baseline = run_parallel(artifact, base_cfg)
    n_rounds = max((e.round_index + 1 for e in baseline.events if isinstance(e, TokenEvent)), default=0)
    chosen = strides if strides is not None else tuple(range(n_rounds))
    base_margin = _mean_margin(baseline.margins)
    base_rollbacks = len(baseline.rollback_events())
    rows = []
    for s in chosen:
        masked = run_parallel(artifact, replace(base_cfg, masked_strides=frozenset({s})))
        masked_margin = _mean_margin(masked.margins)
        rows.append(
            MaskAblationRow(
                masked_stride=s,
                baseline_margin=base_margin,
                masked_margin=masked_margin,
                margin_delta=base_margin - masked_margin,
                baseline_rollbacks=base_rollbacks,
                masked_rollbacks=len(masked.rollback_events()),
            )
        )
    return rows


@dataclass(frozen=True)
class NoiseStressRow:
    noise_scale: float
    tokens: int
    notes: int
    rollbacks: int
    forced_commits: int
    trace_hash: str


def noise_stress(
    artifact: ReplayArtifact,
    config: DecodeConfig,
    scales: tuple[float, ...],
) -> list[NoiseStressRow]:
    """Perturb published note embeddings with seeded Gaussian noise.

    Most informative with agreement_mode="live", where corrupted notes show
    up as lower agreement scores and extra rollbacks; scale 0.0 reproduces
    the clean trace bit-for-bit.
    """
    if not scales:
        raise ConfigError("scales must be non-empty")
    rows = []
    for scale in scales:
        if scale < 0.0:
            raise ConfigError("noise scales must be non-negative")
        trace = run_parallel(artifact, replace(config, note_noise_scale=float(scale)))
        rows.append(
            NoiseStressRow(
                noise_scale=float(scale),
                tokens=sum(len(t) for t in trace.token_logs),
                notes=sum(1 for e in trace.events if isinstance(e, NoteEvent)),
                rollbacks=len(trace.rollback_events()),
                forced_commits=trace.forced_commits,
                trace_hash=trace.trace_hash(),
            )
        )
    return rows
