"""Sweep grids: cadence, masked-stride ablation, and note-noise stress."""

from __future__ import annotations

import pytest

from pdtcoord.decode import DecodeConfig, run_parallel
from pdtcoord.errors import ConfigError
from pdtcoord.replay import SynthSpec, synthesize_artifact
from pdtcoord.sweeps import cadence_sweep, mask_ablation, noise_stress


@pytest.fixture(scope="module")
def artifact():
    return synthesize_artifact(
        SynthSpec(n_streams=2, length=32, vocab_size=11, d=8, d_note=4, seed=21)
    )


CFG = DecodeConfig(stride_b=8, horizon_l=8)


def test_cadence_sweep_grid_shape(artifact):
    rows = cadence_sweep(artifact, CFG, intervals=(2, 4), strides=(8, 16))
    assert len(rows) == 2 * 2 * 2
    combos = {(r.mode, r.interval_m, r.stride_b) for r in rows}
    assert len(combos) == len(rows)
    assert all(r.tokens > 0 for r in rows)


def test_cadence_sweep_is_replayable(artifact):
    a = cadence_sweep(artifact, CFG, intervals=(4,), strides=(8,))
    b = cadence_sweep(artifact, CFG, intervals=(4,), strides=(8,))
    assert [r.trace_hash for r in a] == [r.trace_hash for r in b]


def test_cadence_sweep_note_rate_falls_with_interval(artifact):
    rows = cadence_sweep(
        artifact, CFG, intervals=(1, 4, 16), strides=(8,), modes=("deterministic",)
    )
    notes = [r.notes for r in rows]
    assert notes[0] >= notes[1] >= notes[2]
    assert notes[0] > notes[2]


def test_cadence_sweep_rejects_empty_grid(artifact):
    with pytest.raises(ConfigError):
        cadence_sweep(artifact, CFG, intervals=(), strides=(8,))


def test_mask_ablation_covers_every_round_by_default(artifact):
    rows = mask_ablation(artifact, CFG)
    assert [r.masked_stride for r in rows] == list(range(len(rows)))
    assert len(rows) >= artifact.streams[0].length // CFG.stride_b
    base = rows[0]
    assert all(r.baseline_margin == base.baseline_margin for r in rows)
    assert all(r.margin_delta == pytest.approx(r.baseline_margin - r.masked_margin) for r in rows)


def test_mask_ablation_counts_only_rounds_that_decode(artifact):
    # 2 streams x 32 frames at stride 8 decode in exactly 4 rounds.
    rows = mask_ablation(artifact, CFG)
    assert [r.masked_stride for r in rows] == [0, 1, 2, 3]


def test_mask_ablation_respects_selection(artifact):
    rows = mask_ablation(artifact, CFG, strides=(1,))
    assert len(rows) == 1
    assert rows[0].masked_stride == 1


def test_noise_stress_zero_scale_is_clean_trace(artifact):
    clean = run_parallel(artifact, CFG)
    rows = noise_stress(artifact, CFG, scales=(0.0, 0.5))
    assert rows[0].trace_hash == clean.trace_hash()
    assert rows[1].trace_hash != clean.trace_hash()


def test_noise_stress_validation(artifact):
    with pytest.raises(ConfigError):
        noise_stress(artifact, CFG, scales=())
    with pytest.raises(ConfigError):
        noise_stress(artifact, CFG, scales=(-0.1,))
