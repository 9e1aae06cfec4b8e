"""Differential test: run_parallel against the sequential reference decoder.

Token logs, frame logs, commits, rollback states and trace lines must be
equal.  The reference writes its lines itself, so each line format is checked
against a second statement of it.  A ROLLBACK's min_agreement may differ only
in its last bits, because the reference scores one row at a time.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_decoder import reference_decode
from test_golden_hashes import CASES, truncated

from pdtcoord.cadence import CadenceConfig
from pdtcoord.decode import DecodeConfig, DecodeTrace, TokenEvent, run_parallel
from pdtcoord.replay import ReplayArtifact, SynthSpec, synthesize_artifact


def frame_logs(trace: DecodeTrace) -> tuple[tuple[int, ...], ...]:
    """Each stream's final frame log, replayed from its TOKEN events."""
    frames: list[dict[int, int]] = [{} for _ in trace.token_logs]
    for ev in trace.events:
        if isinstance(ev, TokenEvent):
            frames[ev.stream_id][ev.position] = ev.frame_index
    return tuple(tuple(f[p] for p in range(len(log))) for f, log in zip(frames, trace.token_logs))


def assert_same_run(artifact: ReplayArtifact, config: DecodeConfig) -> None:
    trace = run_parallel(artifact, config)
    ref = reference_decode(artifact, config)
    assert trace.token_logs == ref.token_logs
    assert frame_logs(trace) == ref.frames
    assert trace.committed == ref.committed
    assert trace.rollback_states == ref.rollback_states
    lines, ref_lines = trace.to_lines(), ref.lines
    assert len(lines) == len(ref_lines)
    for line, ref_line in zip(lines, ref_lines):
        if not line.startswith("ROLLBACK "):
            assert line == ref_line
            continue
        fields, ref_fields = line.split(" "), ref_line.split(" ")
        assert fields[:5] + fields[6:] == ref_fields[:5] + ref_fields[6:]
        assert math.isclose(float(fields[5]), float(ref_fields[5]), rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("case_id, build, config", [c[:3] for c in CASES], ids=[c[0] for c in CASES])
def test_golden_corpus_matches_reference(case_id, build, config):
    assert_same_run(build(), config)


@st.composite
def artifacts_and_configs(draw) -> tuple[ReplayArtifact, DecodeConfig]:
    n_streams = draw(st.integers(1, 4))
    length = draw(st.integers(1, 40))
    spec = SynthSpec(
        n_streams=n_streams,
        length=length,
        vocab_size=draw(st.integers(2, 16)),
        d=draw(st.integers(4, 12)),
        d_note=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 2**20)),
        gamma=draw(st.sampled_from([-4.0, 0.0, 1.5])),
        planted_divergences=tuple(
            draw(st.lists(st.tuples(st.integers(0, n_streams - 1), st.integers(0, length - 1)), max_size=3))
        ),
    )
    base = synthesize_artifact(spec)
    streams = []
    for frames in base.streams:
        frames = truncated(frames, draw(st.integers(0, length)))
        dropped = draw(st.lists(st.integers(0, length - 1), max_size=4))
        present = frames.note_present.copy()
        present[[p for p in dropped if p < frames.length]] = False
        streams.append(replace(frames, note_present=present))
    artifact = replace(base, streams=tuple(streams))

    stride = draw(st.integers(1, 8))
    config = DecodeConfig(
        stride_b=stride,
        horizon_l=stride * draw(st.integers(1, 3)),
        read_delta=draw(st.integers(0, 2)),
        cadence=CadenceConfig(
            mode=draw(st.sampled_from(["deterministic", "stochastic", "adaptive"])),
            interval_m=draw(st.integers(1, 5)),
        ),
        gate_override=draw(st.sampled_from([None, None, 0.0, 0.35])),
        agreement_mode=draw(st.sampled_from(["artifact", "live"])),
        regen_mode=draw(st.sampled_from(["skip_ahead", "reconsume"])),
        bus_capacity=draw(st.integers(8, 40)),
        bus_retain_k=draw(st.integers(1, 3)),
        seed=draw(st.sampled_from([None, 7])),
        note_noise_scale=draw(st.sampled_from([0.0, 0.3])),
        masked_strides=frozenset(draw(st.lists(st.integers(0, 6), max_size=3))),
        warmup_tokens=draw(st.integers(1, 16)),
    )
    return artifact, config


@settings(max_examples=60, deadline=None)
@given(case=artifacts_and_configs())
def test_drawn_runs_match_reference(case):
    assert_same_run(*case)

