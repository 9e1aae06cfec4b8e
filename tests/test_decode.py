"""Multi-stream decode controller: commits, rollbacks, determinism, traces."""

from __future__ import annotations

import numpy as np
import pytest

from pdtcoord.cadence import CadenceConfig
from pdtcoord.decode import (
    DecodeConfig,
    GateEvent,
    NoteEvent,
    RollbackEvent,
    StreamState,
    TokenEvent,
    check_and_rollback,
    make_stream_states,
    run_parallel,
    step_stream,
)
from pdtcoord.errors import ConfigError
from pdtcoord.replay import SynthSpec, synthesize_artifact
from pdtcoord.snc import GateState


def small_artifact(seed: int = 5, divergences=((1, 5),)):
    spec = SynthSpec(
        n_streams=3,
        length=24,
        vocab_size=13,
        d=8,
        d_note=4,
        seed=seed,
        planted_divergences=divergences,
    )
    return synthesize_artifact(spec)


BASE = DecodeConfig(stride_b=8, horizon_l=8)


def test_gate_zero_reproduces_raw_argmax():
    art = small_artifact(divergences=())
    cfg = DecodeConfig(stride_b=8, horizon_l=8, gate_override=0.0)
    trace = run_parallel(art, cfg)
    for k, frames in enumerate(art.streams):
        expected = tuple(int(t) for t in np.argmax(frames.logits, axis=1))
        assert trace.token_logs[k] == expected


def test_closed_gate_row_of_a_stride_adds_no_bias():
    # With g_min=0 a note event closes the gate for the stride's first token
    # only; that row must keep its raw logits while the others are biased.
    art = small_artifact(divergences=())
    cfg = DecodeConfig(stride_b=8, horizon_l=8, g_min=0.0, warmup_tokens=4, record_margins=True)
    state = make_stream_states(art, cfg)[0]
    rows = art.streams[1].note_embeddings[:3]
    events = step_stream(state, art, cfg, 0, rows, True, None)
    gates = [e.value for e in events if isinstance(e, GateEvent)]
    assert gates[0] == 0.0 and gates[1] > 0.0
    logits = art.streams[0].logits[:8]
    raw = np.sort(logits, axis=1)
    raw_margins = raw[:, -1] - raw[:, -2]
    assert state.margins[0] == raw_margins[0]
    assert state.token_log[0] == int(np.argmax(logits[0]))
    assert not np.array_equal(state.margins[1:], raw_margins[1:])
    assert state.cursor == 8 and len(state.token_log) == 8


def test_masked_strides_equal_closed_gate():
    art = small_artifact(divergences=())
    masked = run_parallel(
        art, DecodeConfig(stride_b=8, horizon_l=8, masked_strides=frozenset(range(10)))
    )
    closed = run_parallel(art, DecodeConfig(stride_b=8, horizon_l=8, gate_override=0.0))
    assert masked.token_logs == closed.token_logs


def test_rollback_span_never_exceeds_horizon():
    art = small_artifact()
    trace = run_parallel(art, BASE)
    rollbacks = trace.rollback_events()
    assert rollbacks, "planted divergence must trigger a rollback"
    for ev in rollbacks:
        assert 0 < ev.trigger_position - ev.rolled_back_to <= BASE.horizon_l
        assert ev.min_agreement < art.agreement.tau


def test_skip_ahead_drops_span_and_advances():
    art = small_artifact()
    trace = run_parallel(art, BASE)
    # Stream 1 loses its first stride of 8 tokens and never re-decodes it.
    assert len(trace.token_logs[1]) == art.streams[1].length - 8
    assert trace.committed[1] == art.streams[1].length - 8
    assert trace.forced_commits == 0
    assert len(trace.token_logs[0]) == art.streams[0].length


def test_reconsume_force_commits_after_max_attempts():
    art = small_artifact()
    cfg = DecodeConfig(stride_b=8, horizon_l=8, regen_mode="reconsume")
    trace = run_parallel(art, cfg)
    # The artifact replays the same low agreement every retry, so the stride
    # fails max_reconsume_attempts times and then commits under protest.
    rollbacks = [e for e in trace.rollback_events() if e.stream_id == 1]
    assert len(rollbacks) == cfg.max_reconsume_attempts
    assert trace.forced_commits == 1
    assert len(trace.token_logs[1]) == art.streams[1].length
    assert trace.committed[1] == art.streams[1].length


def test_rollback_state_matches_replay_prefix():
    art = small_artifact()
    trace = run_parallel(art, BASE)
    assert trace.rollback_states
    for sid, target, log in trace.rollback_states:
        assert len(log) == target
        assert trace.token_logs[sid][: len(log)] == log


def test_rollback_tombstones_span_notes():
    art = small_artifact()
    cfg = DecodeConfig(stride_b=8, horizon_l=8, cadence=CadenceConfig(interval_m=4))
    trace = run_parallel(art, cfg)
    assert any("tombstoned" in line for line in trace.bus_lines)


def test_five_runs_share_one_hash():
    art = small_artifact()
    hashes = {run_parallel(art, BASE).trace_hash() for _ in range(5)}
    assert len(hashes) == 1


def test_events_grouped_by_stream_within_round():
    art = small_artifact(divergences=())
    trace = run_parallel(art, BASE)
    tokens = [e for e in trace.events if isinstance(e, TokenEvent)]
    order = [(e.round_index, e.stream_id, e.position) for e in tokens]
    assert order == sorted(order)


def test_gate_override_emits_single_gate_event_per_stream():
    art = small_artifact(divergences=())
    trace = run_parallel(art, DecodeConfig(stride_b=8, horizon_l=8, gate_override=0.3))
    gates = [e for e in trace.events if isinstance(e, GateEvent)]
    assert len(gates) == art.n_streams
    assert all(e.value == 0.3 for e in gates)


def test_controller_gate_values_stay_in_band():
    art = small_artifact(divergences=())
    cfg = DecodeConfig(stride_b=8, horizon_l=8, cadence=CadenceConfig(interval_m=4))
    trace = run_parallel(art, cfg)
    gates = [e for e in trace.events if isinstance(e, GateEvent)]
    assert gates
    for ev in gates:
        assert cfg.g_min <= ev.value <= cfg.g_max


def test_deterministic_cadence_gates_note_positions():
    art = small_artifact(divergences=())
    cfg = DecodeConfig(stride_b=8, horizon_l=8, cadence=CadenceConfig(interval_m=4))
    trace = run_parallel(art, cfg)
    notes = [e for e in trace.events if isinstance(e, NoteEvent)]
    assert notes
    for ev in notes:
        assert (ev.emitted_at_token + 1) % 4 == 0


def test_live_agreement_mode_is_deterministic():
    art = small_artifact(divergences=())
    cfg = DecodeConfig(stride_b=8, horizon_l=8, agreement_mode="live")
    h1 = run_parallel(art, cfg).trace_hash()
    h2 = run_parallel(art, cfg).trace_hash()
    assert h1 == h2


def test_read_delta_changes_visibility_not_determinism():
    art = small_artifact(divergences=())
    cfg = DecodeConfig(stride_b=8, horizon_l=8, read_delta=1)
    h1 = run_parallel(art, cfg).trace_hash()
    h2 = run_parallel(art, cfg).trace_hash()
    assert h1 == h2


def test_trace_layout_and_file_roundtrip(tmp_path):
    art = small_artifact()
    trace = run_parallel(art, BASE)
    lines = trace.to_lines()
    assert lines[0] == "PDTTRACE v1"
    assert lines[1].startswith("CONFIG ")
    assert lines[-1].startswith("SUMMARY streams=3 ")
    assert "forced_commits=0" in lines[-1]
    assert any(line.startswith("ROLLBACK ") for line in lines)
    path = tmp_path / "run.trace"
    trace.write(str(path))
    assert path.read_text(encoding="utf-8").splitlines() == lines


def test_summary_counts_match_events():
    art = small_artifact()
    trace = run_parallel(art, BASE)
    summary = trace.to_lines()[-1]
    n_tokens = sum(len(t) for t in trace.token_logs)
    n_rb = len(trace.rollback_events())
    assert f"tokens={n_tokens}" in summary
    assert f"rollbacks={n_rb}" in summary


def test_config_validation():
    with pytest.raises(ConfigError):
        DecodeConfig(stride_b=16, horizon_l=8)
    with pytest.raises(ConfigError):
        DecodeConfig(read_delta=-1)
    with pytest.raises(ConfigError):
        DecodeConfig(regen_mode="redo")
    with pytest.raises(ConfigError):
        DecodeConfig(gate_override=1.5)
    with pytest.raises(ConfigError):
        DecodeConfig(tau=0.0)


def test_oversized_span_rejected_at_check():
    art = small_artifact(divergences=())
    from pdtcoord.cadence import CadenceState

    state = StreamState(
        stream_id=0,
        gate_state=GateState(),
        cadence_state=CadenceState(seed=0, stream_id=0, position=0),
        token_log=[0] * 40,
        min_uncommitted_agreement=0.9,
    )
    with pytest.raises(ConfigError, match="span"):
        check_and_rollback(state, art, DecodeConfig(stride_b=8, horizon_l=32))


def test_margins_recorded_when_requested():
    art = small_artifact(divergences=())
    trace = run_parallel(art, DecodeConfig(stride_b=8, horizon_l=8, record_margins=True))
    assert all(len(m) == len(t) for m, t in zip(trace.margins, trace.token_logs))
    assert all(v >= 0.0 for m in trace.margins for v in m)
    bare = run_parallel(art, BASE)
    assert bare.margins == ((), (), ())
