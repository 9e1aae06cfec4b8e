"""Multi-stream decode controller: commits, rollbacks, determinism, traces."""

from __future__ import annotations

import dataclasses
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdtcoord import decode
from pdtcoord.cadence import CadenceConfig
from pdtcoord.decode import (
    MAX_RECONSUME_ATTEMPTS,
    DecodeConfig,
    GateEvent,
    NoteEvent,
    RollbackEvent,
    StreamState,
    TokenEvent,
    _config_line,
    _note_event,
    check_and_rollback,
    make_stream_states,
    run_parallel,
    step_stream,
)
from pdtcoord.errors import ConfigError
from pdtcoord.notebus import NotesBus, stack_sibling_rows
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
    # With the gate's floor at 0 a note event closes the gate for the stride's
    # first token only; that row must keep its raw logits while the others
    # are biased.
    art = small_artifact(divergences=())
    cfg = DecodeConfig(stride_b=8, horizon_l=8, record_margins=True)
    state = make_stream_states(art, cfg)[0]
    state.gate_state = GateState(g_min=0.0, warmup_tokens=4)
    rows = art.streams[1].note_embeddings[:3]
    events = step_stream(state, art, cfg, 0, rows, True, None, art.snc.gate_value())
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
    # fails MAX_RECONSUME_ATTEMPTS times and then commits under protest.
    rollbacks = [e for e in trace.rollback_events() if e.stream_id == 1]
    assert len(rollbacks) == MAX_RECONSUME_ATTEMPTS
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
        assert GateState.g_min <= ev.value <= GateState.g_max


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
    data = path.read_bytes()
    assert data == "".join(line + "\n" for line in lines).encode()
    assert hashlib.sha256(data).hexdigest() == trace.trace_hash()


def test_summary_counts_match_events():
    art = small_artifact()
    trace = run_parallel(art, BASE)
    summary = trace.to_lines()[-1]
    n_tokens = sum(len(t) for t in trace.token_logs)
    n_rb = len(trace.rollback_events())
    assert f"tokens={n_tokens}" in summary
    assert f"rollbacks={n_rb}" in summary


# Settings that change decoding but not the CONFIG line: two runs that differ
# only in one of them write the same trace header.  A CONFIG line that records
# the full config empties this set.
NOT_ON_CONFIG_LINE = {"masked_strides", "bus_capacity", "bus_retain_k", "warmup_tokens"}
# One valid non-default value for every DecodeConfig and CadenceConfig field.
ALTERNATIVES = {
    "stride_b": 16,
    "horizon_l": 64,
    "tau": 0.3,
    "read_delta": 1,
    "cadence": CadenceConfig(mode="stochastic"),
    "gate_override": 0.5,
    "agreement_mode": "live",
    "regen_mode": "reconsume",
    "bus_capacity": 64,
    "bus_retain_k": 2,
    "seed": 99,
    "note_noise_scale": 0.5,
    "masked_strides": frozenset({1}),
    "warmup_tokens": 16,
    "mode": "adaptive",
    "interval_m": 7,
}


def test_every_setting_is_on_the_config_line_or_listed():
    art = small_artifact()
    base = _config_line(art, DecodeConfig())
    knobs = [(DecodeConfig, f.name) for f in dataclasses.fields(DecodeConfig)]
    knobs += [(CadenceConfig, f.name) for f in dataclasses.fields(CadenceConfig)]
    for owner, name in knobs:
        if name == "record_margins":
            continue  # it only fills DecodeTrace.margins and writes no trace line
        assert name in ALTERNATIVES, f"{owner.__name__}.{name} needs a value in ALTERNATIVES"
        value = ALTERNATIVES[name]
        assert value != getattr(owner(), name), name
        if owner is CadenceConfig:
            config = DecodeConfig(cadence=CadenceConfig(**{name: value}))
        else:
            config = DecodeConfig(**{name: value})
        recorded = _config_line(art, config) != base
        assert recorded != (name in NOT_ON_CONFIG_LINE), name


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
    for scale in (-0.1, math.nan, math.inf):
        with pytest.raises(ConfigError, match="note_noise_scale"):
            DecodeConfig(note_noise_scale=scale)


def test_masked_strides_refuse_negative_indices():
    # No stride has a negative index, so such an entry could never mask one;
    # an index past the end of a run is allowed, as the run length is not
    # known until decode.
    with pytest.raises(ConfigError, match="masked_strides"):
        DecodeConfig(masked_strides=frozenset({1, -3}))
    assert DecodeConfig(masked_strides=frozenset({99})).masked_strides == {99}


def test_oversized_span_rejected_at_check():
    art = small_artifact(divergences=())
    state = StreamState(
        stream_id=0,
        gate_state=GateState(),
        token_log=[0] * 40,
        min_uncommitted_agreement=0.9,
    )
    with pytest.raises(ConfigError, match="span"):
        check_and_rollback(state, art, DecodeConfig(stride_b=8, horizon_l=32), 0)


def test_margins_recorded_when_requested():
    # A rollback discards the margins of the tokens it discards.
    art = small_artifact(divergences=((0, 5), (2, 13)))
    for regen in ("skip_ahead", "reconsume"):
        cfg = DecodeConfig(stride_b=8, horizon_l=8, regen_mode=regen, record_margins=True)
        trace = run_parallel(art, cfg)
        assert trace.rollback_events()
        assert [len(m) for m in trace.margins] == [len(t) for t in trace.token_logs]
        assert all(v >= 0.0 for m in trace.margins for v in m)
    # With the gate shut, reconsume ends with frame i at position i, and its
    # margin is the gap between the frame's two largest raw logits.
    shut = run_parallel(art, DecodeConfig(
        stride_b=8, horizon_l=8, regen_mode="reconsume", gate_override=0.0, record_margins=True
    ))
    assert shut.rollback_events()
    for k, frames in enumerate(art.streams):
        top2 = np.sort(frames.logits, axis=1)[:, -2:]
        assert shut.margins[k] == tuple((top2[:, 1] - top2[:, 0]).tolist())
    bare = run_parallel(art, BASE)
    assert bare.margins == ((), (), ())


def test_note_event_fires_only_on_unseen_sibling_versions():
    state = make_stream_states(small_artifact(divergences=()), BASE)[0]
    bus = NotesBus(d_note=2)

    def event() -> bool:
        fired, _ = _note_event(state, *stack_sibling_rows(bus.read_lagged(0), 0))
        return fired

    bus.publish(1, np.ones(2), 0)
    assert event() and state.seen_versions == {1: 0}
    assert not event()  # the same view again
    bus.publish(1, np.full(2, 2.0), 4)
    for i in range(3):
        bus.publish(2, np.full(2, float(i)), 4 * i)
    assert event() and state.seen_versions == {1: 1, 2: 2}
    bus.tombstone_after(1, 4)
    assert not event() and state.seen_versions == {1: 1, 2: 2}
    # The summary of stream 2's two oldest notes carries version 1, already seen.
    assert bus.compact(retain_k=1) == 1
    assert not event() and state.seen_versions == {1: 1, 2: 2}
    # Stream 1 publishes again after its tombstone, as version 2.
    bus.publish(1, np.full(2, 3.0), 4)
    assert event() and state.seen_versions == {1: 2, 2: 2}
    bus.publish(0, np.full(2, 4.0), 8)  # the reader's own note
    assert not event() and state.seen_versions == {1: 2, 2: 2}


def test_run_parallel_reads_the_bus_once_per_unmasked_stride():
    art = small_artifact(divergences=())
    cfg = DecodeConfig(stride_b=8, horizon_l=8, masked_strides=frozenset({1}))
    read_lagged = NotesBus.read_lagged
    with mock.patch.object(NotesBus, "read_lagged", autospec=True, side_effect=read_lagged) as reads:
        trace = run_parallel(art, cfg)
    strides = 1 + max(e.round_index for e in trace.events if isinstance(e, TokenEvent))
    assert strides == 3
    assert reads.call_count == strides - len(cfg.masked_strides)


@st.composite
def planted_runs(draw) -> tuple[SynthSpec, DecodeConfig]:
    n_streams = draw(st.integers(1, 4))
    length = draw(st.integers(1, 48))
    spec = SynthSpec(
        n_streams=n_streams,
        length=length,
        vocab_size=draw(st.integers(2, 12)),
        d=8,
        d_note=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**20)),
        planted_divergences=tuple(
            draw(
                st.lists(
                    st.tuples(st.integers(0, n_streams - 1), st.integers(0, length - 1)), min_size=1, max_size=4
                )
            )
        ),
    )
    stride = draw(st.integers(1, 6))
    config = DecodeConfig(
        stride_b=stride,
        horizon_l=stride * draw(st.integers(1, 2)),
        read_delta=draw(st.integers(0, 2)),
        cadence=CadenceConfig(interval_m=draw(st.integers(1, 4))),
        agreement_mode=draw(st.sampled_from(["artifact", "live"])),
        regen_mode=draw(st.sampled_from(["skip_ahead", "reconsume"])),
    )
    return spec, config


@settings(max_examples=60, deadline=None)
@given(case=planted_runs())
def test_commits_are_final_and_rollbacks_stay_within_the_horizon(case):
    spec, cfg = case
    # Each barrier's committed prefix, as check_and_rollback leaves it.
    commits: list[tuple[int, int, tuple[int, ...]]] = []

    def watched(state, artifact, config, round_index):
        rollback = check_and_rollback(state, artifact, config, round_index)
        # Every barrier commits or rolls back the whole span.
        assert state.committed_prefix == state.position
        commits.append((round_index, state.stream_id, tuple(state.token_log[: state.committed_prefix])))
        return rollback

    with mock.patch.object(decode, "check_and_rollback", watched):
        trace = run_parallel(synthesize_artifact(spec), cfg)

    for ev in trace.rollback_events():
        assert 0 < ev.trigger_position - ev.rolled_back_to <= cfg.stride_b
    for sid, target, log in trace.rollback_states:
        assert len(log) == target and trace.token_logs[sid][:target] == log
    for sid, log in enumerate(trace.token_logs):
        assert trace.committed[sid] <= len(log)
    for round_index, sid, prefix in commits:
        assert trace.token_logs[sid][: len(prefix)] == prefix
        for ev in trace.events:
            if isinstance(ev, (TokenEvent, RollbackEvent)) and ev.stream_id == sid and ev.round_index > round_index:
                assert (ev.position if isinstance(ev, TokenEvent) else ev.rolled_back_to) >= len(prefix)
