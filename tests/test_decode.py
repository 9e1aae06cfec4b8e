"""Multi-stream decode controller: commits, rollbacks, determinism, traces."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden_hashes import CASES as GOLDEN_CASES
from test_notebus import put

from pdtcoord import cadence, cli, decode
from pdtcoord.cadence import CadenceConfig
from pdtcoord.decode import (
    MAX_RECONSUME_ATTEMPTS,
    BarrierNotes,
    DecodeConfig,
    DecodeTrace,
    RollbackEvent,
    SnapshotEvent,
    StreamState,
    StrideTokens,
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
from pdtcoord.replay import SynthSpec, synthesize_artifact, write_artifact
from pdtcoord.snc import GateState, apply_adapter


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
    h_adapted = apply_adapter(art.streams[0].hidden[:8], art.adapter)
    record, _ = step_stream(state, art, cfg, 0, rows, True, art.snc.gate_value(), h_adapted)
    offsets, gates = zip(*record.gates)
    assert offsets[:2] == (0, 1) and gates[0] == 0.0 and gates[1] > 0.0
    logits = art.streams[0].logits[:8]
    raw = np.sort(logits, axis=1)
    raw_margins = raw[:, -1] - raw[:, -2]
    assert state.margins[0] == raw_margins[0]
    assert record.token_ids[0] == int(np.argmax(logits[0]))
    assert not np.array_equal(state.margins[1:], raw_margins[1:])
    assert state.cursor == 8 and state.position == 8 and len(record.token_ids) == 8


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


def peak_bytes(spec: SynthSpec) -> tuple[DecodeTrace, int]:
    """A BASE decode of spec's artifact, and the tracemalloc peak of the memory it allocated.

    A full collection first empties CPython's free lists, so each decode
    starts from the same allocator state: an object taken from a free list
    is not an allocation tracemalloc sees, and what an earlier decode left
    there would otherwise hide part of the next one's peak.
    """
    art = synthesize_artifact(spec)
    gc.collect()
    tracemalloc.start()
    try:
        trace = run_parallel(art, BASE)
        return trace, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rollback_states_are_replayed_from_the_written_records(tmp_path):
    # 4 streams x 2,048 frames with a divergence every 100 frames: 80 rollbacks.
    def decode_traced(divergences):
        spec = SynthSpec(n_streams=4, length=2048, vocab_size=64, d=16, d_note=8, seed=1, planted_divergences=divergences)
        return peak_bytes(spec)

    trace, peak = decode_traced(tuple((k, p) for k in range(4) for p in range(50, 2048, 100)))
    _, calm_peak = decode_traced(())
    path = tmp_path / "run.trace"
    trace.write(str(path))
    logs: list[list[int]] = [[] for _ in range(4)]
    replayed = []
    for line in path.read_text().splitlines():
        kind, *fields = line.split(" ")
        if kind == "TOKEN":
            logs[int(fields[1])].append(int(fields[4]))
        elif kind == "ROLLBACK":
            sid, target = int(fields[1]), int(fields[3])
            del logs[sid][target:]
            replayed.append((sid, target, tuple(logs[sid])))
    assert len(replayed) == 80
    assert trace.rollback_states == tuple(replayed)
    # No copy of a token log per rollback: the peak stays near a run without rollbacks.
    assert peak <= 1.1 * calm_peak, (peak, calm_peak)


def test_decode_memory_grows_by_a_bounded_amount_per_token():
    # The trace keeps one record per stream and stride, and its records are the
    # decode's only copy of the tokens, so a decode 4x as long costs at most
    # 96 bytes more per extra decoded token.  CPython 3.11 measures 52.7; a
    # record per token cost 183.  The bound leaves room for other CPython
    # versions, whose object sizes differ.
    def decode_traced(length):
        return peak_bytes(SynthSpec(n_streams=4, length=length, vocab_size=64, d=16, d_note=8, seed=1))

    short, short_peak = decode_traced(2048)
    long, long_peak = decode_traced(8192)
    extra = sum(map(len, long.token_logs)) - sum(map(len, short.token_logs))
    assert extra == 4 * 6144
    assert (long_peak - short_peak) / extra <= 96, (short_peak, long_peak)


def parse_trace_events(path) -> list:
    """The event of every TOKEN and ROLLBACK line of a written trace, in order."""
    events = []
    for line in path.read_text().splitlines():
        kind, *f = line.split(" ")
        if kind == "TOKEN":
            events.append(TokenEvent(*map(int, f)))
        elif kind == "ROLLBACK":
            r, sid, trigger, target, low, pages = f
            events.append(RollbackEvent(int(sid), int(trigger), int(target), float(low), int(pages), int(r)))
    return events


@pytest.mark.parametrize("case_id, build, config", [c[:3] for c in GOLDEN_CASES], ids=[c[0] for c in GOLDEN_CASES])
def test_events_are_the_written_lines(case_id, build, config, tmp_path):
    # The written file is the oracle: events holds one event per TOKEN and
    # ROLLBACK line, and the token logs and rollback states are what those
    # lines replay to.
    trace = run_parallel(build(), config)
    path = tmp_path / "run.trace"
    trace.write(str(path))
    expected = parse_trace_events(path)
    assert len(trace.events) == len(expected)
    for event, parsed in zip(trace.events, expected):
        assert type(event) is type(parsed)
        for name in event._fields:
            assert getattr(event, name) == getattr(parsed, name), (event, parsed)
    logs: list[list[int]] = [[] for _ in trace.committed]
    states = []
    for e in expected:
        if isinstance(e, TokenEvent):
            assert e.position == len(logs[e.stream_id])
            logs[e.stream_id].append(e.token_id)
        elif isinstance(e, RollbackEvent):
            del logs[e.stream_id][e.rolled_back_to:]
            states.append((e.stream_id, e.rolled_back_to, tuple(logs[e.stream_id])))
    assert trace.token_logs == tuple(map(tuple, logs))
    assert trace.rollback_states == tuple(states)


def test_reading_a_trace_builds_no_events(tmp_path, capsys):
    art = small_artifact()
    trace = run_parallel(art, BASE)
    trace.trace_hash()
    trace.write(str(tmp_path / "run.trace"))
    assert trace.rollback_states and trace.rollback_events()
    assert "events" not in vars(trace)
    # The CLI's replay path reads the same trace.
    write_artifact(art, str(tmp_path / "a.pdtr"))
    traces = []

    def kept(*args):
        traces.append(run_parallel(*args))
        return traces[-1]

    with mock.patch.object(cli, "run_parallel", kept):
        argv = ["replay", "--artifact", str(tmp_path / "a.pdtr"), "--stride-b", "8", "--horizon-l", "8"]
        assert cli.main([*argv, "--out", str(tmp_path / "cli.trace")]) == 0
    assert f"trace_hash: {trace.trace_hash()}" in capsys.readouterr().out
    assert (tmp_path / "cli.trace").read_bytes() == (tmp_path / "run.trace").read_bytes()
    assert "events" not in vars(traces[0])
    # Built on first use and then kept.
    assert trace.events is trace.events and "events" in vars(trace)


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


def gate_values(trace: DecodeTrace) -> list[float]:
    """The value of every GATE line, read from the StrideTokens records."""
    return [value for r in trace.records if isinstance(r, StrideTokens) for _, value in r.gates]


def test_gate_override_emits_single_gate_event_per_stream():
    art = small_artifact(divergences=())
    trace = run_parallel(art, DecodeConfig(stride_b=8, horizon_l=8, gate_override=0.3))
    gates = gate_values(trace)
    assert len(gates) == art.n_streams
    assert all(value == 0.3 for value in gates)


def test_controller_gate_values_stay_in_band():
    art = small_artifact(divergences=())
    cfg = DecodeConfig(stride_b=8, horizon_l=8, cadence=CadenceConfig(interval_m=4))
    trace = run_parallel(art, cfg)
    gates = gate_values(trace)
    assert gates
    for value in gates:
        assert GateState.g_min <= value <= GateState.g_max


def test_deterministic_cadence_gates_note_positions():
    art = small_artifact(divergences=())
    cfg = DecodeConfig(stride_b=8, horizon_l=8, cadence=CadenceConfig(interval_m=4))
    trace = run_parallel(art, cfg)
    positions = [p for r in trace.records if isinstance(r, BarrierNotes) for p in r.positions]
    assert positions
    for p in positions:
        assert (p + 1) % 4 == 0


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
    # Written over a longer file, which is written over in place and then cut.
    path.write_bytes(b"x" * 10**6)
    trace.write(str(path))
    data = path.read_bytes()
    assert data == "".join(line + "\n" for line in lines).encode()
    assert hashlib.sha256(data).hexdigest() == trace.trace_hash()
    # Not a regular file, so nothing to cut.
    trace.write(os.devnull)


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


def test_settings_refuse_bools_and_non_integers():
    ints = ("stride_b", "horizon_l", "read_delta", "bus_capacity", "bus_retain_k", "warmup_tokens", "seed")
    for name in ints:
        for bad in (True, 8.0, 1.5, "8"):
            with pytest.raises(ConfigError, match=name):
                DecodeConfig(**{name: bad})
    for name in ("tau", "gate_override", "note_noise_scale"):
        for bad in (True, False, "0.5"):
            with pytest.raises(ConfigError, match=name):
                DecodeConfig(**{name: bad})
    for bad in (1.5, True, 2.0):
        with pytest.raises(ConfigError, match="masked_strides"):
            DecodeConfig(masked_strides=frozenset({bad}))
    for bad in (True, 4.0):
        with pytest.raises(ConfigError, match="interval_m"):
            CadenceConfig(interval_m=bad)


def test_equal_configs_write_equal_traces():
    # numpy scalars and ints for floats compare equal to the plain values;
    # the stored setting must print alike too, or the hashes part.
    art = small_artifact()
    pairs = [
        (dict(tau=np.float64(0.3)), dict(tau=0.3)),
        (dict(gate_override=1), dict(gate_override=1.0)),
        (dict(gate_override=-0.0), dict(gate_override=0.0)),
        (dict(note_noise_scale=np.float64(0.25)), dict(note_noise_scale=0.25)),
        (dict(note_noise_scale=1), dict(note_noise_scale=1.0)),
        (dict(stride_b=np.int64(8), horizon_l=np.int64(8)), dict(stride_b=8, horizon_l=8)),
        (dict(seed=np.int64(3), read_delta=np.int64(1)), dict(seed=3, read_delta=1)),
        (dict(cadence=CadenceConfig(interval_m=np.int64(2))), dict(cadence=CadenceConfig(interval_m=2))),
        (dict(masked_strides=frozenset({np.int64(1)})), dict(masked_strides=frozenset({1}))),
    ]
    for left, right in pairs:
        a = DecodeConfig(**{"stride_b": 8, "horizon_l": 8, **left})
        b = DecodeConfig(**{"stride_b": 8, "horizon_l": 8, **right})
        assert a == b
        assert _config_line(art, a) == _config_line(art, b)
        assert run_parallel(art, a).trace_hash() == run_parallel(art, b).trace_hash(), left


def test_oversized_span_rejected_at_check():
    art = small_artifact(divergences=())
    state = StreamState(
        stream_id=0,
        gate_state=GateState(),
        position=40,
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
        return _note_event(state, stack_sibling_rows(bus.read_lagged(), 0)[1])

    put(bus, 1, np.ones(2), 0)
    assert event() and state.seen_versions == {1: 0}
    assert not event()  # the same view again
    put(bus, 1, np.full(2, 2.0), 4)
    for i in range(3):
        put(bus, 2, np.full(2, float(i)), 4 * i)
    assert event() and state.seen_versions == {1: 1, 2: 2}
    bus.tombstone_after(1, 4)
    assert not event() and state.seen_versions == {1: 1, 2: 2}
    # The summary of stream 2's two oldest notes carries version 1, already seen.
    assert bus.compact(retain_k=1) == 1
    assert not event() and state.seen_versions == {1: 1, 2: 2}
    # Stream 1 publishes again after its tombstone, as version 2.
    put(bus, 1, np.full(2, 3.0), 4)
    assert event() and state.seen_versions == {1: 2, 2: 2}
    put(bus, 0, np.full(2, 4.0), 8)  # the reader's own note
    assert not event() and state.seen_versions == {1: 2, 2: 2}


@pytest.mark.parametrize(
    "record",
    [TokenEvent(0, 1, 2, 3, 4), SnapshotEvent(0, 1, 2), RollbackEvent(1, 9, 8, 0.25, 1, 0),
     StrideTokens(0, 1, 2, 3, (4, 5, 6), ((0, 0.5), (2, 0.25))), BarrierNotes(0, 1, (2, 6), 3)],
    ids=lambda r: type(r).__name__,
)
def test_trace_records_are_immutable(record):
    before = tuple(record)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 7)
    assert tuple(record) == before
    if isinstance(record, TokenEvent):
        return  # DecodeTrace.events builds these from a StrideTokens; it is no record
    trace = DecodeTrace("CONFIG", [record], [], (0, 0), 0)
    assert trace.to_lines()[2:-1] == record.lines()
    if isinstance(record, StrideTokens):
        expected = [TokenEvent(0, 1, 2 + t, 3 + t, token) for t, token in enumerate(record.token_ids)]
    else:
        expected = [record] if isinstance(record, RollbackEvent) else []
    assert trace.events == expected


def test_run_parallel_reads_the_bus_once_per_unmasked_stride():
    art = small_artifact(divergences=())
    cfg = DecodeConfig(stride_b=8, horizon_l=8, masked_strides=frozenset({1}))
    read_lagged = NotesBus.read_lagged
    with mock.patch.object(NotesBus, "read_lagged", autospec=True, side_effect=read_lagged) as reads:
        trace = run_parallel(art, cfg)
    strides = 1 + max(e.round_index for e in trace.events if isinstance(e, TokenEvent))
    assert strides == 3
    assert reads.call_count == strides - len(cfg.masked_strides)


@pytest.mark.parametrize("case_id", ["masked_strides", "live_agreement"])
def test_a_stride_makes_one_adapter_call_and_one_gate_call_per_stream(case_id):
    _, build, config, _, _ = next(c for c in GOLDEN_CASES if c[0] == case_id)
    live = config.agreement_mode == "live"
    with (
        mock.patch.object(decode, "apply_adapter", wraps=decode.apply_adapter) as adapter,
        mock.patch.object(decode, "gate_controller_step", wraps=decode.gate_controller_step) as gate,
        mock.patch.object(decode, "step_stream", wraps=decode.step_stream) as step,
    ):
        trace = run_parallel(build(), config)
    decoded: dict[tuple[int, int], int] = {}
    for e in trace.events:
        if isinstance(e, TokenEvent):
            decoded[e.round_index, e.stream_id] = decoded.get((e.round_index, e.stream_id), 0) + 1
    # A stream reads its adapted block in live mode or when it has sibling rows.
    read_rows: dict[int, int] = {}
    for c in step.call_args_list:
        state, round_index, rows = c.args[0], c.args[3], c.args[4]
        if live or rows.shape[0] > 0:
            read_rows[round_index] = read_rows.get(round_index, 0) + decoded[round_index, state.stream_id]
    strides = 1 + max(r for r, _ in decoded)
    assert 0 < len(read_rows) <= strides and (live or len(read_rows) < strides)
    assert [c.args[0].shape[0] for c in adapter.call_args_list] == [read_rows[r] for r in sorted(read_rows)]
    assert step.call_count == len(decoded)
    assert [c.kwargs["tokens"] for c in gate.call_args_list] == list(decoded.values())


@pytest.mark.parametrize("case_id", ["quick_start", "read_delta_2", "ragged_streams"])
def test_a_stride_publishes_its_notes_once_and_draws_its_cadence_once(case_id):
    _, build, config, _, _ = next(c for c in GOLDEN_CASES if c[0] == case_id)
    with (
        mock.patch.object(NotesBus, "publish", autospec=True, side_effect=NotesBus.publish) as publish,
        mock.patch.object(NotesBus, "compact", autospec=True, side_effect=NotesBus.compact) as compact,
        mock.patch.object(cadence, "uniform", wraps=cadence.uniform) as uniform,
        mock.patch.object(decode, "next_emission", wraps=decode.next_emission) as next_emission,
    ):
        trace = run_parallel(build(), config)
    assert compact.call_count == 0  # these buses never fill
    strides = [r for r in trace.records if isinstance(r, StrideTokens)]
    barriers = [r for r in trace.records if isinstance(r, BarrierNotes)]
    assert trace.note_count() > len(barriers) > 0
    # One publish per barrier that has notes, with one block per stream of exactly that stream's notes there.
    published: dict[int, list] = {}
    for b in barriers:
        published.setdefault(b.round_index, []).append((b.stream_id, b.positions))
    assert len(published) < len(barriers)
    assert [[(sid, tuple(p)) for sid, _, p in c.args[1]] for c in publish.call_args_list] == list(published.values())
    # Stochastic cadence draws each (stream, stride) once; deterministic cadence draws nothing.
    stochastic = config.cadence.mode == "stochastic"
    assert uniform.call_count == (len(strides) if stochastic else 0)
    assert next_emission.call_count == 0


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


def replayed_log(trace: DecodeTrace, sid: int, last_round: int) -> tuple[int, ...]:
    """Stream sid's token log after round last_round, replayed from the trace's records."""
    log: list[int] = []
    for r in trace.records:
        if r.round_index > last_round:
            break
        if isinstance(r, StrideTokens) and r.stream_id == sid:
            assert r.position == len(log)
            log.extend(r.token_ids)
        elif isinstance(r, RollbackEvent) and r.stream_id == sid:
            del log[r.rolled_back_to:]
    return tuple(log)


@settings(max_examples=60, deadline=None)
@given(case=planted_runs())
def test_commits_are_final_and_rollbacks_stay_within_the_horizon(case):
    spec, cfg = case
    # Each barrier's committed prefix length, as check_and_rollback leaves it.
    commits: list[tuple[int, int, int]] = []

    def watched(state, artifact, config, round_index):
        rollback = check_and_rollback(state, artifact, config, round_index)
        # Every barrier commits or rolls back the whole span.
        assert state.committed_prefix == state.position
        commits.append((round_index, state.stream_id, state.committed_prefix))
        return rollback

    with mock.patch.object(decode, "check_and_rollback", watched):
        trace = run_parallel(synthesize_artifact(spec), cfg)

    for ev in trace.rollback_events():
        assert 0 < ev.trigger_position - ev.rolled_back_to <= cfg.stride_b
    for sid, target, log in trace.rollback_states:
        assert len(log) == target and trace.token_logs[sid][:target] == log
    for sid, log in enumerate(trace.token_logs):
        assert trace.committed[sid] <= len(log)
    for round_index, sid, committed in commits:
        # The prefix is the stream's log replayed from the records up to this barrier.
        prefix = replayed_log(trace, sid, round_index)
        assert len(prefix) == committed
        assert trace.token_logs[sid][: len(prefix)] == prefix
        for ev in trace.events:
            if isinstance(ev, (TokenEvent, RollbackEvent)) and ev.stream_id == sid and ev.round_index > round_index:
                assert (ev.position if isinstance(ev, TokenEvent) else ev.rolled_back_to) >= len(prefix)


def test_an_artifact_of_more_streams_than_half_the_bus_decodes_at_default_capacity():
    # 1,281 streams each keep a note on the default 2,560-row bus, under 2 rows per stream.
    spec = SynthSpec(n_streams=1281, length=3, vocab_size=2, d=4, d_note=1)
    config = DecodeConfig(stride_b=3, horizon_l=3, cadence=CadenceConfig(interval_m=2))
    trace = run_parallel(synthesize_artifact(spec), config)
    assert config.bus_capacity < 2 * spec.n_streams
    assert trace.note_count() == spec.n_streams
    assert trace.committed == (3,) * spec.n_streams


@settings(max_examples=60, deadline=None)
@given(case=planted_runs(), retain_k=st.integers(1, 3))
def test_a_bus_of_twice_the_streams_never_refuses_a_publish(case, retain_k):
    spec, cfg = case
    cfg = dataclasses.replace(cfg, bus_capacity=2 * spec.n_streams, bus_retain_k=retain_k)
    run_parallel(synthesize_artifact(spec), cfg)


def artifact_arrays(artifact) -> dict[str, np.ndarray]:
    arrays = {"readout": artifact.readout}
    for group in ("adapter", "snc", "agreement"):
        for name, value in vars(getattr(artifact, group)).items():
            if isinstance(value, np.ndarray):
                arrays[f"{group}.{name}"] = value
    for k, frames in enumerate(artifact.streams):
        arrays.update({f"stream[{k}].{name}": value for name, value in vars(frames).items()})
    return arrays


def test_adaptive_cadence_decode_leaves_a_writable_artifact_unchanged():
    # The adaptive softmax may read a view of the artifact's logits, so it
    # must not be built in place; note attention's in-place one owns its block.
    _, build, config, expected, _ = next(c for c in GOLDEN_CASES if c[0] == "adaptive_cadence")
    art = build()
    arrays = artifact_arrays(art)
    assert all(a.flags.writeable for name, a in arrays.items() if name.startswith("stream["))
    before = {name: a.tobytes() for name, a in arrays.items()}
    hashes = [run_parallel(art, config).trace_hash() for _ in range(2)]
    assert {name: a.tobytes() for name, a in arrays.items()} == before
    assert hashes == [expected, expected]
