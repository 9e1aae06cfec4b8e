"""Multi-stream decode controller: strides, note barriers, agreement-gated rollback.

Streams consume replay-artifact frames in lockstep strides of B tokens.  Inside
a stride each stream sees a view of its siblings' notes frozen at the top of
the stride, so the order in which streams decode cannot leak into the trace.
At the stride barrier published notes enter the bus, each stream's
uncommitted span is committed or rolled back based on its minimum agreement
score, and a new bus snapshot is recorded.

The full run serializes to a line-oriented trace whose SHA-256 is the
determinism fingerprint: two runs agree iff their trace hashes agree.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal, get_args

import numpy as np

from .cadence import CadenceConfig, ContextSignals, next_emission
from .errors import ConfigError
from .kernels import logistic, row_softmax
from .memmodel import pages_touched
from .notebus import BUS_CAPACITY, BUS_RETAIN_K, NotesBus, stack_sibling_rows
from .replay import ReplayArtifact
from .rng import DOMAIN_NOISE, normal_array
from .snc import GateState, agreement_score, apply_adapter, attend_notes, gate_controller_step

AgreementMode = Literal["artifact", "live"]
RegenMode = Literal["skip_ahead", "reconsume"]
# Failed retries of a span before reconsume mode force-commits it: a replay whose agreement never recovers cannot live-lock.
MAX_RECONSUME_ATTEMPTS = 2


@dataclass(frozen=True)
class DecodeConfig:
    """Controller settings; every field has a replay-safe default."""

    stride_b: int = 32
    horizon_l: int = 32
    tau: float | None = None
    read_delta: int = 0
    cadence: CadenceConfig = field(default_factory=CadenceConfig)
    gate_override: float | None = None
    agreement_mode: AgreementMode = "artifact"
    regen_mode: RegenMode = "skip_ahead"
    bus_capacity: int = BUS_CAPACITY
    bus_retain_k: int = BUS_RETAIN_K
    seed: int | None = None
    note_noise_scale: float = 0.0
    masked_strides: frozenset[int] = frozenset()
    warmup_tokens: int = GateState.warmup_tokens
    record_margins: bool = False

    def __post_init__(self) -> None:
        if self.stride_b < 1:
            raise ConfigError("stride_b must be >= 1")
        if self.horizon_l < self.stride_b:
            raise ConfigError("horizon_l must be >= stride_b so commits bound uncommitted spans")
        if self.tau is not None and not 0.0 < self.tau < 1.0:
            raise ConfigError("tau must lie in (0, 1)")
        if self.read_delta < 0:
            raise ConfigError("read_delta must be non-negative")
        if any(s < 0 for s in self.masked_strides):
            raise ConfigError("masked_strides must be non-negative stride indices")
        if self.regen_mode not in get_args(RegenMode):
            raise ConfigError(f"unknown regen_mode {self.regen_mode!r}")
        if self.agreement_mode not in get_args(AgreementMode):
            raise ConfigError(f"unknown agreement_mode {self.agreement_mode!r}")
        if not 0.0 <= self.note_noise_scale < math.inf:
            raise ConfigError("note_noise_scale must be finite and non-negative")
        if self.gate_override is not None and not 0.0 <= self.gate_override <= 1.0:
            raise ConfigError("gate_override must lie in [0, 1]")


# -- events -----------------------------------------------------------------


@dataclass(frozen=True)
class TokenEvent:
    round_index: int
    stream_id: int
    position: int
    frame_index: int
    token_id: int

    def line(self) -> str:
        return f"TOKEN {self.round_index} {self.stream_id} {self.position} {self.frame_index} {self.token_id}"


@dataclass(frozen=True)
class GateEvent:
    round_index: int
    stream_id: int
    position: int
    value: float

    def line(self) -> str:
        return f"GATE {self.round_index} {self.stream_id} {self.position} {self.value!r}"


@dataclass(frozen=True)
class NoteEvent:
    round_index: int
    stream_id: int
    emitted_at_token: int
    version: int

    def line(self) -> str:
        return f"NOTE {self.round_index} {self.stream_id} {self.emitted_at_token} {self.version}"


@dataclass(frozen=True)
class SnapshotEvent:
    round_index: int
    snapshot_version: int
    created_at_token: int

    def line(self) -> str:
        return f"SNAPSHOT {self.round_index} {self.snapshot_version} {self.created_at_token}"


@dataclass(frozen=True)
class RollbackEvent:
    stream_id: int
    trigger_position: int
    rolled_back_to: int
    min_agreement: float
    pages_dropped: int
    round_index: int

    def line(self) -> str:
        return (
            f"ROLLBACK {self.round_index} {self.stream_id} {self.trigger_position} "
            f"{self.rolled_back_to} {self.min_agreement!r} {self.pages_dropped}"
        )


TraceRecord = TokenEvent | GateEvent | NoteEvent | SnapshotEvent | RollbackEvent


@dataclass
class StreamState:
    """Mutable decode state of one stream; only the decode loop mutates it.

    tokens_decoded counts every decoded token, rolled-back ones included; it
    numbers the positions the cadence is asked about.
    """

    stream_id: int
    gate_state: GateState
    tokens_decoded: int = 0
    token_log: list[int] = field(default_factory=list)
    min_uncommitted_agreement: float = math.inf
    committed_prefix: int = 0
    cursor: int = 0
    reconsume_attempts: int = 0
    forced_commits: int = 0
    tokens_since_own_note: int = 0
    pending_notes: list[tuple[np.ndarray, int]] = field(default_factory=list)
    seen_versions: dict[int, int] = field(default_factory=dict)
    last_note_mean: np.ndarray | None = None
    last_gate_value: float | None = None
    margins: list[float] = field(default_factory=list)

    @property
    def position(self) -> int:
        return len(self.token_log)


def _effective_tau(artifact: ReplayArtifact, config: DecodeConfig) -> float:
    return config.tau if config.tau is not None else artifact.agreement.tau


def _effective_seed(artifact: ReplayArtifact, config: DecodeConfig) -> int:
    return config.seed if config.seed is not None else artifact.seed


def make_stream_states(artifact: ReplayArtifact, config: DecodeConfig) -> list[StreamState]:
    states = []
    for k in range(artifact.n_streams):
        gs = GateState(warmup_tokens=config.warmup_tokens)
        states.append(StreamState(stream_id=k, gate_state=gs))
    return states


def _note_entropy(probs: np.ndarray) -> float:
    nz = probs[probs > 0.0]
    return float(-(nz * np.log(nz)).sum())


def _note_event(state: StreamState, rows: np.ndarray, newest: dict[int, int]) -> tuple[bool, float | None]:
    """Whether a stride's sibling view holds notes the stream has not seen yet.

    A sibling note is new when its stream's newest version in the view is
    above the one the stream recorded at its last event.  A stream's
    versions only grow, a tombstoned or compacted note never comes back,
    and a compaction summary takes the version of a note that was visible,
    so this is exactly "the view holds a note the last event's view did not".
    Returns the event flag and, from the second event on, how far the mean
    sibling row moved since the last one.  On an event the view's newest
    versions and mean become the stream's record; a view that only lost
    notes (to a rollback or to compaction) is no event and leaves the
    record as it is.
    """
    seen = state.seen_versions
    if all(v <= seen.get(sid, -1) for sid, v in newest.items()):
        return False, None
    mean_now = rows.mean(axis=0)
    note_change = None
    if state.last_note_mean is not None:
        note_change = float(np.linalg.norm(mean_now - state.last_note_mean))
    state.last_note_mean = mean_now
    state.seen_versions = newest
    return True, note_change


def step_stream(
    state: StreamState,
    artifact: ReplayArtifact,
    config: DecodeConfig,
    round_index: int,
    rows: np.ndarray,
    note_event: bool,
    note_change: float | None,
    base_gate: float,
) -> list[TraceRecord]:
    """Decode one stride of a stream against its frozen sibling rows.

    Takes up to stride_b frames from the stream's cursor.  The gate schedule
    runs first, token by token; note_event and note_change feed its first
    step only.  Then the whole block goes through the adapter, one note
    attention against the sibling rows, one readout into logit biases, and
    an argmax per row.  base_gate is the artifact's logistic(gamma), which
    run_parallel computes once; the controller clamps it under its schedule.
    A last per-token pass logs the tokens, emits events and asks the cadence
    about each position.  Emissions are queued in pending_notes; nothing
    touches the bus until the caller's barrier.
    """
    frames = artifact.streams[state.stream_id]
    first = state.cursor
    n = min(config.stride_b, frames.length - first)
    block = slice(first, first + n)

    if config.gate_override is not None:
        gates = [float(config.gate_override)] * n
    else:
        gates = []
        for _ in range(n):
            _, gate, _ = gate_controller_step(state.gate_state, base_gate, note_event, note_change)
            gates.append(gate)
            note_event, note_change = False, None
    gate_col = np.array(gates)[:, None]

    h_adapted = apply_adapter(frames.hidden[block], artifact.adapter)
    if rows.shape[0] > 0 and gate_col.any():
        # A closed gate's row of the residual is 0 * finite = +-0, so it adds
        # exactly nothing to that row's logits and hidden state.
        residual = gate_col * attend_notes(h_adapted, rows, artifact.snc)
        biased = frames.logits[block] + residual @ artifact.readout
        h_out = h_adapted + residual
    else:
        biased = frames.logits[block]
        h_out = h_adapted
    tokens = biased.argmax(axis=1).tolist()
    if config.record_margins:
        top2 = np.partition(biased, -2, axis=1)[:, -2:]
        state.margins.extend((top2[:, 1] - top2[:, 0]).tolist())

    if config.agreement_mode == "artifact":
        scores = frames.agreement[block].tolist()
    else:
        scores = [agreement_score(h, artifact.agreement) for h in h_out]
    if config.cadence.mode == "adaptive":
        probs = row_softmax(biased)
        entropy_norm = [_note_entropy(p) / math.log(artifact.vocab_size) for p in probs]

    base, decoded = state.position, state.tokens_decoded
    seed = _effective_seed(artifact, config)
    state.token_log.extend(tokens)
    state.min_uncommitted_agreement = min(state.min_uncommitted_agreement, *scores)
    state.cursor += n
    state.tokens_decoded += n

    events: list[TraceRecord] = []
    for t in range(n):
        frame, position, gate = first + t, base + t, gates[t]
        state.tokens_since_own_note += 1
        events.append(TokenEvent(round_index, state.stream_id, position, frame, tokens[t]))
        if state.last_gate_value is None or gate != state.last_gate_value:
            events.append(GateEvent(round_index, state.stream_id, position, gate))
            state.last_gate_value = gate

        signals = None
        if config.cadence.mode == "adaptive":
            signals = ContextSignals(
                agreement=scores[t],
                entropy_norm=entropy_norm[t],
                note_age=state.tokens_since_own_note,
                gate=gate,
            )
        emit = next_emission(config.cadence, seed, state.stream_id, decoded + t + 1, signals)
        if emit and frames.note_present[frame]:
            emb = frames.note_embeddings[frame]
            if config.note_noise_scale > 0.0:
                noise = normal_array(seed, DOMAIN_NOISE, state.stream_id, frame, np.arange(artifact.d_note))
                emb = emb + config.note_noise_scale * noise
            state.pending_notes.append((emb, position))
            state.tokens_since_own_note = 0
    return events


def check_and_rollback(
    state: StreamState,
    artifact: ReplayArtifact,
    config: DecodeConfig,
    round_index: int,
) -> RollbackEvent | None:
    """Commit or rewind the uncommitted span at a stride boundary.

    If every uncommitted agreement score clears tau the span commits.
    Otherwise the stream rewinds to its committed prefix: the token log is
    truncated and (in reconsume mode) the frame cursor steps back so the span
    is decoded again.  The span's notes were published at the barrier before
    this runs; run_parallel tombstones them.  After
    MAX_RECONSUME_ATTEMPTS failed retries the span force-commits so replays
    cannot live-lock; skip-ahead mode instead leaves the cursor in place and
    continues with fresh frames.
    """
    span = state.position - state.committed_prefix
    if span == 0:
        return None
    if span > config.horizon_l:
        raise ConfigError(f"uncommitted span {span} exceeds commit horizon {config.horizon_l}")
    tau = _effective_tau(artifact, config)
    min_score = state.min_uncommitted_agreement
    state.min_uncommitted_agreement = math.inf
    forced = (
        min_score < tau
        and config.regen_mode == "reconsume"
        and state.reconsume_attempts >= MAX_RECONSUME_ATTEMPTS
    )
    if min_score >= tau or forced:
        state.committed_prefix = state.position
        state.reconsume_attempts = 0
        if forced:
            state.forced_commits += 1
        return None

    trigger = state.position
    target = state.committed_prefix
    del state.token_log[target:]
    del state.margins[target:]
    if config.regen_mode == "reconsume":
        state.cursor -= span
        state.reconsume_attempts += 1
    pages = pages_touched(target, trigger, config.horizon_l)
    return RollbackEvent(
        stream_id=state.stream_id,
        trigger_position=trigger,
        rolled_back_to=target,
        min_agreement=min_score,
        pages_dropped=pages,
        round_index=round_index,
    )


# -- trace ------------------------------------------------------------------


@dataclass
class DecodeTrace:
    """Complete record of a run: config echo, event log, final bus, summary.

    A trace is not modified after run_parallel returns, so its rendering is
    built once and shared by trace_hash and write.
    """

    config_line: str
    events: list[TraceRecord]
    bus_lines: list[str]
    token_logs: tuple[tuple[int, ...], ...]
    committed: tuple[int, ...]
    rollback_states: tuple[tuple[int, int, tuple[int, ...]], ...]
    forced_commits: int
    margins: tuple[tuple[float, ...], ...] = ()

    def to_lines(self) -> list[str]:
        lines = ["PDTTRACE v1", self.config_line]
        lines.extend(ev.line() for ev in self.events)
        lines.extend(self.bus_lines)
        n_tokens = sum(len(t) for t in self.token_logs)
        n_rollbacks = sum(1 for e in self.events if isinstance(e, RollbackEvent))
        n_notes = sum(1 for e in self.events if isinstance(e, NoteEvent))
        lines.append(
            f"SUMMARY streams={len(self.token_logs)} tokens={n_tokens} "
            f"rollbacks={n_rollbacks} notes={n_notes} forced_commits={self.forced_commits}"
        )
        return lines

    @cached_property
    def _bytes(self) -> bytes:
        return "".join(line + "\n" for line in self.to_lines()).encode("utf-8")

    def trace_hash(self) -> str:
        return hashlib.sha256(self._bytes).hexdigest()

    def write(self, path: str) -> None:
        # Binary mode writes exactly the hashed bytes on every platform.
        with open(path, "wb") as fh:
            fh.write(self._bytes)

    def rollback_events(self) -> list[RollbackEvent]:
        return [e for e in self.events if isinstance(e, RollbackEvent)]


def _config_line(artifact: ReplayArtifact, config: DecodeConfig) -> str:
    cad = config.cadence
    fields = [
        ("streams", artifact.n_streams),
        ("stride_b", config.stride_b),
        ("horizon_l", config.horizon_l),
        ("tau", repr(_effective_tau(artifact, config))),
        ("read_delta", config.read_delta),
        ("cadence", f"{cad.mode}:{cad.interval_m}"),
        ("gate_override", "none" if config.gate_override is None else repr(config.gate_override)),
        ("agreement_mode", config.agreement_mode),
        ("regen_mode", config.regen_mode),
        ("seed", _effective_seed(artifact, config)),
        ("noise", repr(config.note_noise_scale)),
    ]
    return "CONFIG " + " ".join(f"{k}={v}" for k, v in fields)


def run_parallel(artifact: ReplayArtifact, config: DecodeConfig | None = None) -> DecodeTrace:
    """Decode every stream of an artifact to completion.

    The trace is a pure function of (artifact, config).  Each round decodes
    up to stride_b tokens per stream against sibling views frozen at the
    last barrier, then publishes queued notes, commits or rolls back each
    stream, and snapshots the bus.  Nothing reaches the bus before the
    barrier, so the streams decode one after another within a round.
    """
    config = config or DecodeConfig()
    bus = NotesBus(
        artifact.d_note,
        capacity=config.bus_capacity,
        retain_k=config.bus_retain_k,
        max_delta=config.read_delta,
    )
    states = make_stream_states(artifact, config)
    events: list[TraceRecord] = []
    rollback_states: list[tuple[int, int, tuple[int, ...]]] = []
    round_index = 0
    no_rows = np.zeros((0, artifact.d_note))
    lengths = artifact.lengths()
    base_gate = float(logistic(artifact.snc.gamma))

    while any(s.cursor < lengths[s.stream_id] for s in states):
        view = None if round_index in config.masked_strides else bus.read_lagged(config.read_delta)
        for s in states:
            if s.cursor >= lengths[s.stream_id]:
                continue
            rows, newest = (no_rows, {}) if view is None else stack_sibling_rows(view, s.stream_id)
            note_event, note_change = _note_event(s, rows, newest)
            events.extend(step_stream(s, artifact, config, round_index, rows, note_event, note_change, base_gate))

        published = False
        for s in states:
            for emb, pos in s.pending_notes:
                note = bus.publish(s.stream_id, emb, pos)
                events.append(NoteEvent(round_index, s.stream_id, pos, note.version))
                published = True
            s.pending_notes.clear()
        for s in states:
            rb = check_and_rollback(s, artifact, config, round_index)
            if rb is not None:
                bus.tombstone_after(s.stream_id, rb.rolled_back_to)
                events.append(rb)
                rollback_states.append((s.stream_id, rb.rolled_back_to, tuple(s.token_log)))
        if published:
            clock = max(s.position for s in states)
            events.append(SnapshotEvent(round_index, bus.snapshot(), clock))
        round_index += 1

    return DecodeTrace(
        config_line=_config_line(artifact, config),
        events=events,
        bus_lines=bus.dump_lines(),
        token_logs=tuple(tuple(s.token_log) for s in states),
        committed=tuple(s.committed_prefix for s in states),
        rollback_states=tuple(rollback_states),
        forced_commits=sum(s.forced_commits for s in states),
        margins=tuple(tuple(s.margins) for s in states),
    )
