"""Multi-stream decode controller: strides, note barriers, agreement-gated rollback.

Streams consume replay-artifact frames in lockstep strides of B tokens.  Inside
a stride each stream sees a view of its siblings' notes frozen at the top of
the stride, so the order in which streams decode cannot leak into the trace.
At the stride barrier the round's notes enter the bus as one batch, each stream's
uncommitted span is committed or rolled back based on its minimum agreement
score, and a new bus snapshot is recorded.

The full run serializes to a line-oriented trace whose SHA-256 is the
determinism fingerprint: two runs agree iff their trace hashes agree.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal, NamedTuple, get_args

import numpy as np

from .cadence import CadenceConfig, ContextSignals, emitting_offsets, next_emission
from .errors import ConfigError, as_float, as_int
from .kernels import logistic, row_softmax
from .memmodel import pages_touched
from .notebus import BUS_CAPACITY, BUS_RETAIN_K, BusView, NotesBus, stack_sibling_rows
from .replay import ReplayArtifact, overwrite
from .rng import DOMAIN_NOISE, normal_array
from .snc import GateState, agreement_score, apply_adapter, attend_notes, gate_controller_step

AgreementMode = Literal["artifact", "live"]
RegenMode = Literal["skip_ahead", "reconsume"]
# Failed retries of a span before reconsume mode force-commits it: a replay whose agreement never recovers cannot live-lock.
MAX_RECONSUME_ATTEMPTS = 2


@dataclass(frozen=True)
class DecodeConfig:
    """Controller settings; every field has a replay-safe default.

    Numbers are stored as plain int or float, so equal configs write equal CONFIG lines.
    """

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
        if not isinstance(self.cadence, CadenceConfig):
            raise ConfigError(f"cadence must be a CadenceConfig, got {self.cadence!r}")
        if not isinstance(self.masked_strides, Iterable):
            raise ConfigError(f"masked_strides must be a collection of stride indices, got {self.masked_strides!r}")
        for name in ("stride_b", "horizon_l", "read_delta", "bus_capacity", "bus_retain_k", "warmup_tokens"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        object.__setattr__(self, "note_noise_scale", as_float(self.note_noise_scale, "note_noise_scale"))
        for name, check in (("seed", as_int), ("tau", as_float), ("gate_override", as_float)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check(getattr(self, name), name))
        masked = frozenset(as_int(s, "masked_strides entry") for s in self.masked_strides)
        object.__setattr__(self, "masked_strides", masked)
        for name in ("stride_b", "bus_capacity", "bus_retain_k", "warmup_tokens"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
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
        if self.gate_override == 0.0:  # -0.0 is the same closed gate, and the pinned schedule computes +0.0
            object.__setattr__(self, "gate_override", 0.0)


# -- records ----------------------------------------------------------------
#
# A decode keeps the body of its trace as records, immutable named tuples
# that each render their own lines: one StrideTokens per (stream, stride),
# one BarrierNotes per (stream, barrier), and a RollbackEvent or
# SnapshotEvent per ROLLBACK or SNAPSHOT line.  TokenEvent is no record:
# DecodeTrace.events builds one per TOKEN line for the benchmark's counts.


class TokenEvent(NamedTuple):
    round_index: int
    stream_id: int
    position: int
    frame_index: int
    token_id: int


class SnapshotEvent(NamedTuple):
    round_index: int
    snapshot_version: int
    created_at_token: int

    def lines(self) -> list[str]:
        return [f"SNAPSHOT {self.round_index} {self.snapshot_version} {self.created_at_token}"]


class RollbackEvent(NamedTuple):
    """One ROLLBACK line; pages_touched counts the horizon_l-token pages the rolled-back span overlaps."""

    stream_id: int
    trigger_position: int
    rolled_back_to: int
    min_agreement: float
    pages_touched: int
    round_index: int

    def lines(self) -> list[str]:
        return [
            f"ROLLBACK {self.round_index} {self.stream_id} {self.trigger_position} "
            f"{self.rolled_back_to} {self.min_agreement!r} {self.pages_touched}"
        ]


class StrideTokens(NamedTuple):
    """One stream's tokens of one stride: a TOKEN line each, and the GATE lines among them.

    Token t sits at position + t and came from frame_index + t.  gates holds
    an (offset, value) pair for each token whose gate differs from the
    stream's previous token's; its GATE line follows that token's TOKEN line.
    """

    round_index: int
    stream_id: int
    position: int
    frame_index: int
    token_ids: tuple[int, ...]
    gates: tuple[tuple[int, float], ...]

    def lines(self) -> list[str]:
        head, gates = f"{self.round_index} {self.stream_id}", dict(self.gates)
        out = []
        for t, token in enumerate(self.token_ids):
            position = self.position + t
            out.append(f"TOKEN {head} {position} {self.frame_index + t} {token}")
            if t in gates:
                out.append(f"GATE {head} {position} {gates[t]!r}")
        return out


class BarrierNotes(NamedTuple):
    """The notes one stream published at one barrier: a NOTE line each.

    A stream's versions count up by one per publish, so note i has version
    first_version + i.
    """

    round_index: int
    stream_id: int
    positions: tuple[int, ...]
    first_version: int

    def lines(self) -> list[str]:
        head = f"NOTE {self.round_index} {self.stream_id}"
        return [f"{head} {p} {self.first_version + i}" for i, p in enumerate(self.positions)]


TraceRecord = StrideTokens | BarrierNotes | RollbackEvent | SnapshotEvent


@dataclass
class StreamState:
    """Mutable decode state of one stream; only the decode loop mutates it.

    position is the length of the stream's token log, whose tokens only the
    trace records keep.  tokens_decoded counts every decoded token,
    rolled-back ones included; it numbers the positions the cadence is
    asked about.  tokens_since_own_note is the note age that adaptive
    cadence reads; no other mode keeps it.
    """

    stream_id: int
    gate_state: GateState
    position: int = 0
    tokens_decoded: int = 0
    min_uncommitted_agreement: float = math.inf
    committed_prefix: int = 0
    cursor: int = 0
    reconsume_attempts: int = 0
    forced_commits: int = 0
    tokens_since_own_note: int = 0
    seen_versions: dict[int, int] = field(default_factory=dict)
    last_gate_value: float | None = None
    margins: list[float] = field(default_factory=list)


def _effective_tau(artifact: ReplayArtifact, config: DecodeConfig) -> float:
    return config.tau if config.tau is not None else artifact.agreement.tau


def _effective_seed(artifact: ReplayArtifact, config: DecodeConfig) -> int:
    return config.seed if config.seed is not None else artifact.seed


def make_stream_states(artifact: ReplayArtifact, config: DecodeConfig) -> list[StreamState]:
    # An override o pins the gate: with g_min = g_max = o the schedule is o + 0.0 * frac, so the
    # controller returns exactly o at every token, and a constant window never flickers.
    o = config.gate_override
    pinned = {} if o is None else {"g_min": o, "g_max": o}
    return [StreamState(k, GateState(warmup_tokens=config.warmup_tokens, **pinned)) for k in range(artifact.n_streams)]


def _note_entropy(probs: np.ndarray) -> float:
    nz = probs[probs > 0.0]
    return float(-(nz * np.log(nz)).sum())


def _note_event(state: StreamState, newest: dict[int, int]) -> bool:
    """Whether a stride's sibling view holds notes the stream has not seen yet.

    newest maps each sibling in the view to its newest version there.  A
    sibling note is new when that version is above the one the stream
    recorded at its last event.  A stream's versions only grow, a tombstoned
    or compacted note never comes back, and a compaction summary takes the
    version of a note that was visible, so this is exactly "the view holds a
    note the last event's view did not".  On an event the view's newest
    versions become the stream's record; a view that only lost notes (to a
    rollback or to compaction) is no event and leaves the record as it is.
    """
    seen = state.seen_versions
    if all(v <= seen.get(sid, -1) for sid, v in newest.items()):
        return False
    state.seen_versions = newest
    return True


def _next_block(state: StreamState, artifact: ReplayArtifact, config: DecodeConfig) -> slice:
    """The frames a stream decodes in its next stride: up to stride_b from its cursor."""
    first = state.cursor
    return slice(first, min(first + config.stride_b, artifact.streams[state.stream_id].length))


def _adapt_stride(artifact: ReplayArtifact, config: DecodeConfig, readers: list[StreamState]) -> dict[int, np.ndarray]:
    """Each reader's adapted block for the stride, from one adapter call.

    The readers are the streams whose adapted states the stride reads.
    Their blocks are stacked, and each adapter step works row by row, so a
    stream's slice of the output is what a call on its own block returns.
    """
    if not readers:
        return {}
    blocks = [artifact.streams[s.stream_id].hidden[_next_block(s, artifact, config)] for s in readers]
    stacked = apply_adapter(np.concatenate(blocks), artifact.adapter)
    adapted, start = {}, 0
    for s, block in zip(readers, blocks):
        adapted[s.stream_id] = stacked[start : start + len(block)]
        start += len(block)
    return adapted


def step_stream(
    state: StreamState,
    artifact: ReplayArtifact,
    config: DecodeConfig,
    round_index: int,
    rows: np.ndarray,
    note_event: bool,
    base_gate: float,
    h_adapted: np.ndarray | None,
) -> tuple[StrideTokens, tuple[np.ndarray | list[np.ndarray], list[int]] | None]:
    """Decode one stride of a stream against its frozen sibling rows.

    Takes up to stride_b frames from the stream's cursor.  One gate
    controller call runs the stride's schedule; note_event feeds its first
    token only.  h_adapted is the block's adapter output, which run_parallel
    computes for every stream of the stride in one call; it may be None when
    nothing reads it, that is when rows is empty and agreement comes from
    the artifact.  The block then takes one note attention against the
    sibling rows, one readout into logit biases, and an argmax per row.
    base_gate is the artifact's logistic(gamma), which run_parallel computes
    once; the controller clamps it under its schedule.  Last, the stride
    marks where the gate changes and asks the cadence about all of its
    positions at once (adaptive cadence, whose signals chain token to
    token, asks one position at a time).  Nothing touches the bus here.
    Returns the stride's one trace record, which holds its TOKEN and GATE
    lines, and the notes it emitted for the caller's barrier: their rows
    and positions, or None when it emitted none.
    """
    frames = artifact.streams[state.stream_id]
    block = _next_block(state, artifact, config)
    first, n = block.start, block.stop - block.start

    _, gates, _ = gate_controller_step(state.gate_state, base_gate, note_event, tokens=n)
    gate_col = np.array(gates)[:, None]

    residual = None
    if rows.shape[0] > 0 and gate_col.any():
        # A closed gate's row of the residual is 0 * finite = +-0, so it adds
        # exactly nothing to that row's logits and hidden state.
        residual = gate_col * attend_notes(h_adapted, rows, artifact.snc)
        biased = frames.logits[block] + residual @ artifact.readout
    else:
        biased = frames.logits[block]
    tokens = biased.argmax(axis=1).tolist()
    if config.record_margins:
        top2 = np.partition(biased, -2, axis=1)[:, -2:]
        state.margins.extend((top2[:, 1] - top2[:, 0]).tolist())

    if config.agreement_mode == "artifact":
        scores = frames.agreement[block].tolist()
    else:
        h_out = h_adapted if residual is None else h_adapted + residual
        scores = [agreement_score(h, artifact.agreement) for h in h_out]
    if config.cadence.mode == "adaptive":
        probs = row_softmax(biased)
        entropy_norm = [_note_entropy(p) / math.log(artifact.vocab_size) for p in probs]

    base, decoded = state.position, state.tokens_decoded
    present = frames.note_present[block].tolist()
    seed = _effective_seed(artifact, config)
    state.position += n
    state.min_uncommitted_agreement = min(state.min_uncommitted_agreement, *scores)
    state.cursor += n
    state.tokens_decoded += n

    # A GATE line marks each token whose gate differs from the token before.
    gate_marks = []
    last = state.last_gate_value
    for t, gate in enumerate(gates):
        if gate != last:
            gate_marks.append((t, gate))
            last = gate
    state.last_gate_value = last

    if config.cadence.mode == "adaptive":
        emitting, age = [], state.tokens_since_own_note
        for t in range(n):
            age += 1
            signals = ContextSignals(agreement=scores[t], entropy_norm=entropy_norm[t], note_age=age, gate=gates[t])
            if next_emission(config.cadence, seed, state.stream_id, decoded + t + 1, signals) and present[t]:
                emitting.append(t)
                age = 0
        state.tokens_since_own_note = age
    else:
        offsets = emitting_offsets(config.cadence, seed, state.stream_id, decoded + 1, n)
        emitting = [t for t in offsets if present[t]]
    notes = None
    if emitting:
        at = [first + t for t in emitting]
        if config.note_noise_scale > 0.0:
            noise = normal_array(seed, DOMAIN_NOISE, state.stream_id, np.array(at)[:, None], np.arange(artifact.d_note))
            rows = frames.note_embeddings[at] + config.note_noise_scale * noise
        else:
            # Row views: publish stacks them at the barrier, so no copy is held while the siblings decode.
            rows = [frames.note_embeddings[i] for i in at]
        notes = (rows, [base + t for t in emitting])
    return StrideTokens(round_index, state.stream_id, base, first, tuple(tokens), tuple(gate_marks)), notes


def check_and_rollback(
    state: StreamState,
    artifact: ReplayArtifact,
    config: DecodeConfig,
    round_index: int,
) -> RollbackEvent | None:
    """Commit or rewind the uncommitted span at a stride boundary.

    If every uncommitted agreement score clears tau the span commits.
    Otherwise the stream rewinds to its committed prefix: its position
    steps back to it and (in reconsume mode) so does the frame cursor, so
    the span is decoded again.  The span's notes were published at the
    barrier before this runs; run_parallel tombstones them.  After
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
    state.position = target
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
        pages_touched=pages,
        round_index=round_index,
    )


# -- trace ------------------------------------------------------------------


@dataclass
class DecodeTrace:
    """Complete record of a run: config echo, trace records, final bus, summary.

    records holds the body of the trace in line order: StrideTokens and
    BarrierNotes for the TOKEN, GATE and NOTE lines, and one record per
    ROLLBACK and SNAPSHOT line.  They are the run's only copy of its tokens:
    token_logs and rollback_states are replayed from them.  committed holds
    each stream's committed prefix length.  A trace is not modified after
    run_parallel returns, so its rendering and its replay are each built
    once and then shared.
    """

    config_line: str
    records: list[TraceRecord]
    bus_lines: list[str]
    committed: tuple[int, ...]
    forced_commits: int
    margins: tuple[tuple[float, ...], ...] = ()

    def to_lines(self) -> list[str]:
        lines = ["PDTTRACE v2", self.config_line]
        for r in self.records:
            lines.extend(r.lines())
        lines.extend(self.bus_lines)
        n_tokens = sum(len(t) for t in self.token_logs)
        lines.append(
            f"SUMMARY streams={len(self.committed)} tokens={n_tokens} "
            f"rollbacks={len(self.rollback_events())} notes={self.note_count()} forced_commits={self.forced_commits}"
        )
        return lines

    @cached_property
    def events(self) -> list[TokenEvent | RollbackEvent]:
        """One TokenEvent per TOKEN line and one RollbackEvent per ROLLBACK line, in line order.

        Built from the records on first use, for the benchmark's counts; nothing in the package reads it.
        """
        events: list[TokenEvent | RollbackEvent] = []
        for r in self.records:
            if isinstance(r, StrideTokens):
                for t, token in enumerate(r.token_ids):
                    events.append(TokenEvent(r.round_index, r.stream_id, r.position + t, r.frame_index + t, token))
            elif isinstance(r, RollbackEvent):
                events.append(r)
        return events

    @cached_property
    def _bytes(self) -> bytes:
        return ("\n".join(self.to_lines()) + "\n").encode("utf-8")

    def trace_hash(self) -> str:
        return hashlib.sha256(self._bytes).hexdigest()

    def write(self, path: str) -> None:
        # Binary mode writes exactly the hashed bytes on every platform.
        overwrite(path, (self._bytes,))

    def rollback_events(self) -> list[RollbackEvent]:
        return [r for r in self.records if isinstance(r, RollbackEvent)]

    def note_count(self) -> int:
        """The number of NOTE lines, counted from the records."""
        return sum(len(r.positions) for r in self.records if isinstance(r, BarrierNotes))

    @cached_property
    def _replay(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int, tuple[int, ...]], ...]]:
        # A stride's tokens extend its stream's log and a ROLLBACK cuts the log to its target.
        logs: list[list[int]] = [[] for _ in self.committed]
        states = []
        for r in self.records:
            if isinstance(r, StrideTokens):
                logs[r.stream_id].extend(r.token_ids)
            elif isinstance(r, RollbackEvent):
                del logs[r.stream_id][r.rolled_back_to:]
                states.append((r.stream_id, r.rolled_back_to, tuple(logs[r.stream_id])))
        return tuple(map(tuple, logs)), tuple(states)

    @property
    def token_logs(self) -> tuple[tuple[int, ...], ...]:
        """Each stream's final token log, replayed from the records."""
        return self._replay[0]

    @property
    def rollback_states(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """(stream, target, token log just after the cut) per rollback, replayed from the records."""
        return self._replay[1]


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
        ("masked_strides", ",".join(map(str, sorted(config.masked_strides))) or "none"),
        ("bus_capacity", config.bus_capacity),
        ("bus_retain_k", config.bus_retain_k),
        ("warmup_tokens", config.warmup_tokens),
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
        lag=config.read_delta,
    )
    states = make_stream_states(artifact, config)
    records: list[TraceRecord] = []
    round_index = 0
    masked_view = BusView(artifact.d_note, {}, {})
    lengths = artifact.lengths()
    base_gate = logistic(artifact.snc.gamma)
    live = config.agreement_mode == "live"

    while any(s.cursor < lengths[s.stream_id] for s in states):
        view = masked_view if round_index in config.masked_strides else bus.read_lagged()
        decoding = [s for s in states if s.cursor < lengths[s.stream_id]]
        readers = [s for s in decoding if live or any(k != s.stream_id for k in view.newest)]
        adapted = _adapt_stride(artifact, config, readers)
        # Sibling rows are stacked one stream at a time, so only one reader's
        # copy is alive at once.  Each adapted block is popped into its call
        # and bound to no name here, so the stacked block dies with the stride.
        queued = []
        for s in decoding:
            rows, newest = stack_sibling_rows(view, s.stream_id)
            note_event = _note_event(s, newest)
            record, notes = step_stream(
                s, artifact, config, round_index, rows, note_event, base_gate, adapted.pop(s.stream_id, None)
            )
            records.append(record)
            if notes is not None:
                queued.append((s.stream_id, *notes))

        # The barrier's notes arrive together: one publish, and at most one compaction.
        if queued:
            for (sid, _, positions), version in zip(queued, bus.publish(queued)):
                records.append(BarrierNotes(round_index, sid, tuple(positions), version))
        for s in states:
            rb = check_and_rollback(s, artifact, config, round_index)
            if rb is not None:
                bus.tombstone_after(s.stream_id, rb.rolled_back_to)
                records.append(rb)
        if queued:
            clock = max(s.position for s in states)
            records.append(SnapshotEvent(round_index, bus.snapshot(), clock))
        round_index += 1

    return DecodeTrace(
        config_line=_config_line(artifact, config),
        records=records,
        bus_lines=bus.dump_lines(),
        committed=tuple(s.committed_prefix for s in states),
        forced_commits=sum(s.forced_commits for s in states),
        margins=tuple(tuple(s.margins) for s in states),
    )
