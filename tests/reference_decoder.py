"""Sequential per-token reference decoder, an independent oracle for run_parallel.

It is written from the decode contract one token at a time, with its own note
store and its own adapter, attention, readout and agreement arithmetic.  From
the package it takes only the leaf policies (gate schedule, cadence, counter
RNG, page count) and the trace record types, so a fault in the stride loop,
the notes bus or the batched kernels shows up as a difference.

Its arithmetic is per row, so a live-mode score can differ from the batched
decoder's in the last bits; everything else should match exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from pdtcoord.cadence import ContextSignals, next_emission
from pdtcoord.decode import (
    MAX_RECONSUME_ATTEMPTS,
    DecodeConfig,
    DecodeTrace,
    GateEvent,
    NoteEvent,
    RollbackEvent,
    SnapshotEvent,
    TokenEvent,
    _config_line,
)
from pdtcoord.memmodel import pages_touched
from pdtcoord.replay import ReplayArtifact
from pdtcoord.rng import DOMAIN_NOISE, normal_array
from pdtcoord.snc import GateState, gate_controller_step


@dataclass
class RefNote:
    stream: int
    version: int
    emb: np.ndarray
    pos: int
    schema: str = "note"


class RefBus:
    """Live notes per stream in version order, tombstones, and mean-pool compaction."""

    def __init__(self, capacity: int, retain_k: int) -> None:
        self.capacity, self.retain_k = capacity, retain_k
        self.live: dict[int, list[RefNote]] = {}
        self.dead: list[RefNote] = []
        self.versions: dict[int, int] = {}

    def visible(self) -> list[RefNote]:
        return [n for sid in sorted(self.live) for n in self.live[sid]]

    def publish(self, stream: int, emb: np.ndarray, pos: int) -> int:
        version = self.versions.get(stream, 0)
        self.versions[stream] = version + 1
        self.live.setdefault(stream, []).append(RefNote(stream, version, np.array(emb), pos))
        for keep in (self.retain_k, 1):
            if len(self.visible()) > self.capacity:
                self.compact(keep)
        assert len(self.visible()) <= self.capacity
        return version

    def compact(self, keep: int) -> None:
        for sid, notes in self.live.items():
            if len(notes) > keep:
                old = notes[:-keep]
                pooled = np.mean(np.stack([n.emb for n in old]), axis=0)
                self.live[sid] = [RefNote(sid, old[-1].version, pooled, old[-1].pos, "summary"), *notes[-keep:]]

    def tombstone(self, stream: int, pos: int) -> None:
        notes = self.live.get(stream, [])
        self.dead.extend(n for n in notes if n.pos >= pos)
        self.live[stream] = [n for n in notes if n.pos < pos]

    def dump(self) -> list[str]:
        records = [(n, "live") for n in self.visible()] + [(n, "tombstoned") for n in self.dead]
        records.sort(key=lambda r: (r[0].stream, r[0].version, r[1] == "tombstoned"))
        return [
            f"BUSNOTE {n.stream} {n.version} {n.pos} {n.schema} {status} "
            + ",".join(repr(float(x)) for x in n.emb)
            for n, status in records
        ]


@dataclass
class RefStream:
    sid: int
    gate: GateState
    decoded: int
    log: list[int] = field(default_factory=list)
    frames: list[int] = field(default_factory=list)
    scores: list[float] = field(default_factory=list)
    committed: int = 0
    cursor: int = 0
    attempts: int = 0
    forced: int = 0
    since_note: int = 0
    pending: list[tuple[np.ndarray, int]] = field(default_factory=list)
    known: frozenset = frozenset()
    last_mean: np.ndarray | None = None
    last_gate: float | None = None


def _logistic(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))


def _adapt(h: np.ndarray, artifact: ReplayArtifact) -> np.ndarray:
    p = artifact.adapter
    normed = (h - h.mean()) / np.sqrt(h.var() + p.ln_eps)
    inner = normed @ p.w_down
    return h + (0.5 * inner * (1.0 + erf(inner / math.sqrt(2.0)))) @ p.w_up


def _attend(h: np.ndarray, notes: np.ndarray, artifact: ReplayArtifact) -> np.ndarray:
    p = artifact.snc
    scores = (h @ p.w_q) @ (notes @ p.w_k).T / math.sqrt(p.d_attn)
    weights = np.exp(scores - scores.max())
    weights /= weights.sum()
    return (weights @ (notes @ p.w_v)) @ p.w_o


def reference_decode(
    artifact: ReplayArtifact, config: DecodeConfig
) -> tuple[DecodeTrace, tuple[tuple[int, ...], ...]]:
    """Decode token by token; returns the trace and each stream's final frame log."""
    seed = config.seed if config.seed is not None else artifact.seed
    tau = config.tau if config.tau is not None else artifact.agreement.tau
    base_gate = artifact.snc.gate_value()
    streams = [
        RefStream(
            k,
            GateState(
                g_min=GateState.g_min,
                g_max=GateState.g_max,
                warmup_tokens=config.warmup_tokens,
            ),
            0,
        )
        for k in range(artifact.n_streams)
    ]
    bus = RefBus(config.bus_capacity, config.bus_retain_k)
    snapshots: list[list[RefNote]] = [[]]
    events: list = []
    rollback_states = []
    r = 0

    def unfinished() -> list[RefStream]:
        return [s for s in streams if s.cursor < artifact.streams[s.sid].length]

    while unfinished():
        lagged = bus.visible() if config.read_delta == 0 else snapshots[max(0, len(snapshots) - config.read_delta)]
        for s in unfinished():
            frames = artifact.streams[s.sid]
            sibs = [] if r in config.masked_strides else [n for n in lagged if n.stream != s.sid]
            notes = np.array([n.emb for n in sibs]).reshape(len(sibs), artifact.d_note)
            keys = frozenset((n.stream, n.version) for n in sibs)
            event, change = False, None
            if not keys <= s.known:
                mean = notes.mean(axis=0)
                if s.last_mean is not None:
                    change = float(np.linalg.norm(mean - s.last_mean))
                event, s.known, s.last_mean = True, keys, mean

            for _ in range(config.stride_b):
                if s.cursor >= frames.length:
                    break
                frame = s.cursor
                h = _adapt(frames.hidden[frame], artifact)
                if config.gate_override is not None:
                    gate = float(config.gate_override)
                else:
                    _, gate, _ = gate_controller_step(s.gate, base_gate, event, change)
                event, change = False, None
                logits = frames.logits[frame]
                if len(sibs) and gate != 0.0:
                    residual = gate * _attend(h, notes, artifact)
                    logits = logits + residual @ artifact.readout
                    h = h + residual
                token = int(np.argmax(logits))
                if config.agreement_mode == "artifact":
                    score = float(frames.agreement[frame])
                else:
                    score = _logistic(float(h @ artifact.agreement.w_agree) + artifact.agreement.b_agree)
                position = len(s.log)
                s.log.append(token)
                s.frames.append(frame)
                s.scores.append(score)
                s.cursor += 1
                s.since_note += 1
                events.append(TokenEvent(r, s.sid, position, frame, token))
                if gate != s.last_gate:
                    events.append(GateEvent(r, s.sid, position, gate))
                    s.last_gate = gate

                signals = None
                if config.cadence.mode == "adaptive":
                    p = np.exp(logits - logits.max())
                    p /= p.sum()
                    p = p[p > 0.0]
                    entropy = float(-(p * np.log(p)).sum())
                    signals = ContextSignals(
                        agreement=score,
                        entropy_norm=entropy / math.log(artifact.vocab_size),
                        note_age=s.since_note,
                        gate=gate,
                    )
                s.decoded += 1
                emit = next_emission(config.cadence, seed, s.sid, s.decoded, signals)
                if emit and frames.note_present[frame]:
                    emb = frames.note_embeddings[frame]
                    if config.note_noise_scale > 0.0:
                        noise = normal_array(seed, DOMAIN_NOISE, s.sid, frame, np.arange(artifact.d_note))
                        emb = emb + config.note_noise_scale * noise
                    s.pending.append((emb, position))
                    s.since_note = 0

        published = False
        for s in streams:
            for emb, pos in s.pending:
                events.append(NoteEvent(r, s.sid, pos, bus.publish(s.sid, emb, pos)))
                published = True
            s.pending.clear()
        for s in streams:
            span = len(s.log) - s.committed
            if span == 0:
                continue
            assert span <= config.horizon_l
            low = min(s.scores)
            s.scores.clear()
            forced = low < tau and config.regen_mode == "reconsume" and s.attempts >= MAX_RECONSUME_ATTEMPTS
            if low >= tau or forced:
                s.committed, s.attempts = len(s.log), 0
                s.forced += forced
                continue
            trigger, target = len(s.log), s.committed
            del s.log[target:], s.frames[target:]
            if config.regen_mode == "reconsume":
                s.cursor -= span
                s.attempts += 1
            bus.tombstone(s.sid, target)
            pages = pages_touched(target, trigger, config.horizon_l)
            events.append(RollbackEvent(s.sid, trigger, target, low, pages, r))
            rollback_states.append((s.sid, target, tuple(s.log)))
        if published:
            clock = max(len(s.log) for s in streams)
            snapshots.append(bus.visible())
            events.append(SnapshotEvent(r, len(snapshots) - 1, clock))
        r += 1

    trace = DecodeTrace(
        config_line=_config_line(artifact, config),
        events=events,
        bus_lines=bus.dump(),
        token_logs=tuple(tuple(s.log) for s in streams),
        committed=tuple(s.committed for s in streams),
        rollback_states=tuple(rollback_states),
        forced_commits=sum(s.forced for s in streams),
    )
    return trace, tuple(tuple(s.frames) for s in streams)
