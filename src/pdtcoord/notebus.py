"""Versioned cross-stream notes bus.

Streams publish fixed-width note embeddings into one lineage per stream;
readers see their siblings' notes either live or through the snapshot a
fixed lag back, a copy of the per-stream dict of (lineage, count) pairs.
Rolled-back notes are tombstoned, never deleted, so a trace replays
identically.  A capacity cap triggers mean-pool compaction of the oldest
notes per stream, and a publish that compaction could not fit is refused
with the bus unchanged.  Each lineage keeps its notes stacked as rows, and
a read stacks only the notes published since the last one; it lays the
streams' rows out in (stream id, version) order, and each reader of the
stride takes its siblings' rows out of that one table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import CapacityError, ConfigError, ShapeError, as_int
from .kernels import Matrix, as_vector

SCHEMA_NOTE = "note"
SCHEMA_SUMMARY = "summary"

# Default live-row cap and notes per stream kept verbatim by compaction.  At one note per
# 4 tokens, 2560 rows hold 8 streams for 1280 tokens, and 8 notes are one 32-token stride.
BUS_CAPACITY = 2560
BUS_RETAIN_K = 8


@dataclass(frozen=True)
class Note:
    """One published note: stream of origin, per-stream version, embedding."""

    stream_id: int
    version: int
    embedding: np.ndarray
    emitted_at_token: int
    schema_tag: str = SCHEMA_NOTE

    def __post_init__(self) -> None:
        emb = as_vector(self.embedding, "embedding").copy()
        emb.setflags(write=False)
        object.__setattr__(self, "embedding", emb)
        if self.stream_id < 0 or self.version < 0 or self.emitted_at_token < 0:
            raise ConfigError("stream_id, version and emitted_at_token must be non-negative")
        if self.schema_tag not in (SCHEMA_NOTE, SCHEMA_SUMMARY):
            raise ConfigError(f"unknown schema_tag {self.schema_tag!r}")


@dataclass(frozen=True)
class BusView:
    """The notes one read serves, in bus order: their stacked rows (read-only),
    each stream's newest version among them, and each stream's [start, stop)
    span of rows."""

    rows: Matrix
    newest: dict[int, int]
    spans: dict[int, tuple[int, int]]


class _Lineage:
    """One stream's notes since its last tombstone or compaction, and their rows.

    A publish appends a note; a tombstone or a compaction starts a new
    lineage.  So the stream's visible notes, and its notes in every snapshot
    that shares the lineage, are a prefix of `notes`: a (lineage, count)
    pair names them.  `rows` stacks a prefix of `notes` and only grows, so a
    read stacks each note of a lineage once and slices the rows it needs.
    """

    __slots__ = ("notes", "rows")

    def __init__(self, notes: list[Note], d_note: int) -> None:
        self.notes = notes
        self.rows = np.zeros((0, d_note))

    def stacked(self, count: int) -> Matrix:
        """The rows of the first count notes, read-only."""
        have = self.rows.shape[0]
        if count > have:
            flat = np.concatenate([self.rows.ravel(), *(n.embedding for n in self.notes[have:])])
            self.rows = flat.reshape(-1, self.rows.shape[1])
            self.rows.setflags(write=False)
        return self.rows[:count]


class NotesBus:
    """Append-only store of notes with snapshots, lagged reads and compaction.

    The visible notes are one (lineage, count) pair per stream: the first
    count notes of the lineage, in version order.  An operation on one
    stream replaces only that stream's pair.  A snapshot is a copy of that
    dict, which shares the lineages and copies no note or row.  Every read
    is at the bus's lag, so the bus keeps only the newest lag snapshots,
    none at lag 0.  A publish either fits, after compaction if need be, or
    raises CapacityError having changed nothing.
    """

    def __init__(
        self, d_note: int, capacity: int = BUS_CAPACITY, retain_k: int = BUS_RETAIN_K, lag: int = 0
    ) -> None:
        d_note, capacity = as_int(d_note, "d_note"), as_int(capacity, "capacity")
        retain_k, lag = as_int(retain_k, "retain_k"), as_int(lag, "lag")
        if d_note <= 0:
            raise ConfigError("d_note must be positive")
        if capacity <= 0 or retain_k <= 0:
            raise ConfigError("capacity and retain_k must be positive")
        if lag < 0:
            raise ConfigError("lag must be non-negative")
        self.d_note = d_note
        self.capacity = capacity
        self.retain_k = retain_k
        self.lag = lag
        self._visible: dict[int, tuple[_Lineage, int]] = {}
        self._tombstoned: list[Note] = []
        self._next_version: dict[int, int] = {}
        # The bus starts with an implicit empty snapshot, so a lagged read is
        # well defined before lag emission rounds complete.
        self._snapshots: deque[dict[int, tuple[_Lineage, int]]] = deque([{}], maxlen=lag)
        self._snapshot_version = 0

    # -- publishing ---------------------------------------------------------

    def publish(self, stream_id: int, embedding: np.ndarray, token_pos: int) -> Note:
        """Append a note for stream_id; returns the stored Note with its version."""
        version = self._next_version.get(stream_id, 0)
        note = Note(stream_id, version, embedding, token_pos)
        if note.embedding.shape[0] != self.d_note:
            raise ShapeError(f"note width {note.embedding.shape[0]} != bus width {self.d_note}")
        over = self.visible_rows() + 1 > self.capacity
        if over:
            # Compacting to 1 leaves min(n, 2) of a stream's n notes; refuse before any change if that is too many.
            counts = {sid: count for sid, (_, count) in self._visible.items()}
            counts[stream_id] = counts.get(stream_id, 0) + 1
            floor = sum(min(count, 2) for count in counts.values())
            if floor > self.capacity:
                raise CapacityError(f"bus over capacity: compaction leaves {floor} rows > {self.capacity}")
        self._append(note)
        self._next_version[stream_id] = version + 1
        if over:
            self.compact()
            if self.visible_rows() > self.capacity:
                self.compact(retain_k=1)
        return note

    def _append(self, note: Note) -> None:
        # The visible pair always holds all of its lineage's notes.
        lineage, count = self._visible.get(note.stream_id) or (_Lineage([], self.d_note), 0)
        lineage.notes.append(note)
        self._visible[note.stream_id] = (lineage, count + 1)

    def _notes(self, stream_id: int) -> list[Note]:
        lineage, count = self._visible.get(stream_id) or (None, 0)
        return lineage.notes[:count] if count else []

    def visible_rows(self) -> int:
        return sum(count for _, count in self._visible.values())

    # -- snapshots and reads ------------------------------------------------

    def snapshot(self) -> int:
        """Record a snapshot of all visible notes; returns its version (the first is 1)."""
        self._snapshots.append(dict(self._visible))
        self._snapshot_version += 1
        return self._snapshot_version

    def read_lagged(self) -> BusView:
        """The notes a read at the bus's lag serves, stacked once for every reader.

        Lag 0 is a live view of the current visible notes; lag L >= 1 reads
        the snapshot L emission rounds back (the initial empty snapshot
        while fewer than L have been taken).  The table concatenates one
        read-only block of rows per stream, each stacked by its lineage.
        stack_sibling_rows takes one reader's siblings out of it.
        """
        by_stream = self._snapshots[0] if self.lag else self._visible
        blocks: list[Matrix] = []
        spans: dict[int, tuple[int, int]] = {}
        newest: dict[int, int] = {}
        start = 0
        for sid in sorted(by_stream):
            lineage, count = by_stream[sid]
            if count:
                blocks.append(lineage.stacked(count))
                spans[sid] = (start, start + count)
                newest[sid] = lineage.notes[count - 1].version
                start += count
        rows = np.concatenate(blocks) if blocks else np.zeros((0, self.d_note))
        rows.setflags(write=False)
        return BusView(rows, newest, spans)

    # -- rollback and compaction --------------------------------------------

    def tombstone_after(self, stream_id: int, token_pos: int) -> int:
        """Tombstone stream_id's notes with emitted_at_token >= token_pos.

        Tombstoned notes leave the visible set but are archived for dumps, so
        replay bookkeeping is preserved.  Returns the number tombstoned.
        """
        notes = self._notes(stream_id)
        dropped = [n for n in notes if n.emitted_at_token >= token_pos]
        if dropped:
            kept = [n for n in notes if n.emitted_at_token < token_pos]
            self._visible[stream_id] = (_Lineage(kept, self.d_note), len(kept))
            self._tombstoned.extend(dropped)
        return len(dropped)

    def compact(self, retain_k: int | None = None) -> int:
        """Mean-pool each stream's oldest notes into one summary note.

        Keeps the newest retain_k notes per stream verbatim; anything older is
        replaced by a single summary row carrying the newest summarized
        version.  Returns the number of summary notes created.
        """
        k = self.retain_k if retain_k is None else retain_k
        if k <= 0:
            raise ConfigError("retain_k must be positive")
        created = 0
        for sid in list(self._visible):
            notes = self._notes(sid)
            if len(notes) > k:
                old = notes[:-k]
                pooled = np.mean(np.stack([n.embedding for n in old]), axis=0)
                summary = Note(
                    stream_id=sid,
                    version=old[-1].version,
                    embedding=pooled,
                    emitted_at_token=old[-1].emitted_at_token,
                    schema_tag=SCHEMA_SUMMARY,
                )
                self._visible[sid] = (_Lineage([summary, *notes[-k:]], self.d_note), k + 1)
                created += 1
        return created

    def _restore(self, notes: Iterable[tuple[Note, bool]]) -> None:
        """Load (note, tombstoned) pairs from a dump into this empty bus."""
        for note, tombstoned in sorted(notes, key=lambda p: (p[0].stream_id, p[0].version)):
            if tombstoned:
                self._tombstoned.append(note)
            else:
                self._append(note)
            self._next_version[note.stream_id] = max(self._next_version.get(note.stream_id, 0), note.version + 1)

    # -- serialization ------------------------------------------------------

    def dump_lines(self) -> list[str]:
        """Canonical text dump: one line per note, ordered (stream_id, version).

        Tombstoned notes are included with a tombstone marker.
        """
        records = [(n, False) for sid in self._visible for n in self._notes(sid)]
        records.extend((n, True) for n in self._tombstoned)
        records.sort(key=lambda r: (r[0].stream_id, r[0].version, r[1]))
        lines = []
        for n, tomb in records:
            vals = ",".join(map(repr, n.embedding.tolist()))
            lines.append(
                f"BUSNOTE {n.stream_id} {n.version} {n.emitted_at_token} {n.schema_tag} "
                f"{'tombstoned' if tomb else 'live'} {vals}"
            )
        return lines


def stack_sibling_rows(view: BusView, reader: int) -> tuple[Matrix, dict[int, int]]:
    """The reader's sibling rows in bus order, and each sibling's newest version.

    The reader's own rows are one span of the table, so its siblings are the
    rows around it: a read-only slice of the table when the span is at one
    end (or absent), else a copy of the two slices.
    """
    start, stop = view.spans.get(reader, (0, 0))
    if start == 0:
        rows = view.rows[stop:]
    elif stop == view.rows.shape[0]:
        rows = view.rows[:start]
    else:
        rows = np.concatenate((view.rows[:start], view.rows[stop:]))
    return rows, {sid: v for sid, v in view.newest.items() if sid != reader}


def load_bus_lines(
    lines: Iterable[str],
    capacity: int = BUS_CAPACITY,
    retain_k: int = BUS_RETAIN_K,
    d_note: int | None = None,
) -> NotesBus:
    """Rebuild a NotesBus from dump_lines output (inverse of dump_lines).

    A dump carries no snapshots, so the bus has lag 0.  It carries
    its note width only in its notes, so the dump of a bus that never had
    one loads only when d_note is given.  When both are known they must
    agree.  A line with an unknown status or a repeated (stream, version)
    raises ValueError, and more live notes than capacity CapacityError.
    """
    notes: list[tuple[Note, bool]] = []
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        parts = line.split(" ")
        if len(parts) != 7 or parts[0] != "BUSNOTE":
            raise ValueError(f"malformed bus line: {line!r}")
        if parts[5] not in ("live", "tombstoned"):
            raise ValueError(f"unknown note status {parts[5]!r} in bus line: {line!r}")
        emb = np.array([float(x) for x in parts[6].split(",")])
        note = Note(int(parts[1]), int(parts[2]), emb, int(parts[3]), parts[4])
        notes.append((note, parts[5] == "tombstoned"))
    if not notes and d_note is None:
        raise ValueError("empty bus dump: pass d_note to load it")
    width = notes[0][0].embedding.shape[0] if d_note is None else d_note
    for note, _ in notes:
        if note.embedding.shape[0] != width:
            raise ShapeError(f"note width {note.embedding.shape[0]} != bus width {width}")
    if len({(n.stream_id, n.version) for n, _ in notes}) < len(notes):
        raise ValueError("repeated (stream, version) key in bus dump")
    bus = NotesBus(width, capacity=capacity, retain_k=retain_k)
    bus._restore(notes)
    if bus.visible_rows() > capacity:
        raise CapacityError(f"bus dump has {bus.visible_rows()} live notes > capacity {capacity}")
    return bus
