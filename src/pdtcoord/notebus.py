"""Versioned cross-stream notes bus.

Streams publish fixed-width note embeddings; readers see their siblings'
notes either live or through immutable lagged snapshots.  Rolled-back notes
are tombstoned, never deleted, so a trace replays identically.  A capacity
cap triggers mean-pool compaction of the oldest notes per stream.  A read
returns a mask over one stacked table of the notes it serves, so the
readers of one stride share a single stack.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from itertools import compress, groupby
from operator import attrgetter
from typing import Iterable

import numpy as np

from .errors import CapacityError, ConfigError, ShapeError
from .kernels import Matrix, as_vector

SCHEMA_NOTE = "note"
SCHEMA_SUMMARY = "summary"


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
class BusSnapshot:
    """Immutable record of the visible notes at one barrier, in bus order."""

    snapshot_version: int
    created_at_token: int
    notes: tuple[Note, ...]


@dataclass(frozen=True)
class BusView:
    """A reader's sibling view: a table of stacked notes shared by every reader,
    and a mask that keeps the rows of the other streams."""

    rows: Matrix
    keys: tuple[tuple[int, int], ...]
    mask: np.ndarray


_stream_of = attrgetter("stream_id")


class NotesBus:
    """Append-only store of notes with snapshots, lagged reads and compaction.

    The visible notes are one flat tuple in bus order (stream id, then
    version), replaced whenever the visible set changes.  Snapshots keep a
    reference to it, so recording one copies nothing.  The bus keeps only
    the newest max(1, max_delta) snapshots, the ones a read of lag up to
    max_delta can reach.
    """

    def __init__(self, d_note: int, capacity: int = 2560, retain_k: int = 8, max_delta: int = 0) -> None:
        if d_note <= 0:
            raise ConfigError("d_note must be positive")
        if capacity <= 0 or retain_k <= 0:
            raise ConfigError("capacity and retain_k must be positive")
        if max_delta < 0:
            raise ConfigError("max_delta must be non-negative")
        self.d_note = d_note
        self.capacity = capacity
        self.retain_k = retain_k
        self.max_delta = max_delta
        self._visible: tuple[Note, ...] = ()
        self._tombstoned: list[Note] = []
        self._next_version: dict[int, int] = {}
        # The bus starts with an implicit empty snapshot so lagged reads are
        # well defined before any emission round completes.
        self._snapshots: deque[BusSnapshot] = deque([BusSnapshot(0, 0, ())], maxlen=max(1, max_delta))
        # The notes last read, stacked as (notes, rows, stream ids, keys); a
        # read of other notes replaces it.
        self._table: tuple[tuple[Note, ...], Matrix, np.ndarray, tuple[tuple[int, int], ...]] = (
            (), np.zeros((0, d_note)), np.zeros(0, dtype=np.int64), ()
        )

    # -- publishing ---------------------------------------------------------

    def publish(self, stream_id: int, embedding: np.ndarray, token_pos: int) -> Note:
        """Append a note for stream_id; returns the stored Note with its version."""
        version = self._next_version.get(stream_id, 0)
        note = Note(stream_id, version, embedding, token_pos)
        if note.embedding.shape[0] != self.d_note:
            raise ShapeError(f"note width {note.embedding.shape[0]} != bus width {self.d_note}")
        # The stream's newest version goes after every note of streams <= stream_id.
        at = bisect.bisect_right(self._visible, stream_id, key=_stream_of)
        self._visible = self._visible[:at] + (note,) + self._visible[at:]
        self._next_version[stream_id] = version + 1
        if self.visible_rows() > self.capacity:
            self.compact()
            if self.visible_rows() > self.capacity:
                self.compact(retain_k=1)
            if self.visible_rows() > self.capacity:
                raise CapacityError(
                    f"bus over capacity ({self.visible_rows()} rows > {self.capacity}) after compaction"
                )
        return note

    def visible_rows(self) -> int:
        return len(self._visible)

    # -- snapshots and reads ------------------------------------------------

    def snapshot(self, created_at_token: int) -> BusSnapshot:
        """Record and return an immutable snapshot of all visible notes."""
        version = self._snapshots[-1].snapshot_version + 1
        snap = BusSnapshot(version, created_at_token, self._visible)
        self._snapshots.append(snap)
        return snap

    def read_lagged(self, reader_stream: int, delta: int = 0) -> BusView:
        """Sibling view for reader_stream.

        delta=0 is a live view of current visible notes; delta>=1 reads the
        snapshot delta emission rounds back (the initial empty snapshot
        while fewer than delta have been taken); a delta above max_delta is
        refused.  The reader's own notes are always masked out.  The notes
        read are stacked once and the table is shared by every later read of
        the same notes, so the readers of one stride stack them once.
        """
        if delta < 0:
            raise ConfigError("delta must be non-negative")
        if delta > self.max_delta:
            raise ConfigError(f"delta {delta} exceeds the bus's max_delta {self.max_delta}")
        if delta == 0:
            base = self._visible
        else:
            base = self._snapshots[max(0, len(self._snapshots) - delta)].notes
        if self._table[0] is not base:
            rows = np.stack([n.embedding for n in base]) if base else np.zeros((0, self.d_note))
            rows.setflags(write=False)  # shared by every reader of these notes
            stream_ids = np.array([n.stream_id for n in base], dtype=np.int64)
            self._table = (base, rows, stream_ids, tuple((n.stream_id, n.version) for n in base))
        _, rows, stream_ids, keys = self._table
        return BusView(rows, keys, stream_ids != reader_stream)

    # -- rollback and compaction --------------------------------------------

    def tombstone_after(self, stream_id: int, token_pos: int) -> int:
        """Tombstone stream_id's notes with emitted_at_token >= token_pos.

        Tombstoned notes leave the visible set but are archived for dumps, so
        replay bookkeeping is preserved.  Returns the number tombstoned.
        """
        dropped = [n for n in self._visible if n.stream_id == stream_id and n.emitted_at_token >= token_pos]
        if dropped:
            self._visible = tuple(
                n for n in self._visible if n.stream_id != stream_id or n.emitted_at_token < token_pos
            )
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
        kept: list[Note] = []
        for sid, group in groupby(self._visible, key=_stream_of):
            notes = list(group)
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
                notes = [summary, *notes[-k:]]
                created += 1
            kept.extend(notes)
        if created:
            self._visible = tuple(kept)
        return created

    def _restore(self, notes: Iterable[tuple[Note, bool]]) -> None:
        """Load (note, tombstoned) pairs from a dump into this empty bus."""
        live = []
        for note, tombstoned in notes:
            (self._tombstoned if tombstoned else live).append(note)
            nxt = self._next_version.get(note.stream_id, 0)
            self._next_version[note.stream_id] = max(nxt, note.version + 1)
        self._visible = tuple(sorted(live, key=attrgetter("stream_id", "version")))

    # -- serialization ------------------------------------------------------

    def dump_lines(self) -> list[str]:
        """Canonical text dump: one line per note, ordered (stream_id, version).

        Tombstoned notes are included with a tombstone marker.
        """
        records: list[tuple[int, int, int, Note]] = []
        records.extend((n.stream_id, n.version, 0, n) for n in self._visible)
        records.extend((n.stream_id, n.version, 1, n) for n in self._tombstoned)
        records.sort(key=lambda r: (r[0], r[1], r[2]))
        lines = []
        for sid, version, tomb, n in records:
            vals = ",".join(repr(float(x)) for x in n.embedding)
            lines.append(
                f"BUSNOTE {sid} {version} {n.emitted_at_token} {n.schema_tag} "
                f"{'tombstoned' if tomb else 'live'} {vals}"
            )
        return lines


def stack_sibling_rows(view: BusView) -> tuple[Matrix, tuple[tuple[int, int], ...]]:
    """Dense sibling rows plus their (stream_id, version) keys, bus order."""
    return view.rows[view.mask], tuple(compress(view.keys, view.mask.tolist()))


def load_bus_lines(
    lines: Iterable[str],
    capacity: int = 2560,
    retain_k: int = 8,
    d_note: int | None = None,
) -> NotesBus:
    """Rebuild a NotesBus from dump_lines output (inverse of dump_lines).

    A dump carries no snapshots, so the bus has max_delta=0.  It carries
    its note width only in its notes, so the dump of a bus that never had
    one loads only when d_note is given.  When both are known they must
    agree.
    """
    notes: list[tuple[Note, bool]] = []
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        parts = line.split(" ")
        if len(parts) != 7 or parts[0] != "BUSNOTE":
            raise ValueError(f"malformed bus line: {line!r}")
        emb = np.array([float(x) for x in parts[6].split(",")])
        note = Note(int(parts[1]), int(parts[2]), emb, int(parts[3]), parts[4])
        notes.append((note, parts[5] == "tombstoned"))
    if not notes and d_note is None:
        raise ValueError("empty bus dump: pass d_note to load it")
    width = notes[0][0].embedding.shape[0] if d_note is None else d_note
    for note, _ in notes:
        if note.embedding.shape[0] != width:
            raise ShapeError(f"note width {note.embedding.shape[0]} != bus width {width}")
    bus = NotesBus(width, capacity=capacity, retain_k=retain_k)
    bus._restore(notes)
    return bus
