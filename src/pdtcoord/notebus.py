"""Versioned cross-stream notes bus.

Streams publish fixed-width note embeddings into one lineage per stream;
readers see their siblings' notes either live or through the snapshot a
fixed lag back, a copy of the per-stream dict of (lineage, count) pairs.
A lineage keeps its notes' embeddings as the rows of one growing array,
with parallel lists of version, emission position and schema tag.  A
publish takes a barrier's notes as one batch, a block per stream: it copies
each block's rows, extends three lists, and compacts at most once.  A
stream's visible notes are an ordered log: their emission positions never
descend, and a block before the stream's newest visible note is refused.
So a rollback's tombstone cuts a suffix, found by bisection, and both it and
a capacity-driven mean-pool compaction of the oldest notes are slices.
Rolled-back notes are archived, never deleted, so a trace replays
identically.  A refused publish leaves the bus unchanged.  A read serves
each stream's prefix of its lineage's rows as a read-only view, copying no
row, and each reader of the stride stacks its siblings' views in stream-id
order.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, ShapeError, as_int
from .kernels import Matrix, as_matrix, as_vector

SCHEMA_NOTE = "note"
SCHEMA_SUMMARY = "summary"

# Default live-row cap and notes per stream kept verbatim by compaction.  At one note per
# 4 tokens, 2560 rows hold 8 streams for 1280 tokens, and 8 notes are one 32-token stride.
BUS_CAPACITY = 2560
BUS_RETAIN_K = 8
# Rows a lineage's array starts with once it holds a note; it doubles when full.
_MIN_ROWS = 16

# A dump line's (stream id, version, emission position, schema tag, tombstoned, embedding).
BusRecord = tuple[int, int, int, str, bool, np.ndarray]


@dataclass(frozen=True)
class BusView:
    """The notes one read serves: the note width, each stream's rows in
    version order (a read-only view of its lineage, keyed in stream-id
    order; only streams with notes appear), and each stream's newest
    version among them."""

    d_note: int
    blocks: dict[int, Matrix]
    newest: dict[int, int]


class _Lineage:
    """One stream's notes since its last tombstone or compaction, as rows plus lists.

    Note i has embedding rows[i], version versions[i], emission token
    positions[i] (which never descend) and schema tag tags[i].  A publish
    appends notes; a tombstone or a compaction starts a new lineage.  So the
    stream's visible notes, and its notes in every snapshot that shares the
    lineage, are a prefix: a (lineage, count) pair names them.  `rows` keeps
    spare room past the last note, and a full array is replaced by a copy
    twice its size, as often as a block needs.  A written row never changes, so every prefix stays valid.
    """

    __slots__ = ("rows", "versions", "positions", "tags")

    def __init__(self, rows: Matrix, versions: list[int], positions: list[int], tags: list[str]) -> None:
        self.rows = rows
        self.versions = versions
        self.positions = positions
        self.tags = tags

    @classmethod
    def empty(cls, d_note: int) -> _Lineage:
        return cls(np.empty((0, d_note)), [], [], [])

    def append(self, rows: Matrix, versions: Iterable[int], positions: list[int], tags: list[str]) -> None:
        """Append len(positions) notes; a full array doubles until they fit, as one note at a time would."""
        n, m = len(self.versions), len(positions)
        size = self.rows.shape[0]
        if n + m > size:
            while size < n + m:
                size = max(2 * size, _MIN_ROWS)
            grown = np.empty((size, self.rows.shape[1]))
            grown[:n] = self.rows[:n]
            self.rows = grown
        self.rows[n : n + m] = rows
        self.versions.extend(versions)
        self.positions.extend(positions)
        self.tags.extend(tags)

    def prefix(self, stop: int) -> _Lineage:
        """The notes before stop over a view of their rows; the view is full, so its first append reallocates."""
        return _Lineage(self.rows[:stop], self.versions[:stop], self.positions[:stop], self.tags[:stop])

    def suffix(self, start: int) -> _Lineage:
        """A copy of the notes from start on, at its exact size."""
        stop = len(self.versions)
        return _Lineage(self.rows[start:stop].copy(), self.versions[start:], self.positions[start:], self.tags[start:])


class NotesBus:
    """Append-only store of notes with snapshots, lagged reads and compaction.

    The visible notes are one (lineage, count) pair per stream: the first
    count notes of the lineage, in version order and in emission order.  An
    operation on one stream replaces only that stream's pair.  A snapshot is
    a copy of that dict, which shares the lineages and copies no note or row.
    Every read is at the bus's lag, so the bus keeps only the newest lag
    snapshots, none at lag 0.  Each tombstone archives the suffix it drops
    as a lineage.  A publish, a barrier's blocks of notes, either fits,
    after one compaction if need be, or is refused with nothing changed.
    Compacting to 1 leaves at most 2 rows per stream, so a capacity of at
    least twice the number of streams never refuses a publish for capacity.
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
        self._count = 0  # visible rows, the sum of the visible counts
        self._tombstoned: dict[int, list[_Lineage]] = {}
        self._next_version: dict[int, int] = {}
        # The bus starts with an implicit empty snapshot, so a lagged read is
        # well defined before lag emission rounds complete.
        self._snapshots: deque[dict[int, tuple[_Lineage, int]]] = deque([{}], maxlen=lag)
        self._snapshot_version = 0

    # -- publishing ---------------------------------------------------------

    def publish(self, blocks: Iterable[tuple[int, Matrix | Sequence[np.ndarray], Sequence[int]]]) -> list[int]:
        """Append copies of a barrier's notes; returns each block's first version.

        A block is one stream's (stream_id, rows, positions): k finite rows
        d_note wide and k non-negative int positions that do not descend,
        from the stream's newest visible note on; a stream has one block at
        most.  A batch that breaks a rule, or whose floor (the rows that
        compacting to 1 leaves, min(n, 2) per stream of n notes after it) is
        over capacity, is refused whole before any change.  Otherwise every
        block is appended, then a bus over capacity compacts once: to
        retain_k and, if still over, to 1.  The blocks' order changes nothing,
        and a later write to the caller's arrays reaches nothing on the bus.
        """
        batch: dict[int, tuple[Matrix, list[int]]] = {}
        for stream_id, embeddings, positions in blocks:
            stream_id, rows = as_int(stream_id, "stream_id"), as_matrix(embeddings, "embeddings")
            if not hasattr(positions, "__len__") or len(positions) != rows.shape[0]:
                raise ShapeError(f"embeddings of shape {rows.shape} need one position per row")
            positions = [as_int(p, "token_pos") for p in positions]
            if rows.shape[1] != self.d_note:
                raise ShapeError(f"note width {rows.shape[1]} != bus width {self.d_note}")
            if positions != sorted(positions):
                raise ConfigError(f"stream {stream_id} block positions {positions} descend")
            if stream_id < 0 or (positions and positions[0] < 0):
                raise ConfigError("stream_id and token_pos must be non-negative")
            if stream_id in batch:
                raise ConfigError(f"stream {stream_id} has two blocks in one publish")
            if positions:
                self._check_order(stream_id, positions[0])
            batch[stream_id] = rows, positions
        # The floor is at most the rows after the batch, so it need only be counted when those are over capacity.
        if self._count + sum(len(positions) for _, positions in batch.values()) > self.capacity:
            counts = {sid: count for sid, (_, count) in self._visible.items()}
            for sid, (_, positions) in batch.items():
                counts[sid] = counts.get(sid, 0) + len(positions)
            if (floor := sum(min(count, 2) for count in counts.values())) > self.capacity:
                raise CapacityError(f"bus over capacity: compaction leaves {floor} rows > {self.capacity}")
        firsts = []
        for sid, (rows, positions) in batch.items():
            first, n = self._next_version.get(sid, 0), len(positions)
            self._append(sid, rows, range(first, first + n), positions, [SCHEMA_NOTE] * n)
            self._next_version[sid] = first + n
            firsts.append(first)
        for keep in (self.retain_k, 1):
            if self._count > self.capacity:
                self.compact(retain_k=keep)
        return firsts

    def _check_order(self, stream_id: int, position: int) -> None:
        """Refuse a note before stream_id's newest visible one (its visible pair holds all of its lineage's notes)."""
        pair = self._visible.get(stream_id)
        if pair and pair[0].positions and position < pair[0].positions[-1]:
            raise ConfigError(f"stream {stream_id} note at {position} precedes its newest at {pair[0].positions[-1]}")

    def _append(
        self, stream_id: int, rows: Matrix, versions: Iterable[int], positions: list[int], tags: list[str]
    ) -> None:
        pair = self._visible.get(stream_id)
        lineage = pair[0] if pair else _Lineage.empty(self.d_note)
        lineage.append(rows, versions, positions, tags)
        self._visible[stream_id] = (lineage, len(lineage.versions))
        self._count += len(positions)

    def visible_rows(self) -> int:
        return self._count

    # -- snapshots and reads ------------------------------------------------

    def snapshot(self) -> int:
        """Record a snapshot of all visible notes; returns its version (the first is 1)."""
        self._snapshots.append(dict(self._visible))
        self._snapshot_version += 1
        return self._snapshot_version

    def read_lagged(self) -> BusView:
        """The notes a read at the bus's lag serves, once for every reader.

        Lag 0 is a live view of the current visible notes; lag L >= 1 reads
        the snapshot L emission rounds back (the initial empty snapshot
        while fewer than L have been taken).  Each stream's block is a
        read-only view of its lineage prefix, and copies no row: a written
        row never changes, a tombstone's kept prefix reallocates on its
        first append and a compaction writes into a copy, so the view
        serves the same rows for as long as the caller keeps it.
        """
        by_stream = self._snapshots[0] if self.lag else self._visible
        blocks: dict[int, Matrix] = {}
        newest: dict[int, int] = {}
        for sid in sorted(by_stream):
            lineage, count = by_stream[sid]
            if count:
                block = lineage.rows[:count]
                block.setflags(write=False)
                blocks[sid] = block
                newest[sid] = lineage.versions[count - 1]
        return BusView(self.d_note, blocks, newest)

    # -- rollback and compaction --------------------------------------------

    def tombstone_after(self, stream_id: int, token_pos: int) -> int:
        """Tombstone stream_id's notes emitted at token_pos or later.

        Positions ascend, so they are a suffix.  Tombstoned notes leave the
        visible set but are archived for dumps, so replay bookkeeping is
        preserved.  Returns the number tombstoned.
        """
        pair = self._visible.get(stream_id)
        if pair is None:
            return 0
        lineage, count = pair
        cut = bisect_left(lineage.positions, token_pos)
        if cut < count:
            self._tombstoned.setdefault(stream_id, []).append(lineage.suffix(cut))
            self._visible[stream_id] = (lineage.prefix(cut), cut)
            self._count -= count - cut
        return count - cut

    def compact(self, retain_k: int | None = None) -> int:
        """Mean-pool each stream's oldest notes into one summary note.

        Keeps the newest retain_k notes per stream verbatim; anything older is
        replaced by a single summary row carrying the newest summarized
        version and emission position.  Returns the number of summary notes
        created.
        """
        k = self.retain_k if retain_k is None else as_int(retain_k, "retain_k")
        if k <= 0:
            raise ConfigError("retain_k must be positive")
        created = 0
        for sid in list(self._visible):
            lineage, count = self._visible[sid]
            if count > k:
                cut = count - k
                pooled = as_vector(np.mean(lineage.rows[:cut], axis=0), "summary embedding")
                # The newest summarized note carries the summary's version and position.  The
                # suffix is a copy, since an older snapshot may serve the row the summary replaces.
                compacted = lineage.suffix(cut - 1)
                compacted.rows[0] = pooled
                compacted.tags[0] = SCHEMA_SUMMARY
                self._visible[sid] = (compacted, k + 1)
                self._count -= cut - 1
                created += 1
        return created

    def _restore(self, records: Iterable[BusRecord]) -> None:
        """Load checked dump records into this empty bus."""
        for sid, version, pos, tag, tombstoned, emb in sorted(records, key=lambda r: r[:2]):
            if tombstoned:
                # An archived lineage never grows, so it is kept at its exact size.
                self._tombstoned.setdefault(sid, []).append(_Lineage(emb[None, :].copy(), [version], [pos], [tag]))
            else:
                self._check_order(sid, pos)
                self._append(sid, emb[None, :], (version,), [pos], [tag])
            self._next_version[sid] = max(self._next_version.get(sid, 0), version + 1)

    # -- serialization ------------------------------------------------------

    def dump_lines(self) -> list[str]:
        """Canonical text dump: one line per note, ordered (stream_id, version).

        Tombstoned notes are included with a tombstone marker.  The notes
        are rendered one lineage at a time, so only one lineage's floats
        are Python objects at once.
        """
        # A visible pair and an archive each hold all of their lineage's notes.
        blocks = [(sid, lineage, "live") for sid, (lineage, _) in self._visible.items()]
        blocks += [(sid, archived, "tombstoned") for sid, archive in self._tombstoned.items() for archived in archive]
        records: list[tuple[int, int, str, str]] = []
        for sid, lineage, status in blocks:
            rows = lineage.rows[: len(lineage.versions)]
            for row, version, pos, tag in zip(rows.tolist(), lineage.versions, lineage.positions, lineage.tags):
                vals = ",".join(map(repr, row))
                records.append((sid, version, status, f"BUSNOTE {sid} {version} {pos} {tag} {status} {vals}"))
        # (stream, version, status) keys are unique and "live" sorts first, so the lines never decide the order.
        records.sort()
        return [record[3] for record in records]


def stack_sibling_rows(view: BusView, reader: int) -> tuple[Matrix, dict[int, int]]:
    """The reader's sibling rows in stream-id order, and each sibling's newest version.

    A lone sibling's block is handed over as it is, read-only; several are
    stacked into one new array.
    """
    blocks = [block for sid, block in view.blocks.items() if sid != reader]
    if len(blocks) == 1:
        rows = blocks[0]
    else:
        rows = np.concatenate(blocks) if blocks else np.zeros((0, view.d_note))
    return rows, {sid: v for sid, v in view.newest.items() if sid != reader}


def _parse_bus_line(line: str) -> BusRecord:
    """The record of one dump line, its ids, tag and embedding checked."""
    parts = line.split(" ")
    if len(parts) != 7 or parts[0] != "BUSNOTE":
        raise ValueError(f"malformed bus line: {line!r}")
    if parts[5] not in ("live", "tombstoned"):
        raise ValueError(f"unknown note status {parts[5]!r} in bus line: {line!r}")
    emb = as_vector([float(x) for x in parts[6].split(",")], "embedding")
    sid, version, pos = int(parts[1]), int(parts[2]), int(parts[3])
    if sid < 0 or version < 0 or pos < 0:
        raise ConfigError("stream_id, version and emitted_at_token must be non-negative")
    if parts[4] not in (SCHEMA_NOTE, SCHEMA_SUMMARY):
        raise ConfigError(f"unknown schema_tag {parts[4]!r}")
    return sid, version, pos, parts[4], parts[5] == "tombstoned", emb


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
    raises ValueError, a negative id or an unknown schema tag ConfigError,
    live notes of one stream whose positions descend ConfigError, and more
    live notes than capacity CapacityError.
    """
    records = [_parse_bus_line(line) for line in map(str.strip, lines) if line]
    if not records and d_note is None:
        raise ValueError("empty bus dump: pass d_note to load it")
    width = records[0][-1].shape[0] if d_note is None else d_note
    for record in records:
        if record[-1].shape[0] != width:
            raise ShapeError(f"note width {record[-1].shape[0]} != bus width {width}")
    if len({record[:2] for record in records}) < len(records):
        raise ValueError("repeated (stream, version) key in bus dump")
    bus = NotesBus(width, capacity=capacity, retain_k=retain_k)
    bus._restore(records)
    if bus.visible_rows() > capacity:
        raise CapacityError(f"bus dump has {bus.visible_rows()} live notes > capacity {capacity}")
    return bus
