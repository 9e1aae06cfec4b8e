"""Versioned cross-stream notes bus.

Streams publish fixed-width note embeddings into one lineage per stream;
readers see their siblings' notes either live or through the snapshot a
fixed lag back, a copy of the per-stream dict of (lineage, count) pairs.
A lineage keeps its notes' embeddings as the rows of one growing array,
with parallel lists of version, emission position and schema tag, so a
publish, one stream's block of notes from a barrier, copies its rows and
extends three lists.  A stream's visible notes are an ordered log: their
emission positions never descend, and a publish before the stream's newest
visible note is refused.  So a
rollback's tombstone cuts a suffix, found by bisection, and both it and a
capacity-driven mean-pool compaction of the oldest notes are slices.
Rolled-back notes are archived, never deleted, so a trace replays
identically.  A publish that compaction could not fit is refused with the
bus unchanged.  A read serves each stream's prefix of its lineage's rows
as a read-only view, copying no row, and each reader of the stride stacks
its siblings' views in stream-id order.
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
    as a lineage.  Each note of a publish either fits, after compaction if
    need be, or raises CapacityError, leaving the notes before it published
    and nothing else changed; a block before its stream's newest visible
    note raises ConfigError having changed nothing.  Compacting to 1 leaves
    at most 2 rows per stream, so a capacity of at least twice the number of
    streams never refuses a publish.
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

    def publish(self, stream_id: int, embeddings: np.ndarray, positions: int | Sequence[int]) -> int:
        """Append copies of stream_id's next notes; returns the first one's version.

        One note is a 1-D embedding and its token position; a barrier's block
        is (k, d_note) rows and k positions.  The rows must be finite and
        d_note wide, the id and positions non-negative ints, and the
        positions must not descend, from the stream's newest visible note
        on; a block that breaks any of these is refused whole, changing
        nothing (a descending block may meet a full bus's CapacityError
        first).  Each step appends the largest block that fits below
        capacity.  A note that arrives at capacity is appended alone and
        then compacts the bus, so compaction and a CapacityError come at
        the note where one-note publishes would meet them; the notes before
        a refused one stay published.  A later write to the caller's array
        reaches nothing the bus serves or dumps.
        """
        stream_id = as_int(stream_id, "stream_id")
        rows = np.asarray(embeddings, dtype=np.float64)
        if rows.ndim == 1:
            rows, positions = rows[None, :], (positions,)
        rows = as_matrix(rows, "embeddings")
        if not hasattr(positions, "__len__") or len(positions) != rows.shape[0]:
            raise ShapeError(f"embeddings of shape {rows.shape} need one position per row")
        positions = [as_int(p, "token_pos") for p in positions]
        if rows.shape[1] != self.d_note:
            raise ShapeError(f"note width {rows.shape[1]} != bus width {self.d_note}")
        if positions != sorted(positions):
            raise ConfigError(f"stream {stream_id} block positions {positions} descend")
        if stream_id < 0 or (positions and positions[0] < 0):
            raise ConfigError("stream_id and token_pos must be non-negative")
        first, i = self._next_version.get(stream_id, 0), 0
        while i < len(positions):
            # A note that arrives at capacity goes alone, and compaction follows it.
            over = self._count >= self.capacity
            if over:
                # Compacting to 1 leaves min(n, 2) of a stream's n notes; refuse before any change if that is too many.
                counts = {sid: count for sid, (_, count) in self._visible.items()}
                counts[stream_id] = counts.get(stream_id, 0) + 1
                floor = sum(min(count, 2) for count in counts.values())
                if floor > self.capacity:
                    raise CapacityError(f"bus over capacity: compaction leaves {floor} rows > {self.capacity}")
            n = 1 if over else min(len(positions) - i, self.capacity - self._count)
            block = slice(i, i + n)
            self._append(stream_id, rows[block], range(first + i, first + i + n), positions[block], [SCHEMA_NOTE] * n)
            i += n
            self._next_version[stream_id] = first + i
            if over:
                self.compact()
                if self._count > self.capacity:
                    self.compact(retain_k=1)
        return first

    def _append(
        self, stream_id: int, rows: Matrix, versions: Iterable[int], positions: list[int], tags: list[str]
    ) -> None:
        # The visible pair always holds all of its lineage's notes.
        pair = self._visible.get(stream_id)
        lineage = pair[0] if pair else _Lineage.empty(self.d_note)
        if lineage.positions and positions[0] < lineage.positions[-1]:
            raise ConfigError(f"stream {stream_id} note at {positions[0]} precedes its newest at {lineage.positions[-1]}")
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
