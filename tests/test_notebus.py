"""Notes bus: versioning, snapshots, lagged reads, tombstones, compaction."""

from __future__ import annotations

import base64
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdtcoord.errors import CapacityError, ConfigError, ShapeError
from pdtcoord.notebus import SCHEMA_SUMMARY, BusRecord, BusView, NotesBus, load_bus_lines, stack_sibling_rows
from reference_decoder import RefBus, RefNote


def put(bus: NotesBus, stream: int, row: np.ndarray, pos: int) -> int:
    """Publish one note as a barrier of its own; returns its version."""
    return bus.publish([(stream, [row], [pos])])[0]


def fill(bus: NotesBus, stream: int, count: int, base: float = 0.0, start: int = 0) -> None:
    """Publish count notes of values base, base + 1, ... at tokens start, start + 4, ..., one barrier each."""
    for i in range(count):
        put(bus, stream, np.full(bus.d_note, base + i), start + i * 4)


def sibling_rows(bus: NotesBus, reader: int) -> int:
    return stack_sibling_rows(bus.read_lagged(), reader)[0].shape[0]


def served(view: BusView) -> np.ndarray:
    """Every row a read serves, its streams' blocks stacked in stream-id order."""
    return np.concatenate([*view.blocks.values(), np.zeros((0, view.d_note))])


def test_publish_assigns_per_stream_versions():
    bus = NotesBus(d_note=2)
    versions = [put(bus, 0, np.zeros(2), 0), put(bus, 0, np.ones(2), 4), put(bus, 1, np.ones(2), 4)]
    assert versions == [0, 1, 0]
    # A batch returns each block's first version, in block order.
    assert bus.publish([(2, np.ones((1, 2)), [0]), (0, np.ones((2, 2)), [4, 8])]) == [0, 2]
    assert bus.publish([]) == []


def test_publish_width_mismatch():
    bus = NotesBus(d_note=3)
    with pytest.raises(ShapeError):
        put(bus, 0, np.zeros(4), 0)
    with pytest.raises(ShapeError):  # a block is 2-D: a lone note is one row
        bus.publish([(0, np.zeros(3), [0])])
    with pytest.raises(ValueError):
        put(bus, 0, np.array([0.0, np.nan, 0.0]), 0)
    assert put(bus, 0, np.zeros(3), 0) == 0


def test_publish_refuses_non_integer_ids_and_positions_before_any_change():
    bus = NotesBus(d_note=2)
    fill(bus, 0, 2)
    lines = bus.dump_lines()
    row = np.ones(2)
    for sid, pos in ((1.5, 0), (True, 2.5), (1, 2.5), (1, True), (np.float64(1.0), 4), ("1", 4), (1, [4])):
        with pytest.raises(ConfigError, match="stream_id|token_pos"):
            put(bus, sid, row, pos)
    for positions in ([8, 9.5], [8, False]):
        with pytest.raises(ConfigError, match="token_pos"):
            bus.publish([(0, np.ones((2, 2)), positions)])
    assert bus.dump_lines() == lines
    assert put(bus, np.int64(1), row, np.int64(3)) == 0
    assert load_bus_lines(bus.dump_lines()).dump_lines() == bus.dump_lines()


def test_a_block_publish_takes_one_position_per_row():
    bus = NotesBus(d_note=2)
    for rows, positions in ((np.ones((2, 2)), [4]), (np.ones((2, 2)), 4), (np.ones((1, 2, 2)), [4]), (np.ones((2, 3)), [4, 8])):
        with pytest.raises(ShapeError):
            bus.publish([(0, rows, positions)])
    with pytest.raises(ValueError, match="non-finite"):
        bus.publish([(0, np.array([[1.0, 2.0], [np.inf, 0.0]]), [4, 8])])
    assert bus.visible_rows() == 0
    assert bus.publish([(0, np.arange(6.0).reshape(3, 2), (0, 4, 4))]) == [0]
    assert bus.publish([(0, np.zeros((0, 2)), [])]) == [3]  # an empty block changes nothing
    assert put(bus, 0, np.ones(2), 9) == 3
    assert [line.split(" ")[2:4] for line in bus.dump_lines()] == [["0", "0"], ["1", "4"], ["2", "4"], ["3", "9"]]


def test_a_barrier_is_appended_whole_then_compacted_once_in_any_block_order():
    # Streams 0 and 1 each publish 4 notes, of values 0..3 and 10..13.
    blocks = [(sid, np.repeat(np.arange(4.0)[:, None] + 10 * sid, 2, axis=1), [0, 4, 8, 12]) for sid in (0, 1)]
    dumps = []
    for order in (blocks, blocks[::-1]):
        bus = NotesBus(d_note=2, capacity=5, retain_k=2)
        assert bus.publish(order) == [0, 0]
        # 8 notes compact to retain_k = 2 (6 rows, still over 5), then to 1: a summary and the newest note each.
        assert served(bus.read_lagged())[:, 0].tolist() == [1.25, 3, 11.25, 13]
        dumps.append(bus.dump_lines())
    ref = RefBus(5, 2)
    ref.publish([(sid, row, pos) for sid, rows, positions in blocks for row, pos in zip(rows, positions)])
    assert dumps[0] == dumps[1] == ref.dump()


def test_a_batch_over_the_floor_changes_nothing_even_where_a_block_alone_fits():
    bus, alone = (NotesBus(d_note=2, capacity=4, retain_k=1) for _ in range(2))
    for b in (bus, alone):
        fill(b, 1, 2)
        fill(b, 2, 1, base=5)
    lines, rows = bus.dump_lines(), served(bus.read_lagged()).tolist()
    # Stream 3's block alone leaves a floor of 2 + 1 + 1 = 4 rows; with stream 0's note the floor is 5.
    assert alone.publish([(3, np.ones((1, 2)), [0])]) == [0] and alone.visible_rows() == 4
    with pytest.raises(CapacityError, match="5 rows > 4"):
        bus.publish([(3, np.ones((1, 2)), [0]), (0, np.ones((1, 2)), [0])])
    assert bus.dump_lines() == lines and bus.visible_rows() == 3
    assert served(bus.read_lagged()).tolist() == rows
    # No version was spent.
    assert bus.publish([(3, np.ones((1, 2)), [0]), (1, np.ones((1, 2)), [8])]) == [0, 2]


def test_a_batch_that_names_a_stream_twice_or_goes_back_is_refused_whole():
    bus = NotesBus(d_note=2)
    fill(bus, 0, 2)  # tokens 0, 4
    lines = bus.dump_lines()
    good = (1, np.ones((1, 2)), [0])
    for bad, match in (((1, np.ones((1, 2)), [4]), "two blocks"), ((0, np.ones((1, 2)), [3]), "precedes")):
        with pytest.raises(ConfigError, match=match):
            bus.publish([good, bad])
        assert bus.dump_lines() == lines and bus.visible_rows() == 2
    assert bus.publish([good, (0, np.ones((1, 2)), [4])]) == [0, 2]


def test_live_read_excludes_reader_and_tombstoned():
    bus = NotesBus(d_note=2)
    fill(bus, 0, 2)
    fill(bus, 1, 2, base=10)
    _, newest = stack_sibling_rows(bus.read_lagged(), 0)
    assert newest == {1: 1}
    bus.tombstone_after(1, token_pos=4)
    rows, newest = stack_sibling_rows(bus.read_lagged(), 0)
    assert rows.shape[0] == 1 and newest == {1: 0}


def test_lagged_read_is_immutable_history():
    buses = [NotesBus(d_note=2, lag=lag) for lag in range(3)]
    for bus in buses:
        fill(bus, 1, 2)
        bus.snapshot()
        fill(bus, 1, 3, base=50, start=8)
    # Lag 1 sees what the last snapshot saw, lag 2 the initial empty one; live sees all.
    assert [sibling_rows(bus, 0) for bus in buses] == [5, 2, 0]
    for bus in buses:
        bus.snapshot()
    assert [sibling_rows(bus, 0) for bus in buses] == [5, 5, 2]


def test_lagged_read_clamps_to_initial_empty():
    bus = NotesBus(d_note=2, lag=99)
    fill(bus, 1, 3)
    bus.snapshot()
    assert sibling_rows(bus, 0) == 0


def test_snapshot_versions_increment():
    bus = NotesBus(d_note=2)
    assert (bus.snapshot(), bus.snapshot()) == (1, 2)


def test_tombstone_is_token_position_threshold():
    bus = NotesBus(d_note=2)
    fill(bus, 0, 4)  # emitted at 0, 4, 8, 12
    assert bus.tombstone_after(0, token_pos=8) == 2
    assert bus.visible_rows() == 2
    # Already-tombstoned notes are not double counted.
    assert bus.tombstone_after(0, token_pos=0) == 2
    assert bus.visible_rows() == 0


def test_stack_sibling_rows_order():
    bus = NotesBus(d_note=2)
    put(bus, 2, np.full(2, 9.0), 0)
    put(bus, 0, np.full(2, 1.0), 0)
    put(bus, 0, np.full(2, 2.0), 4)
    view = bus.read_lagged()
    assert list(view.blocks) == [0, 2] and [len(block) for block in view.blocks.values()] == [2, 1]
    rows, newest = stack_sibling_rows(view, 5)
    assert newest == {0: 1, 2: 0}
    assert rows[0, 0] == 1.0 and rows[2, 0] == 9.0


def test_compact_mean_pools_oldest():
    bus = NotesBus(d_note=2, retain_k=2)
    fill(bus, 0, 5)  # values 0..4
    created = bus.compact()
    assert created == 1
    notes = dump_records(bus.dump_lines())
    assert len(notes) == 3
    _, version, pos, tag, _, summary = notes[0]
    assert tag == SCHEMA_SUMMARY
    assert (version, pos) == (2, 8)  # the newest summarized note's
    assert np.allclose(summary, 1.0)  # mean of 0, 1, 2
    assert [n[1] for n in notes[1:]] == [3, 4]
    rows, newest = stack_sibling_rows(bus.read_lagged(), 9)
    assert newest == {0: 4}
    assert rows.shape[0] == 3
    assert np.array_equal(rows[0], summary)


def test_compact_refuses_a_non_integer_retain_k():
    bus = NotesBus(d_note=2)
    fill(bus, 0, 3)
    lines = bus.dump_lines()
    for bad in (1.5, True, 2.0, "1"):
        with pytest.raises(ConfigError, match="retain_k"):
            bus.compact(retain_k=bad)
    assert bus.dump_lines() == lines
    assert bus.compact(retain_k=np.int64(1)) == 1 and bus.visible_rows() == 2


def test_capacity_triggers_compaction_then_error():
    bus = NotesBus(d_note=2, capacity=4, retain_k=2)
    fill(bus, 0, 5)
    # Five publishes exceeded capacity 4 and compacted down to 3 rows.
    assert bus.visible_rows() == 3
    # Compaction floor is summary + newest per stream, so two streams can
    # never fit in a 2-row bus.
    tiny = NotesBus(d_note=2, capacity=2, retain_k=1)
    fill(tiny, 0, 3)
    assert tiny.visible_rows() == 2
    with pytest.raises(CapacityError):
        put(tiny, 1, np.zeros(2), 0)


def test_refused_publish_changes_nothing():
    bus = NotesBus(d_note=2, capacity=2, retain_k=1)
    fill(bus, 0, 3)
    lines = bus.dump_lines()
    with pytest.raises(CapacityError):
        put(bus, 1, np.ones(2), 12)
    assert bus.dump_lines() == lines and bus.visible_rows() == 2
    # The refused note spent no version: stream 1 still starts at 0.
    bus.tombstone_after(0, token_pos=0)
    assert put(bus, 1, np.ones(2), 12) == 0


def test_views_are_read_only():
    for lag, want in ((0, [0, 1, 2, 10, 11, 20, -5, -4]), (1, [0, 1, 2, 10, 11, -5, -4])):
        bus = NotesBus(d_note=2, lag=lag)
        fill(bus, 0, 3)
        fill(bus, 1, 2, base=10)
        fill(bus, 2, 2, base=-5)
        bus.snapshot()
        fill(bus, 1, 1, base=20, start=8)
        view = bus.read_lagged()
        for block in view.blocks.values():
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 99.0
        for reader in range(4):
            rows, _ = stack_sibling_rows(view, reader)  # two or three siblings, stacked into a new array
            rows[0, 0] = 99.0
        # Nothing a reader did reached the rows the bus serves or keeps per stream.
        assert served(view)[:, 0].tolist() == served(bus.read_lagged())[:, 0].tolist() == want
        # A lone sibling's block is handed over as it is, still read-only.
        pair = NotesBus(d_note=2, lag=lag)
        fill(pair, 0, 1)
        fill(pair, 1, 2, base=10)
        pair.snapshot()
        view = pair.read_lagged()
        rows, _ = stack_sibling_rows(view, 0)
        assert rows is view.blocks[1] and np.shares_memory(rows, pair._visible[1][0].rows)
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 99.0


def test_a_tombstone_or_compaction_restacks_its_stream():
    bus = NotesBus(d_note=2)
    for value, pos in ((1.0, 0), (2.0, 10), (3.0, 30)):
        put(bus, 0, np.full(2, value), pos)
    put(bus, 1, np.full(2, 9.0), 0)
    assert served(bus.read_lagged())[:, 0].tolist() == [1, 2, 3, 9]
    assert bus.tombstone_after(0, token_pos=20) == 1  # the newest note
    with pytest.raises(ConfigError, match="precedes"):
        put(bus, 0, np.full(2, 5.0), 5)  # before the newest visible note, at 10
    put(bus, 0, np.full(2, 4.0), 12)
    assert served(bus.read_lagged())[:, 0].tolist() == [1, 2, 4, 9]
    assert bus.compact(retain_k=1) == 1
    assert served(bus.read_lagged())[:, 0].tolist() == [1.5, 4, 9]


def test_a_descending_publish_is_refused_and_changes_nothing():
    for lag in (0, 1):
        bus = NotesBus(d_note=2, lag=lag)
        fill(bus, 0, 3)  # tokens 0, 4, 8
        put(bus, 1, np.ones(2), 20)
        bus.snapshot()
        lines, rows = bus.dump_lines(), served(bus.read_lagged()).tolist()
        for sid, pos in ((0, 7), (0, 0), (1, 19)):
            with pytest.raises(ConfigError, match="precedes"):
                put(bus, sid, np.full(2, -1.0), pos)
        assert bus.dump_lines() == lines and bus.visible_rows() == 4
        assert served(bus.read_lagged()).tolist() == rows
        # The refused notes spent no version, and an equal position is accepted.
        assert (put(bus, 0, np.full(2, 3.0), 8), put(bus, 1, np.ones(2), 20)) == (3, 1)
        # A tombstone moves the newest visible note back, and with it the bound.
        assert bus.tombstone_after(0, token_pos=4) == 3
        assert put(bus, 0, np.full(2, 4.0), 5) == 4


def test_a_refused_descending_publish_over_capacity_changes_nothing():
    bus = NotesBus(d_note=2, capacity=3, retain_k=1)
    fill(bus, 0, 3)  # tokens 0, 4, 8: the next publish compacts
    lines = bus.dump_lines()
    with pytest.raises(ConfigError, match="precedes"):
        put(bus, 0, np.ones(2), 6)
    assert bus.dump_lines() == lines and bus.visible_rows() == 3
    assert put(bus, 0, np.ones(2), 12) == 3 and bus.visible_rows() == 2


def test_a_tombstone_archives_exactly_the_dropped_rows():
    bus = NotesBus(d_note=2)
    fill(bus, 0, 5)  # values 0..4 at tokens 0, 4, 8, 12, 16
    assert bus.tombstone_after(0, token_pos=9) == 2
    (archived,) = bus._tombstoned[0]
    assert archived.rows.tolist() == [[3.0, 3.0], [4.0, 4.0]]
    assert (archived.versions, archived.positions) == ([3, 4], [12, 16])
    assert bus.tombstone_after(0, token_pos=99) == 0 and len(bus._tombstoned[0]) == 1
    assert bus.tombstone_after(0, token_pos=4) == 2
    assert [a.rows[:, 0].tolist() for a in bus._tombstoned[0]] == [[3, 4], [1, 2]]
    assert served(bus.read_lagged()).tolist() == [[0.0, 0.0]]


def test_a_lagged_view_outlives_a_tombstone_and_a_publish_into_the_shared_prefix():
    bus = NotesBus(d_note=2, lag=1)
    fill(bus, 1, 4)  # values 0..3 at tokens 0, 4, 8, 12
    bus.snapshot()
    # The kept prefix shares the rows the snapshot serves; a publish must not write them.
    assert bus.tombstone_after(1, token_pos=8) == 2
    fill(bus, 1, 3, base=-10, start=8)
    assert served(bus.read_lagged())[:, 0].tolist() == [0, 1, 2, 3]
    bus.snapshot()
    assert served(bus.read_lagged())[:, 0].tolist() == [0, 1, -10, -9, -8]


def test_lagged_reads_outlive_a_reallocation_of_the_live_rows():
    # Every snapshot names a prefix of the one lineage that the publishes grow;
    # each time its array fills, a bigger copy replaces it.
    for lag in (1, 2):
        bus = NotesBus(d_note=2, lag=lag)
        arrays: list[np.ndarray] = []
        for j in range(100):
            put(bus, 1, np.array([j, -j]), 4 * j)
            live_rows = bus._visible[1][0].rows
            if not arrays or live_rows is not arrays[-1]:
                arrays.append(live_rows)
            bus.snapshot()
            # The snapshot lag - 1 rounds back holds notes 0 .. j + 1 - lag.
            rows, newest = stack_sibling_rows(bus.read_lagged(), 0)
            assert rows[:, 0].tolist() == list(range(j + 2 - lag))
            assert newest == ({1: j + 1 - lag} if j + 2 > lag else {})
        assert len(arrays) >= 4  # 16, 32, 64 and 128 rows


def test_a_compaction_leaves_the_rows_an_older_snapshot_serves():
    bus = NotesBus(d_note=2, lag=1)
    fill(bus, 1, 4)  # values 0..3 at tokens 0, 4, 8, 12
    bus.snapshot()
    assert bus.compact(retain_k=1) == 1
    assert bus.tombstone_after(1, token_pos=0) == 2  # the summary and the newest note
    assert served(bus.read_lagged())[:, 0].tolist() == [0, 1, 2, 3]
    bus.snapshot()
    assert served(bus.read_lagged()).shape[0] == 0


def test_publish_copies_the_callers_array():
    live, lagged = NotesBus(d_note=2), NotesBus(d_note=2, lag=1)
    emb = np.array([1.0, 2.0])
    for bus in (live, lagged):
        put(bus, 0, emb, 0)
        bus.snapshot()
    first = live.dump_lines()
    emb[:] = 9.0
    for bus in (live, lagged):
        put(bus, 0, emb, 4)
    emb[:] = -7.0
    assert served(live.read_lagged()).tolist() == [[1.0, 2.0], [9.0, 9.0]]
    assert served(lagged.read_lagged()).tolist() == [[1.0, 2.0]]
    # AAAAAAAAIkAAAAAAAAAiQA== is 9.0, 9.0 as little-endian float64 bytes, in base64.
    assert live.dump_lines()[0] == first[0] and live.dump_lines()[1].endswith(" live AAAAAAAAIkAAAAAAAAAiQA==")
    assert lagged.dump_lines() == live.dump_lines()


def test_dump_ordering_and_roundtrip():
    bus = NotesBus(d_note=2)
    put(bus, 1, np.array([1.5, -2.25]), 4)
    put(bus, 0, np.array([0.1, 0.2]), 0)
    put(bus, 0, np.array([0.3, 0.4]), 8)
    bus.tombstone_after(0, token_pos=8)
    lines = bus.dump_lines()
    ids = [tuple(line.split()[1:3]) for line in lines]
    assert ids == sorted(ids)
    clone = load_bus_lines(lines)
    assert clone.dump_lines() == lines


def test_a_loaded_tombstoned_note_keeps_only_its_own_row():
    bus = NotesBus(d_note=2)
    for pos in range(3):
        put(bus, 0, np.array([pos, -pos], dtype=float), pos)
    bus.tombstone_after(0, token_pos=1)
    lines = bus.dump_lines()
    clone = load_bus_lines(lines)
    assert [archived.rows.shape for archived in clone._tombstoned[0]] == [(1, 2), (1, 2)]
    assert clone.dump_lines() == lines


def test_load_refuses_live_notes_of_a_stream_that_descend():
    bus = NotesBus(d_note=2)
    fill(bus, 0, 3)  # tokens 0, 4, 8
    fill(bus, 1, 2, start=6)  # tokens 6, 10
    assert bus.tombstone_after(1, token_pos=10) == 1
    put(bus, 1, np.ones(2), 7)  # below the tombstoned note at 10, which is allowed
    lines = bus.dump_lines()
    assert load_bus_lines(lines).dump_lines() == lines
    swapped = [line.replace("BUSNOTE 0 1 4 ", "BUSNOTE 0 1 9 ") for line in lines]
    with pytest.raises(ConfigError, match="precedes"):
        load_bus_lines(swapped)


def test_load_checks_each_lines_fields():
    bus = NotesBus(d_note=2)
    put(bus, 3, np.array([1.0, 2.0]), 5)
    (line,) = bus.dump_lines()
    # The embedding is 1.0, 2.0 as little-endian float64 bytes, in base64.
    assert line == "BUSNOTE 3 0 5 note live AAAAAAAA8D8AAAAAAAAAQA=="
    # Each bad line follows the good one, which sets the bus's width.  The
    # v1 lines write their floats with repr, the v2 ones in base64.
    for bad, error in (
        ("BUSNOTE -3 1 5 note live 1.0,2.0", ConfigError),
        ("BUSNOTE 3 -1 5 note live 1.0,2.0", ConfigError),
        ("BUSNOTE 3 1 -5 note live 1.0,2.0", ConfigError),
        ("BUSNOTE 3 1 5 draft live 1.0,2.0", ConfigError),
        ("BUSNOTE 3 1 5 note live 1.0,nan", ValueError),
        ("BUSNOTE 3 1 5 note live 1.0,inf", ValueError),
        ("BUSNOTE 3 1 5 note live 1.0,2.0,3.0", ShapeError),
        ("BUSNOTE 3 1 5 note live", ValueError),
        ("BUSNOTE 3 1 5 note live AAAAAAAA8D8AAAAAAAAAQA*=", ValueError),  # outside the alphabet
        ("BUSNOTE 3 1 5 note live AAAAAAAA8D8AAAAAAAAAQA=", ValueError),  # one pad short
        ("BUSNOTE 3 1 5 note live AAAAAAAA8D8AAAAAAAAAQA", ValueError),  # unpadded
        ("BUSNOTE 3 1 5 note live AAAAAAAA8D8AAAAAAAAAQB==", ValueError),  # not canonical: stray low bits
        ("BUSNOTE 3 1 5 note live AAAAAAAA8D8AAAAA", ValueError),  # 12 bytes, no whole float64s
        ("BUSNOTE 3 1 5 note live AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA", ShapeError),  # 1.0, 2.0, 3.0
        ("BUSNOTE 3 1 5 note live AAAAAAAA8D8AAAAAAAD4fw==", ValueError),  # 1.0, nan
        ("BUSNOTE 3 1 5 note live AAAAAAAA8D8AAAAAAADwfw==", ValueError),  # 1.0, inf
    ):
        with pytest.raises(error):
            load_bus_lines([line, bad])
    assert load_bus_lines([line, "BUSNOTE 3 1 5 summary tombstoned 1.0,2.0"]).visible_rows() == 1


def test_a_v2_dump_round_trips_every_bit():
    edge = np.array([[-0.0, 5e-324, 1.7976931348623157e308], [0.1, -2.5e-310, 1 / 3], [1e16, -1e-05, -(2.0**-1074)]])
    bus = NotesBus(d_note=3)
    bus.publish([(0, edge, [0, 4, 8]), (1, edge[::-1], [1, 2, 3])])
    bus.tombstone_after(1, token_pos=2)
    lines = bus.dump_lines()
    dumped = b"".join(record[5].tobytes() for record in dump_records(lines))
    assert dumped == np.concatenate([edge, edge[::-1]]).tobytes()
    clone = load_bus_lines(lines)
    assert clone.dump_lines() == lines
    assert served(clone.read_lagged()).tobytes() == served(bus.read_lagged()).tobytes()


def v1_dump(lines: list[str]) -> list[str]:
    """A dump's lines with each embedding written as trace v1 did, comma-separated repr floats."""
    out = []
    for sid, version, pos, tag, tombstoned, emb in dump_records(lines):
        status = "tombstoned" if tombstoned else "live"
        out.append(f"BUSNOTE {sid} {version} {pos} {tag} {status} " + ",".join(map(repr, emb.tolist())))
    return out


def test_a_v1_dump_loads_to_the_same_bus():
    bus = NotesBus(d_note=2, capacity=6, retain_k=2)
    for i in range(5):
        put(bus, i % 2, np.array([i / 7, -(10.0**i)]), 4 * i)
    bus.tombstone_after(0, token_pos=16)
    lines = bus.dump_lines()
    assert load_bus_lines(v1_dump(lines), capacity=6, retain_k=2).dump_lines() == lines
    # One-float v1 fields, which hold neither a comma nor (in exponent form) a ".".
    one_float = ["BUSNOTE 0 0 3 note live 0.5", "BUSNOTE 0 1 7 note live 1e+16", "BUSNOTE 1 0 2 summary live -1e-05"]
    clone = load_bus_lines(one_float)
    assert served(clone.read_lagged()).tolist() == [[0.5], [1e16], [-1e-05]]
    assert [line.split(" ")[6] for line in clone.dump_lines()] == ["AAAAAAAA4D8=", "AIDgN3nDQUM=", "8WjjiLX45L4="]


FINITE = st.floats(allow_nan=False, allow_infinity=False)
ROWS = st.integers(1, 3).flatmap(lambda d: st.lists(st.lists(FINITE, min_size=d, max_size=d), min_size=1, max_size=3))


@settings(max_examples=200, deadline=None)
@given(rows=ROWS)
def test_every_repr_float_field_loads_as_v1_and_every_row_round_trips(rows):
    # A v1 field is never canonical base64, so it is never read as v2.
    lines = [f"BUSNOTE 0 {v} {v} note live " + ",".join(map(repr, row)) for v, row in enumerate(rows)]
    clone = load_bus_lines(lines, d_note=len(rows[0]))
    assert served(clone.read_lagged()).tobytes() == np.array(rows).tobytes()
    assert v1_dump(clone.dump_lines()) == lines
    assert load_bus_lines(clone.dump_lines()).dump_lines() == clone.dump_lines()


def test_bus_config_validation():
    with pytest.raises(ConfigError):
        NotesBus(d_note=0)
    with pytest.raises(ConfigError):
        NotesBus(d_note=2, capacity=0)
    with pytest.raises(ConfigError):
        NotesBus(d_note=2, lag=-1)
    for name in ("d_note", "capacity", "retain_k", "lag"):
        for bad in (True, 1.5, 2.0, "2", None):
            with pytest.raises(ConfigError, match=name):
                NotesBus(**{"d_note": 2, name: bad})
    bus = NotesBus(d_note=np.int64(2), lag=np.int64(1))
    assert (type(bus.d_note), type(bus.lag)) == (int, int)


# -- property test against the reference decoder's bus ---------------------

# One stream's block of 1 to 4 notes, whose positions are sorted unless the last field says not to.
BLOCK = st.tuples(
    st.integers(0, 3),
    st.lists(st.tuples(st.floats(-1e3, 1e3), st.integers(0, 40)), min_size=1, max_size=4),
    st.integers(0, 7).map(lambda x: x == 0),
)
OPS = st.one_of(
    # A barrier of 1 to 3 blocks of distinct streams, which the last field says to end with its first stream again.
    st.tuples(
        st.just("publish"),
        st.lists(BLOCK, min_size=1, max_size=3, unique_by=lambda block: block[0]),
        st.integers(0, 7).map(lambda x: x == 0),
    ),
    st.tuples(st.just("tombstone"), st.integers(0, 3), st.integers(0, 40)),
    st.tuples(st.just("compact"), st.integers(1, 3)),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("reload")),
)


def dump_records(lines: list[str]) -> list[BusRecord]:
    """The record of each line of a dump, in dump order."""
    out = []
    for line in lines:
        _, sid, version, pos, tag, status, vals = line.split(" ")
        raw = base64.b64decode(vals, validate=True)
        emb = np.array(struct.unpack(f"<{len(raw) // 8}d", raw))
        out.append((int(sid), int(version), int(pos), tag, status == "tombstoned", emb))
    return out


def assert_view_matches(bus: NotesBus, notes: list[RefNote]) -> BusView:
    """Every reader's view of bus serves the siblings among notes, in bus order; returns the view."""
    view = bus.read_lagged()
    for reader in range(5):
        rows, newest = stack_sibling_rows(view, reader)
        want = [n for n in notes if n.stream != reader]
        # Versions ascend within a stream, so its last note holds its newest one.
        assert newest == {n.stream: n.version for n in want}
        assert np.array_equal(rows, np.array([n.emb for n in want]).reshape(-1, 2))
    # A bus keeps only the snapshots its one lag reaches: none at lag 0.
    assert len(bus._snapshots) <= bus.lag
    return view


# Unbounded below, a drawn list averages about five ops, too few to snapshot a
# stream and then compact it; at 30 to 60 ops most examples do.
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(OPS, min_size=30, max_size=60), capacity=st.integers(2, 16), retain_k=st.integers(1, 3))
def test_views_match_dump_through_any_op_sequence(ops, capacity, retain_k):
    # Every op goes to one bus per lag and to the reference bus, whose tombstone
    # filters by position: the buses must agree with it on every outcome, dump and view.
    buses = [NotesBus(d_note=2, capacity=capacity, retain_k=retain_k, lag=lag) for lag in range(4)]
    ref = RefBus(capacity, retain_k)
    ref_snapshots: list[list[RefNote]] = [[]]  # the bus starts with an empty snapshot
    # Every block every read served, and a copy of their bytes: a view serves the same rows for as long as it is kept.
    kept: list[np.ndarray] = []
    kept_bytes = b""
    for index, op in enumerate(ops):
        if op[0] == "publish":
            _, drawn, twice = op
            blocks, notes, starts, refused = [], [], [], twice
            for sid, drawn_notes, unsorted in drawn + drawn[:1] * twice:
                positions = [pos for _, pos in drawn_notes]
                if not unsorted:
                    positions.sort()
                # The op index makes every embedding distinct, so a summary differs from the row it replaces.
                rows = np.array([[value, index + 0.25 * sid + 0.0625 * i] for i, (value, _) in enumerate(drawn_notes)])
                live = ref.live.get(sid)
                refused |= positions != sorted(positions) or (bool(live) and positions[0] < live[-1].pos)
                blocks.append((sid, rows, positions))
                starts.append(len(notes))
                notes += [(sid, row, pos) for row, pos in zip(rows, positions)]
            if refused:
                # A barrier that repeats a stream or holds a descending block is refused whole, before any capacity check.
                for bus in buses:
                    with pytest.raises(ConfigError):
                        bus.publish(blocks)
            else:
                try:
                    versions = ref.publish(notes)
                except CapacityError:
                    for bus in buses:
                        with pytest.raises(CapacityError):
                            bus.publish(blocks)
                else:
                    assert all(bus.publish(blocks) == [versions[i] for i in starts] for bus in buses)
        elif op[0] == "tombstone":
            before = len(ref.live.get(op[1], []))
            ref.tombstone(op[1], op[2])
            assert {bus.tombstone_after(op[1], op[2]) for bus in buses} == {before - len(ref.live[op[1]])}
        elif op[0] == "compact":
            ref.compact(op[1])
            for bus in buses:
                bus.compact(retain_k=op[1])
        elif op[0] == "snapshot":
            assert len({bus.snapshot() for bus in buses}) == 1
            ref_snapshots.append(list(ref.visible()))
        else:
            # Snapshots are not dumped, so a reloaded bus has only the empty one.
            lines = ref.dump()
            clone = load_bus_lines(lines, capacity=capacity, retain_k=retain_k, d_note=2)
            assert clone.dump_lines() == lines
            buses = [NotesBus(d_note=2, capacity=capacity, retain_k=retain_k, lag=lag) for lag in range(4)]
            for bus in buses:
                bus._restore(dump_records(lines))
            ref_snapshots = [[]]
        for bus in buses:
            assert bus.visible_rows() == len(ref.visible()) <= capacity
            assert bus.dump_lines() == ref.dump()
            lagged = ref.visible() if bus.lag == 0 else ref_snapshots[max(0, len(ref_snapshots) - bus.lag)]
            view = assert_view_matches(bus, lagged)
            kept.extend(view.blocks.values())
            kept_bytes += served(view).tobytes()
        assert not any(block.flags.writeable for block in kept)
        assert np.concatenate([*kept, np.zeros((0, 2))]).tobytes() == kept_bytes


def test_a_read_copies_no_note_row():
    for lag in (0, 1):
        bus = NotesBus(d_note=16, capacity=4096, lag=lag)
        bus.publish([(sid, np.full((250, 16), float(sid)), range(250)) for sid in range(8)])
        bus.snapshot()
        tracemalloc.start()
        try:
            view = bus.read_lagged()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Stacking the 2,000 rows would take 256,000 bytes.
        assert sum(len(block) for block in view.blocks.values()) == 2000 and peak < 16 * 1024


def test_empty_dump_loads_with_its_note_width():
    bus = NotesBus(d_note=3)
    assert bus.dump_lines() == []
    clone = load_bus_lines(bus.dump_lines(), d_note=3)
    assert clone.d_note == 3 and clone.visible_rows() == 0
    with pytest.raises(ValueError):
        load_bus_lines([])
    put(bus, 0, np.zeros(3), 0)
    with pytest.raises(ShapeError):
        load_bus_lines(bus.dump_lines(), d_note=2)


def test_load_refuses_unknown_status():
    bus = NotesBus(d_note=2)
    put(bus, 0, np.array([1.0, 2.0]), 0)
    (line,) = bus.dump_lines()
    with pytest.raises(ValueError, match="status"):
        load_bus_lines([line.replace(" live ", " bogus ")])


def test_load_refuses_repeated_key():
    bus = NotesBus(d_note=2)
    put(bus, 0, np.array([1.0, 2.0]), 0)
    put(bus, 0, np.array([3.0, 4.0]), 4)
    bus.tombstone_after(0, token_pos=4)
    live, tombstoned = bus.dump_lines()
    with pytest.raises(ValueError, match="repeated"):
        load_bus_lines([live, live])
    # A tombstoned note may not share its key with a live one either.
    with pytest.raises(ValueError, match="repeated"):
        load_bus_lines([live, tombstoned.replace("BUSNOTE 0 1 ", "BUSNOTE 0 0 ")])


def test_load_refuses_more_live_notes_than_capacity():
    bus = NotesBus(d_note=2)
    fill(bus, 0, 4)
    fill(bus, 1, 4)
    lines = bus.dump_lines()
    assert load_bus_lines(lines, capacity=8).visible_rows() == 8
    with pytest.raises(CapacityError):
        load_bus_lines(lines, capacity=4)
