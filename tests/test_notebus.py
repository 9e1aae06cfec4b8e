"""Notes bus: versioning, snapshots, lagged reads, tombstones, compaction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdtcoord.errors import CapacityError, ConfigError, ShapeError
from pdtcoord.notebus import (
    SCHEMA_SUMMARY,
    Note,
    NotesBus,
    load_bus_lines,
    stack_sibling_rows,
)


def fill(bus: NotesBus, stream: int, count: int, base: float = 0.0) -> None:
    for i in range(count):
        bus.publish(stream, np.full(bus.d_note, base + i), token_pos=i * 4)


def test_publish_assigns_per_stream_versions():
    bus = NotesBus(d_note=2)
    n0 = bus.publish(0, np.zeros(2), 0)
    n1 = bus.publish(0, np.ones(2), 4)
    n2 = bus.publish(1, np.ones(2), 4)
    assert (n0.version, n1.version, n2.version) == (0, 1, 0)


def test_publish_width_mismatch():
    bus = NotesBus(d_note=3)
    with pytest.raises(ShapeError):
        bus.publish(0, np.zeros(4), 0)
    with pytest.raises(ShapeError):
        bus.publish(0, np.zeros((1, 3)), 0)
    with pytest.raises(ValueError):
        bus.publish(0, np.array([0.0, np.nan, 0.0]), 0)
    assert bus.publish(0, np.zeros(3), 0).version == 0


def test_note_embedding_is_frozen():
    note = Note(0, 0, np.array([1.0, 2.0]), 0)
    with pytest.raises(ValueError):
        note.embedding[0] = 9.0


def test_live_read_excludes_reader_and_tombstoned():
    bus = NotesBus(d_note=2)
    fill(bus, 0, 2)
    fill(bus, 1, 2, base=10)
    _, keys = stack_sibling_rows(bus.read_lagged(0, delta=0))
    assert keys == ((1, 0), (1, 1))
    bus.tombstone_after(1, token_pos=4)
    view2 = bus.read_lagged(0, delta=0)
    assert int(view2.mask.sum()) == 1


def test_lagged_read_is_immutable_history():
    bus = NotesBus(d_note=2, max_delta=2)
    fill(bus, 1, 2)
    bus.snapshot(created_at_token=8)
    fill(bus, 1, 3, base=50)
    # delta=1 sees only what the last recorded snapshot saw; live sees all.
    assert int(bus.read_lagged(0, delta=1).mask.sum()) == 2
    assert int(bus.read_lagged(0, delta=0).mask.sum()) == 5
    bus.snapshot(created_at_token=20)
    assert int(bus.read_lagged(0, delta=1).mask.sum()) == 5
    assert int(bus.read_lagged(0, delta=2).mask.sum()) == 2


def test_lagged_read_clamps_to_initial_empty():
    bus = NotesBus(d_note=2, max_delta=99)
    fill(bus, 1, 3)
    assert int(bus.read_lagged(0, delta=99).mask.sum()) == 0
    with pytest.raises(ConfigError):
        bus.read_lagged(0, delta=-1)


def test_snapshot_versions_increment():
    bus = NotesBus(d_note=2)
    s1 = bus.snapshot(0)
    s2 = bus.snapshot(5)
    assert (s1.snapshot_version, s2.snapshot_version) == (1, 2)


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
    bus.publish(2, np.full(2, 9.0), 0)
    bus.publish(0, np.full(2, 1.0), 0)
    bus.publish(0, np.full(2, 2.0), 4)
    rows, keys = stack_sibling_rows(bus.read_lagged(5, delta=0))
    assert keys == ((0, 0), (0, 1), (2, 0))
    assert rows[0, 0] == 1.0 and rows[2, 0] == 9.0


def test_readers_of_one_base_share_one_stacked_table():
    bus = NotesBus(d_note=2, max_delta=1)
    fill(bus, 0, 2)
    fill(bus, 1, 3, base=10)
    live = [bus.read_lagged(r, delta=0) for r in (0, 1, 2)]
    assert live[0].rows is live[1].rows is live[2].rows
    assert [int(v.mask.sum()) for v in live] == [3, 2, 5]
    # A snapshot of an unchanged bus shares the live notes, and so the table.
    snap = bus.snapshot(created_at_token=16)
    assert bus.read_lagged(0, delta=1).rows is live[0].rows
    bus.publish(2, np.zeros(2), 16)
    assert bus.read_lagged(0, delta=0).rows is not live[0].rows
    assert len(snap.notes) == 5


def test_compact_mean_pools_oldest():
    bus = NotesBus(d_note=2, retain_k=2)
    fill(bus, 0, 5)  # values 0..4
    created = bus.compact()
    assert created == 1
    notes = bus.snapshot(created_at_token=16).notes
    assert len(notes) == 3
    summary = notes[0]
    assert summary.schema_tag == SCHEMA_SUMMARY
    assert summary.version == 2  # newest summarized version
    assert np.allclose(summary.embedding, 1.0)  # mean of 0, 1, 2
    assert [n.version for n in notes[1:]] == [3, 4]
    rows, keys = stack_sibling_rows(bus.read_lagged(9, delta=0))
    assert keys == ((0, 2), (0, 3), (0, 4))
    assert np.array_equal(rows[0], summary.embedding)


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
        tiny.publish(1, np.zeros(2), 0)


def test_dump_ordering_and_roundtrip():
    bus = NotesBus(d_note=2)
    bus.publish(1, np.array([1.5, -2.25]), 4)
    bus.publish(0, np.array([0.1, 0.2]), 0)
    bus.publish(0, np.array([0.3, 0.4]), 8)
    bus.tombstone_after(0, token_pos=8)
    lines = bus.dump_lines()
    ids = [tuple(line.split()[1:3]) for line in lines]
    assert ids == sorted(ids)
    clone = load_bus_lines(lines)
    assert clone.dump_lines() == lines


def test_bus_config_validation():
    with pytest.raises(ConfigError):
        NotesBus(d_note=0)
    with pytest.raises(ConfigError):
        NotesBus(d_note=2, capacity=0)


# -- property test against the canonical dump -------------------------------

OPS = st.one_of(
    st.tuples(st.just("publish"), st.integers(0, 3), st.floats(-1e3, 1e3), st.integers(0, 40)),
    st.tuples(st.just("tombstone"), st.integers(0, 3), st.integers(0, 40)),
    st.tuples(st.just("compact"), st.integers(1, 3)),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("reload")),
)


def live_notes(lines: list[str]) -> list[tuple[tuple[int, int], list[float]]]:
    """(stream, version) key and embedding of each live note of a dump, in dump order."""
    out = []
    for line in lines:
        _, sid, version, _, _, status, vals = line.split(" ")
        if status == "live":
            out.append(((int(sid), int(version)), [float(x) for x in vals.split(",")]))
    return out


def assert_views_match_dumps(bus: NotesBus, snapshot_dumps: list[list[str]]) -> None:
    for delta in range(4):
        lines = bus.dump_lines() if delta == 0 else snapshot_dumps[max(0, len(snapshot_dumps) - delta)]
        notes = live_notes(lines)
        assert [k for k, _ in notes] == sorted(k for k, _ in notes)
        for reader in range(5):
            rows, keys = stack_sibling_rows(bus.read_lagged(reader, delta))
            want = [(k, emb) for k, emb in notes if k[0] != reader]
            assert keys == tuple(k for k, _ in want)
            assert np.array_equal(rows, np.array([emb for _, emb in want]).reshape(-1, 2))


def assert_bounded_views_match(bus: NotesBus, bounded: NotesBus, bound: int) -> None:
    for delta in range(bound + 1):
        for reader in range(5):
            rows, keys = stack_sibling_rows(bus.read_lagged(reader, delta))
            b_rows, b_keys = stack_sibling_rows(bounded.read_lagged(reader, delta))
            assert b_keys == keys
            assert np.array_equal(b_rows, rows)
    with pytest.raises(ConfigError):
        bounded.read_lagged(0, bound + 1)
    assert len(bounded._snapshots) <= max(1, bound)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(OPS, max_size=40),
    capacity=st.integers(8, 16),
    retain_k=st.integers(1, 3),
    bound=st.integers(0, 3),
)
def test_views_match_dump_through_any_op_sequence(ops, capacity, retain_k, bound):
    # The reference bus keeps the 3 snapshots that the deepest lag read needs.
    bus = NotesBus(d_note=2, capacity=capacity, retain_k=retain_k, max_delta=3)
    bounded = NotesBus(d_note=2, capacity=capacity, retain_k=retain_k, max_delta=bound)
    snapshot_dumps: list[list[str]] = [[]]  # the bus starts with an empty snapshot
    next_version = [0, 0, 0, 0]
    for op in ops:
        if op[0] == "publish":
            _, sid, value, pos = op
            note = bus.publish(sid, np.array([value, 0.5 * value + sid]), pos)
            assert bounded.publish(sid, np.array([value, 0.5 * value + sid]), pos).version == note.version
            assert note.version == next_version[sid]
            next_version[sid] += 1
        elif op[0] == "tombstone":
            bus.tombstone_after(op[1], op[2])
            bounded.tombstone_after(op[1], op[2])
        elif op[0] == "compact":
            bus.compact(retain_k=op[1])
            bounded.compact(retain_k=op[1])
        elif op[0] == "snapshot":
            snap = bus.snapshot(created_at_token=0)
            assert bounded.snapshot(created_at_token=0).snapshot_version == snap.snapshot_version
            snapshot_dumps.append(bus.dump_lines())
        else:
            # Snapshots are not dumped, so a reloaded bus has only the empty one.
            clone = load_bus_lines(bus.dump_lines(), capacity=capacity, retain_k=retain_k, d_note=2)
            assert clone.dump_lines() == bus.dump_lines() == bounded.dump_lines()
            notes = [(note, False) for note in clone._visible] + [(note, True) for note in clone._tombstoned]
            bus = NotesBus(d_note=2, capacity=capacity, retain_k=retain_k, max_delta=3)
            bus._restore(notes)
            bounded = NotesBus(d_note=2, capacity=capacity, retain_k=retain_k, max_delta=bound)
            bounded._restore(notes)
            snapshot_dumps = [[]]
        assert bus.visible_rows() <= capacity
        assert_views_match_dumps(bus, snapshot_dumps)
        assert_bounded_views_match(bus, bounded, bound)


def test_empty_dump_loads_with_its_note_width():
    bus = NotesBus(d_note=3)
    assert bus.dump_lines() == []
    clone = load_bus_lines(bus.dump_lines(), d_note=3)
    assert clone.d_note == 3 and clone.visible_rows() == 0
    with pytest.raises(ValueError):
        load_bus_lines([])
    bus.publish(0, np.zeros(3), 0)
    with pytest.raises(ShapeError):
        load_bus_lines(bus.dump_lines(), d_note=2)
