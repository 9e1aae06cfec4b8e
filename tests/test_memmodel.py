"""KV budget arithmetic, pressure classification, and page residency."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdtcoord.errors import CapacityError, ConfigError
from pdtcoord.memmodel import (
    BUS_POOL,
    KIB,
    MIB,
    MemoryConfig,
    PageTable,
    SwapReport,
    evict_and_prefetch,
    kv_budget,
    pages_touched,
    pressure_check,
    rollback_page_cost,
)


def desk_config(n_kv_self: int, **kw) -> MemoryConfig:
    return MemoryConfig(
        d_model=4096,
        n_heads=32,
        n_layers=32,
        bytes_per_elem=2,
        n_kv_self=n_kv_self,
        n_kv_bus=1,
        tokens_per_stream=(2048, 2048, 2048),
        bus_tokens=2560,
        cross_layers=8,
        **kw,
    )


def test_single_kv_head_budget_exact():
    b = kv_budget(desk_config(1))
    assert b.per_token_per_layer == 512
    assert b.per_token_all_layers == 16 * KIB
    assert b.surface_total == 96 * MIB
    assert b.bus_per_token_per_layer == 512
    assert b.bus_total == 10 * MIB
    assert b.grand_total == 106 * MIB
    assert b.grand_total == 111149056


def test_grouped_kv_head_budget_exact():
    b = kv_budget(desk_config(8))
    assert b.per_token_per_layer == 4 * KIB
    assert b.per_token_all_layers == 128 * KIB
    assert b.surface_total == 768 * MIB
    assert b.bus_total == 10 * MIB
    assert b.grand_total == 778 * MIB
    assert b.grand_total == 815792128


def test_bus_pool_independent_of_self_heads():
    assert kv_budget(desk_config(1)).bus_total == kv_budget(desk_config(8)).bus_total


def test_budget_linear_in_tokens():
    base = desk_config(1)
    # Frozen dataclass: construct fresh rather than mutate.
    double = MemoryConfig(**{**base.__dict__, "tokens_per_stream": (4096, 4096, 4096)})
    assert kv_budget(double).surface_total == 2 * kv_budget(base).surface_total


def test_memory_config_validation():
    with pytest.raises(ConfigError):
        desk_config(0)
    with pytest.raises(ConfigError):
        desk_config(64)
    with pytest.raises(ConfigError):
        MemoryConfig(
            d_model=100,
            n_heads=3,
            n_layers=1,
            bytes_per_elem=2,
            n_kv_self=1,
            n_kv_bus=1,
            tokens_per_stream=(8,),
            bus_tokens=0,
            cross_layers=0,
        )


def test_pressure_statuses():
    shape = dict(
        d_model=64,
        n_heads=4,
        n_layers=2,
        bytes_per_elem=2,
        n_kv_self=1,
        n_kv_bus=1,
        tokens_per_stream=(4,),
        bus_tokens=0,
        cross_layers=0,
        weights_bytes=200,
        workspace_bytes=50,
        gpu_budget_bytes=1000,
    )
    cfg = MemoryConfig(**shape)
    ok = pressure_check(cfg, m_peak=600)
    assert ok.status == "ok"
    assert ok.headroom == 150
    warn = pressure_check(cfg, m_peak=700)
    assert warn.status == "warn"
    oom = pressure_check(cfg, m_peak=800)
    assert oom.status == "oom"
    assert oom.headroom == -50
    assert oom.utilization == pytest.approx(1.05)


def test_pressure_defaults_to_grand_total():
    cfg = MemoryConfig(
        d_model=64,
        n_heads=4,
        n_layers=2,
        bytes_per_elem=2,
        n_kv_self=1,
        n_kv_bus=1,
        tokens_per_stream=(4,),
        bus_tokens=2,
        cross_layers=1,
        gpu_budget_bytes=10**6,
    )
    report = pressure_check(cfg)
    assert report.m_peak == kv_budget(cfg).grand_total
    assert report.status == "ok"
    with pytest.raises(ConfigError):
        pressure_check(MemoryConfig(**{**cfg.__dict__, "gpu_budget_bytes": 0}))


def test_pages_touched_basic():
    assert pages_touched(0, 32, 32) == 1
    assert pages_touched(0, 33, 32) == 2
    assert pages_touched(32, 64, 32) == 1
    assert pages_touched(31, 33, 32) == 2
    assert pages_touched(10, 10, 32) == 0
    with pytest.raises(ConfigError):
        pages_touched(0, 8, 0)


def test_pages_touched_misaligned_grid():
    # An aligned 32-token span sits on one page; the same span 16 tokens off the grid splits.
    assert pages_touched(32, 64, 32) == 1
    assert pages_touched(32 + 16, 64 + 16, 32) == 2


def test_least_recently_read_eviction():
    table = PageTable(page_size_tokens=32, capacity_pages=3)
    for start in (0, 32, 64):
        evict_and_prefetch(table, stream_ranges={0: (start, start + 32)})
    # Reading page 0 again moves nothing but makes page 1 the oldest read.
    again = evict_and_prefetch(table, stream_ranges={0: (0, 32)})
    assert again.fetched == () and again.evicted == ()
    report = evict_and_prefetch(table, stream_ranges={0: (96, 128)})
    assert report.evicted == ((0, 1),)
    assert report.fetched == ((0, 3),)
    assert (0, 0) in table.resident
    assert (0, 2) in table.resident
    assert len(table.resident) == 3


def test_pinned_pages_never_evicted():
    table = PageTable(page_size_tokens=32, capacity_pages=2)
    evict_and_prefetch(table, stream_ranges={}, snapshot_ranges=[(0, 32)])
    evict_and_prefetch(table, stream_ranges={0: (0, 32)})
    evict_and_prefetch(table, stream_ranges={1: (0, 32)})
    bus_key = (BUS_POOL, 0)
    assert bus_key in table.resident
    assert table.evicted == {(0, 0)}


def test_capacity_exhaustion_raises():
    table = PageTable(page_size_tokens=32, capacity_pages=2)
    with pytest.raises(CapacityError):
        evict_and_prefetch(table, stream_ranges={0: (0, 96)})
    pinned_full = PageTable(page_size_tokens=32, capacity_pages=2)
    evict_and_prefetch(pinned_full, stream_ranges={}, snapshot_ranges=[(0, 64)])
    with pytest.raises(CapacityError):
        evict_and_prefetch(pinned_full, stream_ranges={0: (0, 32)})


def test_overlapping_snapshot_ranges_make_their_one_page_resident():
    table = PageTable(page_size_tokens=32, capacity_pages=1)
    report = evict_and_prefetch(table, stream_ranges={}, snapshot_ranges=[(0, 32), (0, 32)])
    assert report.fetched == ((BUS_POOL, 0),)
    assert list(table.resident) == [(BUS_POOL, 0)]
    table = PageTable(page_size_tokens=32, capacity_pages=2)
    report = evict_and_prefetch(table, stream_ranges={}, snapshot_ranges=[(0, 32), (16, 48)])
    assert report.fetched == ((BUS_POOL, 0), (BUS_POOL, 1))
    assert len(table.resident) == 2


def test_a_split_stream_and_bus_demand_over_capacity_is_refused():
    # Two stream pages and one bus page cannot all be resident in two slots;
    # no page the call itself demands may be evicted to make room.
    table = PageTable(page_size_tokens=32, capacity_pages=2)
    with pytest.raises(CapacityError, match="3 pages"):
        evict_and_prefetch(table, stream_ranges={0: (0, 64)}, snapshot_ranges=[(0, 32)])
    assert table.resident == {} and table.evicted == set()


def test_a_refused_demand_leaves_the_table_unchanged():
    table = PageTable(page_size_tokens=32, capacity_pages=2)
    evict_and_prefetch(table, stream_ranges={1: (0, 32)})
    with pytest.raises(CapacityError):
        evict_and_prefetch(table, stream_ranges={0: (0, 32)}, snapshot_ranges=[(0, 96)])
    assert list(table.resident) == [(1, 0)]
    assert table.evicted == set()


def test_a_negative_stream_id_is_refused():
    # A stream id of BUS_POOL would make a bus-pool page that no snapshot pinned.
    table = PageTable(page_size_tokens=32)
    for sid in (BUS_POOL, -2):
        with pytest.raises(ConfigError, match="stream ids"):
            evict_and_prefetch(table, stream_ranges={0: (0, 32), sid: (0, 32)})
        assert table.resident == {} and table.evicted == set()


def test_a_negative_token_position_is_refused():
    # Page -1 would hold tokens [-32, 0), which no stream or snapshot has.
    table = PageTable(page_size_tokens=32)
    evict_and_prefetch(table, stream_ranges={1: (0, 32)})
    for streams, snapshots in (({0: (-64, 0)}, [(-40, -8)]), ({0: (-8, 32)}, []), ({0: (0, 32)}, [(-1, 8)])):
        with pytest.raises(ConfigError, match="token positions"):
            evict_and_prefetch(table, stream_ranges=streams, snapshot_ranges=snapshots)
        assert list(table.resident) == [(1, 0)] and table.evicted == set()
    for target, trigger in ((-32, 32), (-64, -32)):
        with pytest.raises(ConfigError, match="token positions"):
            rollback_page_cost(table, 1, target, trigger)
        assert list(table.resident) == [(1, 0)]


def test_evict_and_prefetch_pins_bus_and_prices_swaps():
    table = PageTable(page_size_tokens=32, t_page=2.0)
    report = evict_and_prefetch(
        table,
        stream_ranges={0: (0, 64), 1: (0, 32)},
        snapshot_ranges=[(0, 32)],
    )
    assert set(report.fetched) == {(0, 0), (0, 1), (1, 0), (BUS_POOL, 0)}
    assert report.evicted == ()
    assert report.swap_cost == pytest.approx(8.0)
    again = evict_and_prefetch(table, stream_ranges={0: (0, 64)})
    assert again.swap_cost == 0.0


def test_rollback_drops_only_fully_rolled_back_pages():
    table = PageTable(page_size_tokens=32)
    evict_and_prefetch(table, stream_ranges={0: (0, 64)})
    dropped = rollback_page_cost(table, 0, rolled_back_to=32, trigger_position=64)
    assert dropped == 1
    assert (0, 0) in table.resident
    assert (0, 1) not in table.resident
    assert rollback_page_cost(table, 0, 32, 32) == 0


def test_rollback_boundary_page_survives_when_misaligned():
    # The span sits 16 tokens off the page grid, so the rollback target is mid-page.
    table = PageTable(page_size_tokens=32)
    evict_and_prefetch(table, stream_ranges={0: (16, 80)})
    # Page [32, 64) holds committed tokens 32-47, so only [64, 96) drops.
    dropped = rollback_page_cost(table, 0, rolled_back_to=48, trigger_position=80)
    assert dropped == 1
    assert (0, 1) in table.resident
    assert (0, 2) not in table.resident


def test_aligned_rollback_page_bound():
    # With stride-aligned pages, a span of at most L drops at most
    # ceil(L / page_size) pages, exercised across span placements.
    horizon = 32
    for page in (8, 16, 32, 64):
        bound = -(-horizon // page)
        for start in range(0, 128, horizon):
            table = PageTable(page_size_tokens=page)
            evict_and_prefetch(table, stream_ranges={0: (0, start + horizon)})
            dropped = rollback_page_cost(table, 0, start, start + horizon)
            assert dropped <= bound


# -- property test against a read-stamp reference table ---------------------


class RefTable:
    """Page residency kept as a read stamp per resident page.

    Each call reads its whole demand at one new stamp; a victim is the
    unpinned, undemanded resident page with the smallest (stamp, key).
    """

    def __init__(self, size: int, capacity: int | None, t_page: float):
        self.size, self.capacity, self.t_page = size, capacity, t_page
        self.stamp: dict[tuple[int, int], int] = {}
        self.out: set[tuple[int, int]] = set()
        self.clock = 0

    def pages(self, pool: int, start: int, end: int) -> list[tuple[int, int]]:
        return [(pool, i) for i in range(start // self.size, -(-end // self.size))] if end > start else []

    def demand(self, stream_ranges, snapshot_ranges) -> list[tuple[int, int]]:
        demand: list[tuple[int, int]] = []
        for sid in sorted(stream_ranges):
            demand += self.pages(sid, *stream_ranges[sid])
        for start, end in snapshot_ranges:
            demand += [k for k in self.pages(BUS_POOL, start, end) if k not in demand]
        return demand

    def prefetch(self, stream_ranges, snapshot_ranges) -> SwapReport:
        demand = self.demand(stream_ranges, snapshot_ranges)
        need = [k for k in demand if k not in self.stamp]
        victims = sorted(
            (k for k in self.stamp if k[0] != BUS_POOL and k not in demand),
            key=lambda k: (self.stamp[k], k),
        )
        over = 0 if self.capacity is None else len(self.stamp) + len(need) - self.capacity
        if len(victims) < over:
            raise CapacityError("over capacity")
        victims = victims[: max(over, 0)]
        for k in victims:
            del self.stamp[k]
            self.out.add(k)
        self.clock += 1
        for k in demand:
            self.stamp[k] = self.clock
            self.out.discard(k)
        return SwapReport(tuple(victims), tuple(need), self.t_page * (len(victims) + len(need)))

    def rollback(self, pool: int, target: int, trigger: int) -> int:
        gone = [k for k in set(self.stamp) | self.out if k[0] == pool and target <= k[1] * self.size < trigger]
        for k in gone:
            self.stamp.pop(k, None)
            self.out.discard(k)
        return len(gone)


# Token ranges are drawn on a 32-token page grid and scaled to the drawn page
# size, so a stream read spans at most two pages and the bus reads stay within
# pages 0-2 whatever the size: most demands fit in 6 pages, and evictions and
# refusals both come up often.
GRID = 32


def token_ranges(last_page: int, max_pages: int):
    return st.tuples(st.integers(0, last_page * GRID), st.integers(0, max_pages * GRID))


PAGE_OPS = st.tuples(
    st.sampled_from(["prefetch", "prefetch", "prefetch", "rollback"]),
    st.dictionaries(st.integers(0, 2), token_ranges(6, 1), min_size=1, max_size=3),
    st.lists(token_ranges(1, 1), max_size=3),
    st.sampled_from([0, 1, 2, BUS_POOL]),
    token_ranges(3, 4),
)


@settings(max_examples=120, deadline=None)
@given(
    ops=st.lists(PAGE_OPS, min_size=4, max_size=16),
    size=st.integers(8, 32),
    capacity=st.sampled_from([None, 1, 2, 3, 4, 5, 6]),
)
def test_page_table_matches_a_read_stamp_reference(ops, size, capacity):
    def tokens(start: int, length: int) -> tuple[int, int]:
        return start * size // GRID, (start + length) * size // GRID

    table = PageTable(page_size_tokens=size, capacity_pages=capacity, t_page=1.5)
    ref = RefTable(size, capacity, 1.5)
    for kind, streams, snapshots, pool, span in ops:
        before = (list(table.resident), set(table.evicted))
        if kind == "rollback":
            target, trigger = tokens(*span)
            assert rollback_page_cost(table, pool, target, trigger) == ref.rollback(pool, target, trigger)
        else:
            stream_ranges = {sid: tokens(*r) for sid, r in streams.items()}
            snapshot_ranges = [tokens(*r) for r in snapshots]
            try:
                want = ref.prefetch(stream_ranges, snapshot_ranges)
            except CapacityError:
                with pytest.raises(CapacityError):
                    evict_and_prefetch(table, stream_ranges, snapshot_ranges)
                assert (list(table.resident), table.evicted) == before
                continue
            assert evict_and_prefetch(table, stream_ranges, snapshot_ranges) == want
            assert all(k in table.resident for k in ref.demand(stream_ranges, snapshot_ranges))
        assert set(table.resident) == set(ref.stamp)
        assert table.evicted == ref.out
        assert not table.evicted & table.resident.keys()
        assert all(key[0] != BUS_POOL for key in table.evicted)
        if capacity is not None:
            assert len(table.resident) <= capacity
