"""KV budget arithmetic, pressure classification, and page residency."""

from __future__ import annotations

import pytest

from pdtcoord.errors import CapacityError, ConfigError
from pdtcoord.memmodel import (
    BUS_POOL,
    KIB,
    MIB,
    MemoryConfig,
    PageTable,
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
    assert table.pages[(0, 0)].state == "resident"
    assert table.pages[(0, 2)].state == "resident"
    assert table.resident_count() == 3


def test_pinned_pages_never_evicted():
    table = PageTable(page_size_tokens=32, capacity_pages=2)
    evict_and_prefetch(table, stream_ranges={}, snapshot_ranges=[(0, 32)])
    evict_and_prefetch(table, stream_ranges={0: (0, 32)})
    evict_and_prefetch(table, stream_ranges={1: (0, 32)})
    bus_key = (BUS_POOL, 0)
    assert table.pages[bus_key].state == "resident"
    assert table.pages[bus_key].pinned
    evicted = [k for k, p in table.pages.items() if p.state == "evicted"]
    assert evicted == [(0, 0)]


def test_capacity_exhaustion_raises():
    table = PageTable(page_size_tokens=32, capacity_pages=2)
    with pytest.raises(CapacityError):
        evict_and_prefetch(table, stream_ranges={0: (0, 96)})
    pinned_full = PageTable(page_size_tokens=32, capacity_pages=2)
    evict_and_prefetch(pinned_full, stream_ranges={}, snapshot_ranges=[(0, 64)])
    with pytest.raises(CapacityError):
        evict_and_prefetch(pinned_full, stream_ranges={0: (0, 32)})


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
    assert table.pages[(BUS_POOL, 0)].pinned
    again = evict_and_prefetch(table, stream_ranges={0: (0, 64)})
    assert again.swap_cost == 0.0


def test_rollback_drops_only_fully_rolled_back_pages():
    table = PageTable(page_size_tokens=32)
    evict_and_prefetch(table, stream_ranges={0: (0, 64)})
    dropped = rollback_page_cost(table, 0, rolled_back_to=32, trigger_position=64)
    assert dropped == 1
    assert (0, 0) in table.pages
    assert (0, 1) not in table.pages
    assert rollback_page_cost(table, 0, 32, 32) == 0


def test_rollback_boundary_page_survives_when_misaligned():
    # The span sits 16 tokens off the page grid, so the rollback target is mid-page.
    table = PageTable(page_size_tokens=32)
    evict_and_prefetch(table, stream_ranges={0: (16, 80)})
    # Page [32, 64) holds committed tokens 32-47, so only [64, 96) drops.
    dropped = rollback_page_cost(table, 0, rolled_back_to=48, trigger_position=80)
    assert dropped == 1
    assert (0, 1) in table.pages
    assert (0, 2) not in table.pages


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
