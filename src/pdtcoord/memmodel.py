"""KV-cache budget arithmetic and a rollback-aware paging simulator.

All sizes are exact integers in bytes (KiB = 2**10, MiB = 2**20); nothing here
is estimated.  The paging simulator tracks residency of fixed-size token pages
per stream plus a pinned pool for bus snapshots, with least-recently-read
eviction and stride-aligned placement so a rollback of at most L tokens only
ever touches ceil(L / B_page) pages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import islice
from typing import Iterable, Literal, Sequence

from .errors import CapacityError, ConfigError, as_float, as_int

KIB = 1 << 10
MIB = 1 << 20


@dataclass(frozen=True)
class MemoryConfig:
    """Model and deployment shape for KV budget arithmetic.

    n_kv_self is the KV head count of self-attention (1 for MQA, groups for
    GQA); n_kv_bus is the KV head count used for cross-attention over bus
    notes, which is laid out separately across cross_layers layers.  The head
    width d_head is derived as d_model // n_heads, so n_heads must divide
    d_model.  Every size is an exact integer; a bool, float or string is
    refused, and so is a negative byte count.
    """

    d_model: int
    n_heads: int
    n_layers: int
    bytes_per_elem: int
    n_kv_self: int
    n_kv_bus: int
    tokens_per_stream: tuple[int, ...]
    bus_tokens: int
    cross_layers: int
    weights_bytes: int = 0
    workspace_bytes: int = 0
    gpu_budget_bytes: int = 0

    def __post_init__(self) -> None:
        tokens = self.tokens_per_stream
        if not isinstance(tokens, Sequence):
            raise ConfigError(f"tokens_per_stream must be a sequence of integers, got {tokens!r}")
        sizes = [(f.name, getattr(self, f.name)) for f in fields(self) if f.name != "tokens_per_stream"]
        for name, value in sizes + [("tokens_per_stream", t) for t in tokens]:
            as_int(value, name)
        if self.d_model < 1 or self.n_heads < 1 or self.n_layers < 1:
            raise ConfigError("d_model, n_heads and n_layers must be positive")
        if self.bytes_per_elem < 1:
            raise ConfigError("bytes_per_elem must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if not 1 <= self.n_kv_self <= self.n_heads:
            raise ConfigError("n_kv_self must lie in [1, n_heads]")
        if self.n_kv_bus < 1:
            raise ConfigError("n_kv_bus must be >= 1")
        if any(t < 0 for t in self.tokens_per_stream) or self.bus_tokens < 0:
            raise ConfigError("token counts must be non-negative")
        for name in ("cross_layers", "weights_bytes", "workspace_bytes", "gpu_budget_bytes"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        object.__setattr__(self, "tokens_per_stream", tuple(int(t) for t in tokens))


@dataclass(frozen=True)
class KvBudget:
    """Exact byte counts derived from a MemoryConfig."""

    per_token_per_layer: int
    per_token_all_layers: int
    surface_total: int
    bus_per_token_per_layer: int
    bus_total: int
    grand_total: int


def kv_budget(config: MemoryConfig) -> KvBudget:
    """Byte-exact KV footprint of all stream caches plus the bus pool.

    per-token-per-layer = 2 (K and V) * n_kv_self * d_head * bytes_per_elem,
    with d_head = d_model // n_heads; the bus pool uses its own head count
    across cross_layers layers.
    """
    d_head = config.d_model // config.n_heads
    c_self = 2 * config.n_kv_self * d_head * config.bytes_per_elem
    per_all = c_self * config.n_layers
    surface = sum(config.tokens_per_stream) * per_all
    c_bus = 2 * config.n_kv_bus * d_head * config.bytes_per_elem
    bus = config.bus_tokens * c_bus * config.cross_layers
    return KvBudget(
        per_token_per_layer=c_self,
        per_token_all_layers=per_all,
        surface_total=surface,
        bus_per_token_per_layer=c_bus,
        bus_total=bus,
        grand_total=surface + bus,
    )


PressureStatus = Literal["ok", "warn", "oom"]


@dataclass(frozen=True)
class PressureReport:
    status: PressureStatus
    m_peak: int
    headroom: int
    utilization: float


def pressure_check(config: MemoryConfig, m_peak: int | None = None) -> PressureReport:
    """Classify a peak working set against the device budget.

    oom when m_peak + weights + workspace exceeds the budget; warn when m_peak
    is above 85% of the budget remaining after weights.  m_peak defaults to
    the grand-total KV budget.
    """
    if config.gpu_budget_bytes <= 0:
        raise ConfigError("pressure_check requires a positive gpu_budget_bytes")
    peak = kv_budget(config).grand_total if m_peak is None else int(m_peak)
    if peak < 0:
        raise ConfigError("m_peak must be non-negative")
    total = peak + config.weights_bytes + config.workspace_bytes
    after_weights = config.gpu_budget_bytes - config.weights_bytes
    utilization = total / config.gpu_budget_bytes
    if total > config.gpu_budget_bytes:
        status: PressureStatus = "oom"
    elif after_weights > 0 and peak > 0.85 * after_weights:
        status = "warn"
    else:
        status = "ok"
    return PressureReport(
        status=status,
        m_peak=peak,
        headroom=config.gpu_budget_bytes - total,
        utilization=utilization,
    )


# -- paging -----------------------------------------------------------------

BUS_POOL = -1


def _page_range(start_token: int, end_token: int, page_size: int) -> range:
    """Indices of the pages overlapping [start_token, end_token); empty when end <= start."""
    if end_token <= start_token:
        return range(0)
    return range(start_token // page_size, (end_token - 1) // page_size + 1)


def pages_touched(start_token: int, end_token: int, page_size: int) -> int:
    """Distinct pages overlapping token range [start_token, end_token).

    Page i holds tokens [i * page_size, (i + 1) * page_size); for a grid
    shifted o tokens earlier, count [start_token + o, end_token + o).
    """
    if page_size < 1:
        raise ConfigError("page_size must be >= 1")
    return len(_page_range(start_token, end_token, page_size))


@dataclass(frozen=True)
class SwapReport:
    evicted: tuple[tuple[int, int], ...]
    fetched: tuple[tuple[int, int], ...]
    swap_cost: float


@dataclass
class PageTable:
    """Residency map for per-stream KV pages and pinned bus pages.

    Pages are keyed (pool, page_index) where pool is a stream id or BUS_POOL;
    page i holds tokens [i * page_size_tokens, (i + 1) * page_size_tokens).
    resident holds the resident pages least recently read first, and evicted
    the pages swapped out and not read since.  capacity_pages bounds
    len(resident); eviction takes the least recently read page and never a
    bus page, which its pool pins.  The table starts empty.
    """

    page_size_tokens: int = 128
    capacity_pages: int | None = None
    t_page: float = 1.0
    resident: dict[tuple[int, int], None] = field(init=False, default_factory=dict)
    evicted: set[tuple[int, int]] = field(init=False, default_factory=set)

    def __post_init__(self) -> None:
        self.page_size_tokens = as_int(self.page_size_tokens, "page_size_tokens")
        if self.capacity_pages is not None:
            self.capacity_pages = as_int(self.capacity_pages, "capacity_pages")
        self.t_page = as_float(self.t_page, "t_page")
        if self.page_size_tokens < 1:
            raise ConfigError("page_size_tokens must be >= 1")
        if self.capacity_pages is not None and self.capacity_pages < 1:
            raise ConfigError("capacity_pages must be >= 1 when bounded")
        if not 0.0 <= self.t_page < math.inf:
            raise ConfigError("t_page must be finite and non-negative")


def evict_and_prefetch(
    table: PageTable,
    stream_ranges: dict[int, tuple[int, int]],
    snapshot_ranges: Iterable[tuple[int, int]] = (),
) -> SwapReport:
    """Bring the next stride's pages plus lagged snapshot pages resident.

    stream_ranges maps stream id to its upcoming [start, end) token range;
    snapshot_ranges lists bus-pool token ranges backing lagged reads.  The
    stride's demand is one set of pages, made resident in one pass or, when
    capacity cannot hold it, refused with CapacityError and the table
    unchanged.  Bus pages are pinned, so multi-consumer snapshot pages never
    thrash.  Returns the swap report (cost = pages moved * t_page).
    """
    if any(sid < 0 for sid in stream_ranges):
        raise ConfigError(f"stream ids must be non-negative; {BUS_POOL} is the bus pool")
    snapshot_ranges = list(snapshot_ranges)
    if any(min(r) < 0 for r in [*stream_ranges.values(), *snapshot_ranges]):
        raise ConfigError("token positions must be non-negative")
    size, resident = table.page_size_tokens, table.resident
    demand = dict.fromkeys(
        [(sid, i) for sid in sorted(stream_ranges) for i in _page_range(*stream_ranges[sid], size)]
        + [(BUS_POOL, i) for start, end in snapshot_ranges for i in _page_range(start, end, size)]
    )
    fetched = [key for key in demand if key not in resident]
    over = 0 if table.capacity_pages is None else len(resident) + len(fetched) - table.capacity_pages
    candidates = (key for key in resident if key[0] != BUS_POOL and key not in demand)
    victims = list(islice(candidates, max(over, 0)))
    if len(victims) < over:
        raise CapacityError(f"cannot make {len(demand)} pages resident within capacity {table.capacity_pages}")
    for key in victims:
        del resident[key]
    table.evicted.update(victims)
    table.evicted.difference_update(fetched)
    for key in demand:
        resident.pop(key, None)
        resident[key] = None
    return SwapReport(tuple(victims), tuple(fetched), table.t_page * (len(victims) + len(fetched)))


def rollback_page_cost(table: PageTable, pool: int, rolled_back_to: int, trigger_position: int) -> int:
    """Drop pages that only hold rolled-back tokens; returns pages dropped.

    A resident or evicted page is dropped when it lies entirely at or past
    rolled_back_to; the boundary page survives if it still holds committed
    tokens.  With stride-aligned placement and rollback spans of at most L
    tokens, at most ceil(L / page_size) pages are dropped.
    """
    if min(rolled_back_to, trigger_position) < 0:
        raise ConfigError("token positions must be non-negative")
    dropped = 0
    for idx in _page_range(rolled_back_to, trigger_position, table.page_size_tokens):
        key = (pool, idx)
        if idx * table.page_size_tokens >= rolled_back_to and (key in table.resident or key in table.evicted):
            table.resident.pop(key, None)
            table.evicted.discard(key)
            dropped += 1
    return dropped
