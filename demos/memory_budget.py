"""KV-cache budget arithmetic and the paged residency model.

Reproduces the desk worked examples byte-for-byte, classifies memory
pressure against a device budget, then walks the page table through a
stride of reads, an eviction, and a rollback.
"""

from __future__ import annotations

from pdtcoord.memmodel import (
    BUS_POOL,
    MIB,
    MemoryConfig,
    PageTable,
    evict_and_prefetch,
    kv_budget,
    pressure_check,
    rollback_page_cost,
)


def show_budget(label: str, n_kv_self: int) -> MemoryConfig:
    config = MemoryConfig(
        d_model=4096,
        n_heads=32,
        n_layers=32,
        bytes_per_elem=2,
        n_kv_self=n_kv_self,
        n_kv_bus=1,
        tokens_per_stream=(2048, 2048, 2048),
        bus_tokens=2560,
        cross_layers=8,
    )
    b = kv_budget(config)
    print(f"--- {label} (n_kv_self={n_kv_self}) ---")
    print(f"  per token per layer: {b.per_token_per_layer} B")
    print(f"  per token, all layers: {b.per_token_all_layers} B")
    print(f"  stream surfaces: {b.surface_total // MIB} MiB")
    print(f"  bus pool: {b.bus_total // MIB} MiB")
    print(f"  grand total: {b.grand_total // MIB} MiB ({b.grand_total} B)\n")
    return config


def main() -> None:
    show_budget("single KV head", 1)
    gqa = show_budget("grouped KV heads", 8)

    print("--- pressure on a 16 GiB card, grouped-KV surfaces ---")
    for weights_mib in (14 * 1024, 15 * 1024 + 128, 15 * 1024 + 512):
        sized = MemoryConfig(**{
            **gqa.__dict__,
            "weights_bytes": weights_mib * MIB,
            "gpu_budget_bytes": 16 * 1024 * MIB,
        })
        report = pressure_check(sized)
        print(f"  weights {weights_mib / 1024:.3f} GiB: {report.status:4s} "
              f"(headroom {report.headroom // MIB} MiB, "
              f"utilization {report.utilization:.3f})")
    print()

    print("--- page table walk (page = 128 tokens, capacity 6) ---")
    table = PageTable(page_size_tokens=128, capacity_pages=6, t_page=1.0)
    first = evict_and_prefetch(
        table,
        stream_ranges={0: (0, 256), 1: (0, 256)},
        snapshot_ranges=[(0, 128)],
    )
    print(f"  warm-up fetch: {len(first.fetched)} pages, cost {first.swap_cost}")
    second = evict_and_prefetch(table, stream_ranges={0: (256, 512)})
    print(f"  next stride for stream 0: fetched {second.fetched}, evicted {second.evicted}")
    print(f"  bus page stays pinned: {table.pages[(BUS_POOL, 0)].state}")

    dropped = rollback_page_cost(table, pool=0, rolled_back_to=256, trigger_position=512)
    print(f"  rollback of stream 0 tokens [256, 512): dropped {dropped} pages")


if __name__ == "__main__":
    main()
