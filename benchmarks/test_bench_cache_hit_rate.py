"""Experiment E8 — client-side cache: hit rate × metadata layout.

The paper's cost model makes every miss to the cluster expensive — a
round trip, a replicated transaction and the layout's per-sector metadata
accesses — which is exactly what a client-side block cache amortizes
(libRBD ships one for this reason).  This benchmark measures the
interaction between cache hit rate and metadata layout on three axes:

* **rewrite-heavy writeback** — 4 KiB random writes over a working set
  that fits in the cache; dirty blocks collapse in the cache and reach
  the cluster coalesced.  Acceptance: **>= 2x fewer RADOS transactions**
  than the uncached engine at cache size >= working set, per layout.
* **hit rate vs cache size** — the same workload at fractions of the
  working set, showing the hit-rate curve the eviction policy produces.
* **sequential readahead** — a sequential read scan with and without
  readahead, showing prefetch turning misses into hits.

All numbers are deterministic (seeded workloads, simulated time), so the
committed ``BENCH_cache.json`` baseline is gated at ±10% in CI.
"""

from __future__ import annotations

from repro import api
from repro.cache import CacheConfig
from repro.util import KIB, MIB
from repro.workload.runner import WorkloadRunner, prefill_image
from repro.workload.spec import WorkloadSpec

LAYOUTS = ("luks-baseline", "object-end", "omap")
IMAGE_SIZE = 4 * MIB            # the working set: 1024 cacheable blocks
OBJECT_SIZE = 1 * MIB
REWRITE_BYTES = 16 * MIB        # ~4 rewrites per block on average
QUEUE_DEPTH = 16


def _run(layout, label, spec, prefill=False):
    cluster = api.make_cluster(osd_count=3, replica_count=3)
    image, _info = api.create_encrypted_image(
        cluster, f"cache-bench-{label}", IMAGE_SIZE,
        passphrase=b"benchmark-passphrase", encryption_format=layout,
        cipher_suite="blake2-xts-sim", object_size=OBJECT_SIZE,
        random_seed=f"cache-bench-{label}".encode("utf-8"))
    if prefill:
        prefill_image(image)
    return WorkloadRunner(cluster).run(image, spec, layout_name=layout)


def _rewrite_spec(**overrides):
    base = dict(name="rewrite-heavy", rw="randwrite", io_size=4 * KIB,
                queue_depth=QUEUE_DEPTH, total_bytes=REWRITE_BYTES,
                seed=4242, batched=True)
    base.update(overrides)
    return WorkloadSpec(**base)


def test_cache_rewrite_heavy_txn_reduction(benchmark):
    """Writeback at cache >= working set must commit >= 2x fewer
    transactions than the uncached batched engine, on every layout."""
    points = {}

    def sweep():
        for layout in LAYOUTS:
            uncached = _run(layout, f"un-{layout}", _rewrite_spec())
            cached = _run(layout, f"wb-{layout}", _rewrite_spec(
                cache=CacheConfig(mode="writeback", size=8 * MIB)))
            points[layout] = (uncached, cached)
        return points

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    print()
    print("rewrite-heavy 4 KiB randwrite, cache >= working set:")
    for layout in LAYOUTS:
        uncached, cached = points[layout]
        un_txns = uncached.counter("rados.transactions")
        wb_txns = cached.counter("rados.transactions")
        reduction = un_txns / max(wb_txns, 1)
        writes = (cached.counter("cache.write_hits")
                  + cached.counter("cache.write_misses"))
        hit_rate = cached.counter("cache.write_hits") / max(writes, 1)
        print(f"  {layout:14s} txns {un_txns:6.0f} -> {wb_txns:5.0f} "
              f"({reduction:4.1f}x)  write-hit {100 * hit_rate:5.1f}%  "
              f"bw {uncached.bandwidth_mbps:7.1f} -> "
              f"{cached.bandwidth_mbps:7.1f} MiB/s")
        benchmark.extra_info[f"txn_reduction[{layout}]"] = round(reduction, 2)
        benchmark.extra_info[f"write_hit_rate[{layout}]"] = round(hit_rate, 3)
        benchmark.extra_info[f"cached_mbps[{layout}]"] = round(
            cached.bandwidth_mbps, 1)
        assert wb_txns * 2 <= un_txns, (
            f"{layout}: writeback saved less than 2x transactions "
            f"({wb_txns:.0f} vs {un_txns:.0f})")
        assert cached.bandwidth_mbps > uncached.bandwidth_mbps, (
            f"{layout}: the cache must not make the rewrite workload slower")


def test_cache_hit_rate_vs_size(benchmark):
    """The write-hit-rate curve across cache sizes, object-end layout."""
    sizes = (1 * MIB, 2 * MIB, 4 * MIB, 8 * MIB)
    points = {}

    def sweep():
        for size in sizes:
            points[size] = _run("object-end", f"sz-{size}", _rewrite_spec(
                cache=CacheConfig(mode="writeback", size=size)))
        return points

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    print()
    print("write hit rate vs cache size (4 MiB working set, object-end):")
    rates = []
    for size in sizes:
        result = points[size]
        writes = (result.counter("cache.write_hits")
                  + result.counter("cache.write_misses"))
        rate = result.counter("cache.write_hits") / max(writes, 1)
        rates.append(rate)
        print(f"  cache={size // MIB:2d}M  write-hit {100 * rate:5.1f}%  "
              f"txns={result.counter('rados.transactions'):6.0f}")
        benchmark.extra_info[f"write_hit_rate[{size // MIB}M]"] = round(rate, 3)
    assert rates == sorted(rates), "hit rate must grow with cache size"
    assert rates[-1] > rates[0], "a working-set cache must beat a 1/4 cache"


def test_cache_readahead_sequential_scan(benchmark):
    """Readahead must turn a sequential scan's misses into hits."""
    def spec(readahead):
        return WorkloadSpec(name="seq-scan", rw="read", io_size=4 * KIB,
                            queue_depth=QUEUE_DEPTH, total_bytes=2 * MIB,
                            seed=77, cache=CacheConfig(
                                mode="writethrough", size=8 * MIB,
                                readahead_blocks=readahead))

    points = {}

    def sweep():
        for readahead in (0, 16):
            points[readahead] = _run("object-end", f"ra-{readahead}",
                                     spec(readahead), prefill=True)
        return points

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    print()
    print("sequential 4 KiB scan, writethrough cache, object-end:")
    rates = {}
    for readahead, result in points.items():
        reads = (result.counter("cache.read_hits")
                 + result.counter("cache.read_misses"))
        rates[readahead] = result.counter("cache.read_hits") / max(reads, 1)
        print(f"  readahead={readahead:2d}  read-hit "
              f"{100 * rates[readahead]:5.1f}%  round trips "
              f"{result.counter('rados.client_read_ops'):5.0f}")
        benchmark.extra_info[f"read_hit_rate[ra={readahead}]"] = round(
            rates[readahead], 3)
        benchmark.extra_info[f"read_round_trips[ra={readahead}]"] = round(
            result.counter("rados.client_read_ops"))
    assert rates[16] > 0.8, "readahead should serve >80% of a scan from cache"
    assert rates[16] > rates[0] + 0.5, (
        "readahead must move the hit rate by a wide margin")
    assert (points[16].counter("rados.client_read_ops") * 2
            <= points[0].counter("rados.client_read_ops")), (
        "prefetch must batch the scan's round trips")
