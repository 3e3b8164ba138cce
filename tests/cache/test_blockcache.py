"""Functional tests of :class:`repro.cache.CachedImage`.

These drive the cache against real (simulated) encrypted images and check
hit/miss accounting, writeback coalescing, dirty-ratio and eviction
writeback, readahead, discard semantics and the flush barriers around
snapshots and resize.
"""

from __future__ import annotations

import os

import pytest

from repro import api
from repro.cache import CacheConfig, CachedImage, SequentialDetector
from repro.errors import ConfigurationError
from repro.util import MIB

BLOCK = 4096


def _cached(cluster_kwargs=None, image_size=8 * MIB, **cache_kwargs):
    cluster = api.make_cluster(osd_count=1, replica_count=1,
                               **(cluster_kwargs or {}))
    image, _info = api.create_encrypted_image(
        cluster, "cache-test", image_size, b"pw",
        cipher_suite="blake2-xts-sim", random_seed=b"cache-seed")
    cache_kwargs.setdefault("mode", "writeback")
    cache_kwargs.setdefault("size", 2 * MIB)
    return cluster, CachedImage(image, CacheConfig(**cache_kwargs))


class TestConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(mode="writearound")

    def test_parses_size_strings(self):
        assert CacheConfig(size="4M").size == 4 * MIB

    def test_rejects_bad_dirty_ratio(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(dirty_ratio=0.0)

    def test_capacity_is_at_least_one_block(self):
        assert CacheConfig(size=100).capacity_blocks(BLOCK) == 1


class TestWriteback:
    def test_write_hits_are_absorbed(self):
        cluster, cached = _cached()
        before = cluster.ledger.counter("rados.transactions")
        for _ in range(20):
            cached.write(0, os.urandom(BLOCK))
        assert cluster.ledger.counter("rados.transactions") == before
        assert cached.dirty_blocks == 1
        cached.flush()
        assert cached.dirty_blocks == 0
        assert cluster.ledger.counter("rados.transactions") == before + 1

    def test_flush_coalesces_into_one_transaction_per_object(self):
        cluster, cached = _cached()
        for block in range(64):
            cached.write(block * BLOCK, bytes([block % 251]) * BLOCK)
        before = cluster.ledger.counter("rados.transactions")
        cached.flush()
        # 64 dirty blocks, one object touched: exactly one transaction.
        assert cluster.ledger.counter("rados.transactions") == before + 1

    def test_read_after_write_hits_cache(self):
        cluster, cached = _cached()
        payload = os.urandom(2 * BLOCK)
        cached.write(BLOCK, payload)
        assert cached.read(BLOCK, 2 * BLOCK) == payload
        assert cached.stats.read_hits == 2
        assert cached.stats.read_misses == 0

    def test_partial_write_read_fills_once(self):
        cluster, cached = _cached()
        cached.image.write(0, b"\xaa" * (2 * BLOCK))     # behind the cache
        cached.write(100, b"X" * 50)                     # partial, read-fill
        assert cached.stats.fill_reads == 1
        expected = b"\xaa" * 100 + b"X" * 50 + b"\xaa" * (BLOCK - 150)
        assert cached.read(0, BLOCK) == expected
        # A second partial write to the same block needs no new fill.
        cached.write(200, b"Y" * 10)
        assert cached.stats.fill_reads == 1

    def test_unaligned_write_spanning_blocks(self):
        cluster, cached = _cached()
        payload = os.urandom(3 * BLOCK)
        cached.write(BLOCK // 2, payload)
        cached.flush()
        fresh, _ = api.open_encrypted_image(cluster, "cache-test", b"pw")
        assert fresh.read(BLOCK // 2, 3 * BLOCK) == payload

    def test_dirty_ratio_triggers_writeback(self):
        cluster, cached = _cached(size=16 * BLOCK, dirty_ratio=0.25)
        limit = 4                                        # 0.25 * 16 blocks
        for block in range(12):
            cached.write(block * BLOCK, os.urandom(BLOCK))
            assert cached.dirty_blocks <= limit
        assert cached.stats.writeback_blocks >= 8

    def test_dirty_eviction_writes_back_before_dropping(self):
        cluster, cached = _cached(size=4 * BLOCK, dirty_ratio=1.0)
        payloads = {b: os.urandom(BLOCK) for b in range(8)}
        for block, payload in payloads.items():
            cached.write(block * BLOCK, payload)
        assert cached.stats.dirty_evictions > 0
        cached.flush()
        fresh, _ = api.open_encrypted_image(cluster, "cache-test", b"pw")
        for block, payload in payloads.items():
            assert fresh.read(block * BLOCK, BLOCK) == payload, (
                f"block {block} lost by eviction")

    def test_batch_larger_than_cache_stays_correct(self):
        cluster, cached = _cached(size=2 * BLOCK, dirty_ratio=1.0)
        extents = [(b * BLOCK, bytes([b + 1]) * BLOCK) for b in range(16)]
        cached.write_extents(extents)
        cached.flush()
        fresh, _ = api.open_encrypted_image(cluster, "cache-test", b"pw")
        for block in range(16):
            assert fresh.read(block * BLOCK, BLOCK) == bytes([block + 1]) * BLOCK

    def test_flush_is_idempotent(self):
        cluster, cached = _cached()
        cached.write(0, os.urandom(BLOCK))
        cached.flush()
        before = cluster.ledger.counter("rados.transactions")
        cached.flush()
        assert cluster.ledger.counter("rados.transactions") == before

    def test_caller_buffer_may_be_reused_immediately(self):
        """Unlike the engine queue, the cache copies at admission."""
        cluster, cached = _cached()
        buffer = bytearray(b"A" * BLOCK)
        cached.write(0, buffer)
        buffer[:] = b"B" * BLOCK
        assert cached.read(0, BLOCK) == b"A" * BLOCK


class TestWritethrough:
    def test_writes_reach_cluster_immediately(self):
        cluster, cached = _cached(mode="writethrough")
        before = cluster.ledger.counter("rados.transactions")
        cached.write(0, os.urandom(BLOCK))
        assert cluster.ledger.counter("rados.transactions") == before + 1
        assert cached.dirty_blocks == 0

    def test_reads_of_written_blocks_hit(self):
        cluster, cached = _cached(mode="writethrough")
        payload = os.urandom(BLOCK)
        cached.write(0, payload)
        before = cluster.ledger.counter("rados.read_ops")
        assert cached.read(0, BLOCK) == payload
        assert cached.stats.read_hits == 1
        assert cluster.ledger.counter("rados.read_ops") == before

    def test_partial_write_to_uncached_block_is_not_cached(self):
        cluster, cached = _cached(mode="writethrough")
        cached.write(10, b"Z" * 20)
        assert cached.cached_blocks == 0
        assert cached.read(10, 20) == b"Z" * 20    # served by the cluster

    def test_partial_write_updates_resident_copy(self):
        cluster, cached = _cached(mode="writethrough")
        cached.write(0, b"\x11" * BLOCK)
        cached.write(10, b"\x22" * 20)
        expected = b"\x11" * 10 + b"\x22" * 20 + b"\x11" * (BLOCK - 30)
        assert cached.read(0, BLOCK) == expected
        fresh, _ = api.open_encrypted_image(cluster, "cache-test", b"pw")
        assert fresh.read(0, BLOCK) == expected


class TestReadahead:
    def test_sequential_detection_prefetches(self):
        cluster, cached = _cached(readahead_blocks=8)
        cached.image.write(0, os.urandom(64 * BLOCK))
        for block in range(16):
            cached.read(block * BLOCK, BLOCK)
        assert cached.stats.readahead_blocks > 0
        assert cached.stats.readahead_hits > 0
        # After warm-up the stream must be nearly all hits.
        assert cached.stats.read_hits >= 12

    def test_random_reads_do_not_prefetch(self):
        cluster, cached = _cached(readahead_blocks=8)
        cached.image.write(0, os.urandom(64 * BLOCK))
        for block in (40, 3, 29, 11, 55, 17, 48, 22):
            cached.read(block * BLOCK, BLOCK)
        assert cached.stats.readahead_blocks == 0

    def test_prefetch_stops_at_image_end(self):
        cluster, cached = _cached(readahead_blocks=64, image_size=16 * BLOCK)
        for block in range(16):
            cached.read(block * BLOCK, BLOCK)
        # Never raises, never caches a block past the end.
        assert all(b < 16 for b in range(cached.cached_blocks))

    def test_detector_ramps_up(self):
        detector = SequentialDetector(max_blocks=8, trigger=2)
        assert detector.observe(0, 0) is None       # first read: no streak
        assert detector.observe(1, 1) == (2, 1)     # streak of 2: 1 block
        assert detector.observe(2, 2) == (3, 2)     # ramp: 2 blocks
        start, count = detector.observe(3, 3)
        assert count <= 8
        detector.reset()
        assert detector.observe(9, 9) is None


class TestSemantics:
    def test_discard_drops_cached_blocks(self):
        cluster, cached = _cached()
        cached.write(0, b"\x33" * (2 * BLOCK))
        cached.discard(0, 2 * BLOCK)
        assert cached.read(0, 2 * BLOCK) == bytes(2 * BLOCK)
        assert cached.dirty_blocks == 0

    def test_partial_discard_matches_uncached_semantics(self):
        """A discard inside a block zeroes exactly its bytes, which is the
        dispatcher's business, not the cache's; cached reads must agree
        with an uncached image that saw the same operations."""
        cluster, cached = _cached()
        reference_cluster, reference = _cached()
        reference = reference.image                     # uncached twin
        for target in (cached, reference):
            target.write(0, b"\x44" * (2 * BLOCK))
            target.discard(100, 50)
        cached.flush()
        assert cached.read(0, 2 * BLOCK) == reference.read(0, 2 * BLOCK)

    def test_partial_discard_of_dirty_block_keeps_out_of_range_bytes_durable(self):
        """A dirty boundary block's bytes outside the discard range must
        reach the cluster before the discard, like on the uncached path."""
        cluster, cached = _cached()
        reference_cluster, reference = _cached()
        reference = reference.image
        for target in (cached, reference):
            target.write(0, b"\x55" * (2 * BLOCK))      # dirty in the cache
            target.discard(BLOCK + 100, 50)             # boundary of block 1
        cached.flush()
        fresh, _ = api.open_encrypted_image(cluster, "cache-test", b"pw")
        assert fresh.read(0, 2 * BLOCK) == reference.read(0, 2 * BLOCK)

    def test_snapshot_takes_flush_barrier(self):
        cluster, cached = _cached()
        cached.write(0, b"\x55" * BLOCK)
        assert cached.dirty_blocks == 1
        cached.create_snapshot("snap")
        assert cached.dirty_blocks == 0
        cached.write(0, b"\x66" * BLOCK)
        cached.flush()
        cached.set_read_snapshot("snap")
        assert cached.read(0, BLOCK) == b"\x55" * BLOCK
        cached.set_read_snapshot(None)
        assert cached.read(0, BLOCK) == b"\x66" * BLOCK

    def test_resize_flushes_and_drops_tail(self):
        cluster, cached = _cached(image_size=8 * MIB)
        cached.write(8 * MIB - BLOCK, b"\x77" * BLOCK)
        cached.resize(4 * MIB)
        assert cached.size == 4 * MIB
        assert cached.cached_blocks <= cached.capacity_blocks
        with pytest.raises(Exception):
            cached.read(8 * MIB - BLOCK, BLOCK)

    def test_invalidate_drops_everything(self):
        cluster, cached = _cached()
        cached.write(0, b"\x88" * BLOCK)
        cached.flush()
        cached.invalidate()
        assert cached.cached_blocks == 0
        assert cached.read(0, BLOCK) == b"\x88" * BLOCK   # refetched

    def test_proxies_image_surface(self):
        cluster, cached = _cached()
        assert cached.object_size == 4 * MIB
        assert cached.size == 8 * MIB
        assert cached.ioctx is cached.image.ioctx
        assert cached.dispatcher is cached.image.dispatcher


class TestAccounting:
    def test_hit_cost_charged_to_client_cpu(self):
        cluster, cached = _cached()
        cached.write(0, os.urandom(BLOCK))
        busy_before = cluster.ledger.resource("client.cpu")
        receipt = cached.read_with_receipt(0, BLOCK).receipt
        cost = cluster.params.cache_hit_cost_us
        assert receipt.latency_us == pytest.approx(cost)
        assert (cluster.ledger.resource("client.cpu")
                == pytest.approx(busy_before + cost))

    def test_event_tracing_records_cache_hits(self):
        cluster, cached = _cached()
        cached.write(0, os.urandom(BLOCK))
        ledger = cluster.ledger
        ledger.trace_ops = True
        try:
            cached.read(0, BLOCK)
            traces = ledger.take_open_traces()
        finally:
            ledger.trace_ops = False
            ledger.discard_open_traces()
        assert [t.kind for t in traces] == ["cache-hit"]
        assert traces[0].client_cpu_us > 0
        assert not traces[0].visits

    def test_ledger_counters_mirror_stats(self):
        cluster, cached = _cached()
        cached.write(0, os.urandom(BLOCK))
        cached.read(0, BLOCK)
        cached.read(BLOCK, BLOCK)
        cached.flush()
        ledger = cluster.ledger
        assert ledger.counter("cache.read_hits") == cached.stats.read_hits
        assert ledger.counter("cache.read_misses") == cached.stats.read_misses
        assert (ledger.counter("cache.writeback_blocks")
                == cached.stats.writeback_blocks)
        assert ledger.counter("cache.flushes") == cached.stats.flushes
