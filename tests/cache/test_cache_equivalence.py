"""Cache modes vs the uncached path: bit-level and plaintext equivalence.

Three tiers of equivalence, mirroring ``tests/engine/test_equivalence.py``:

* **writethrough is bit-identical** to the uncached path for *any*
  request mix — every write is forwarded unchanged, in order, so the
  transaction stream, the IV draws and therefore the ciphertext bodies
  and OMAP metadata all match exactly.
* **writeback is bit-identical** when no block is written twice and the
  stream stays within one object: the flush barrier writes dirty blocks
  back in first-dirtied order, so the IV stream matches the uncached
  write order.
* **writeback is plaintext-equivalent always** — rewrites collapse into
  one writeback (that is the point of the cache), so the IV streams
  diverge, but every read and the final image contents must agree, and
  nothing may be lost across eviction or the flush barrier (crash-free
  flush ordering).
"""

from __future__ import annotations

import random

import pytest

from repro import api
from repro.cache import CacheConfig, CachedImage
from repro.rados.transaction import ReadOperation
from repro.util import MIB

ALL_LAYOUTS = ("luks-baseline", "unaligned", "object-end", "omap")
BLOCK = 4096


def _dump_object_state(cluster, pool="rbd"):
    """Physical bytes and OMAP contents of every data object."""
    ioctx = cluster.client().open_ioctx(pool)
    state = {}
    for name in ioctx.list_objects("rbd_data."):
        size = ioctx.stat(name) or 0
        body = ioctx.read(name, 0, size).data if size else b""
        kv = ioctx.operate_read(
            name, ReadOperation().omap_get_vals_by_range(b"", b"\xff")).kv
        state[name] = (body, tuple(sorted(kv.items())))
    return state


def _make_image(layout, name, image_size, object_size, cache=None):
    cluster = api.make_cluster(osd_count=1, replica_count=1)
    image, _info = api.create_encrypted_image(
        cluster, name, image_size, b"pw", encryption_format=layout,
        cipher_suite="blake2-xts-sim", object_size=object_size,
        random_seed=b"cache-equivalence-seed")
    if cache is not None:
        image = CachedImage(image, cache)
    return cluster, image


def _assert_same_state(reference_cluster, cached_cluster, layout, what):
    reference = _dump_object_state(reference_cluster)
    cached = _dump_object_state(cached_cluster)
    assert reference.keys() == cached.keys()
    for name in reference:
        assert cached[name][0] == reference[name][0], (
            f"{layout}/{what}: ciphertext body of {name} differs")
        assert cached[name][1] == reference[name][1], (
            f"{layout}/{what}: OMAP metadata of {name} differs")


def _mixed_requests(image_size, count, seed, discards=False):
    rng = random.Random(seed)
    for _ in range(count):
        offset = rng.randrange(0, image_size - 9000)
        length = rng.randrange(1, 9000)
        roll = rng.random()
        if discards and roll < 0.1:
            yield ("discard", offset, length, b"")
        elif roll < 0.4:
            yield ("read", offset, length, b"")
        else:
            yield ("write", offset, length,
                   bytes([rng.randrange(256)]) * length)


def _distinct_block_writes(image_size, count, seed):
    """Aligned 1–2 block writes, no block written twice (random order)."""
    rng = random.Random(seed)
    blocks = list(range(image_size // BLOCK))
    rng.shuffle(blocks)
    taken = set()
    emitted = 0
    for block in blocks:
        if emitted >= count:
            break
        span = 2 if (rng.random() < 0.3 and block + 1 not in taken
                     and block + 1 < image_size // BLOCK) else 1
        if any(b in taken for b in range(block, block + span)):
            continue
        taken.update(range(block, block + span))
        emitted += 1
        yield (block * BLOCK, bytes([rng.randrange(256)]) * (span * BLOCK))


@pytest.mark.parametrize("layout", ALL_LAYOUTS)
def test_writethrough_bit_identical_any_workload(layout):
    """Writethrough forwards the exact write stream: full bit-identity."""
    image_size = 4 * MIB
    plain_cluster, plain_image = _make_image(layout, "eq", image_size,
                                             object_size=4 * MIB)
    cached_cluster, cached_image = _make_image(
        layout, "eq", image_size, object_size=4 * MIB,
        cache=CacheConfig(mode="writethrough", size=2 * MIB))

    plain_reads, cached_reads = [], []
    for op, offset, length, payload in _mixed_requests(image_size, 120, seed=5):
        if op == "read":
            plain_reads.append(plain_image.read(offset, length))
            cached_reads.append(cached_image.read(offset, length))
        else:
            plain_image.write(offset, payload)
            cached_image.write(offset, payload)
    cached_image.flush()

    assert cached_reads == plain_reads
    _assert_same_state(plain_cluster, cached_cluster, layout, "writethrough")


@pytest.mark.parametrize("layout", ALL_LAYOUTS)
def test_writeback_bit_identical_without_rewrites(layout):
    """No block written twice + one object => the flush preserves the IV
    order and the ciphertext matches the uncached path bit for bit."""
    image_size = 2 * MIB
    plain_cluster, plain_image = _make_image(layout, "eq-wb", image_size,
                                             object_size=2 * MIB)
    cached_cluster, cached_image = _make_image(
        layout, "eq-wb", image_size, object_size=2 * MIB,
        cache=CacheConfig(mode="writeback", size=4 * MIB))

    for offset, payload in _distinct_block_writes(image_size, 200, seed=11):
        plain_image.write(offset, payload)
        cached_image.write(offset, payload)
    cached_image.flush()

    _assert_same_state(plain_cluster, cached_cluster, layout, "writeback")


@pytest.mark.parametrize("layout", ALL_LAYOUTS)
def test_writeback_plaintext_equivalent_mixed_workload(layout):
    """Rewrites collapse in the cache (IVs diverge) but plaintext and every
    read must agree with the uncached path, across multiple objects."""
    image_size = 4 * MIB
    plain_cluster, plain_image = _make_image(layout, "eq-mix", image_size,
                                             object_size=1 * MIB)
    cached_cluster, cached_image = _make_image(
        layout, "eq-mix", image_size, object_size=1 * MIB,
        cache=CacheConfig(mode="writeback", size=1 * MIB, readahead_blocks=4))

    shadow = bytearray(image_size)
    for op, offset, length, payload in _mixed_requests(image_size, 150, seed=8):
        if op == "read":
            expected = bytes(shadow[offset:offset + length])
            assert plain_image.read(offset, length) == expected
            assert cached_image.read(offset, length) == expected, (
                f"{layout}: cached read diverged at [{offset}, {offset+length})")
        else:
            plain_image.write(offset, payload)
            cached_image.write(offset, payload)
            shadow[offset:offset + length] = payload
    cached_image.flush()

    assert cached_image.read(0, image_size) == bytes(shadow)
    # Reopen uncached: the *cluster* must hold the full plaintext too.
    fresh, _ = api.open_encrypted_image(cached_cluster, "eq-mix", b"pw")
    assert fresh.read(0, image_size) == bytes(shadow)


@pytest.mark.parametrize("layout", ALL_LAYOUTS)
def test_writeback_saves_transactions_on_rewrites(layout):
    """The cache's reason to exist: rewrite-heavy streams commit far fewer
    transactions than the uncached path."""
    image_size = 1 * MIB
    plain_cluster, plain_image = _make_image(layout, "eq-rw", image_size,
                                             object_size=1 * MIB)
    cached_cluster, cached_image = _make_image(
        layout, "eq-rw", image_size, object_size=1 * MIB,
        cache=CacheConfig(mode="writeback", size=2 * MIB))

    rng = random.Random(13)
    for _ in range(300):
        block = rng.randrange(image_size // BLOCK)
        payload = bytes([rng.randrange(256)]) * BLOCK
        plain_image.write(block * BLOCK, payload)
        cached_image.write(block * BLOCK, payload)
    cached_image.flush()

    plain_txns = plain_cluster.ledger.counter("rados.transactions")
    cached_txns = cached_cluster.ledger.counter("rados.transactions")
    assert cached_txns * 2 <= plain_txns, (
        f"{layout}: expected >=2x fewer transactions, got "
        f"{cached_txns:.0f} vs {plain_txns:.0f}")
    assert (plain_image.read(0, image_size)
            == cached_image.read(0, image_size))


@pytest.mark.parametrize("mode,cache_size", [("writethrough", 2 * MIB),
                                             ("writeback", 256 * 1024)])
def test_cache_matches_uncached_with_discards(mode, cache_size):
    """A discard zeroes exactly its byte range, block-aligned or not: every
    read and the final state through the cache must match an uncached
    image that saw the same stream."""
    image_size = 2 * MIB
    plain_cluster, plain_image = _make_image("object-end", "eq-disc",
                                             image_size, object_size=1 * MIB)
    cached_cluster, cached_image = _make_image(
        "object-end", "eq-disc", image_size, object_size=1 * MIB,
        cache=CacheConfig(mode=mode, size=cache_size))

    for op, offset, length, payload in _mixed_requests(image_size, 150,
                                                       seed=17, discards=True):
        if op == "read":
            assert (cached_image.read(offset, length)
                    == plain_image.read(offset, length)), (
                f"{mode}: read diverged at [{offset}, {offset + length})")
        elif op == "discard":
            plain_image.discard(offset, length)
            cached_image.discard(offset, length)
        else:
            plain_image.write(offset, payload)
            cached_image.write(offset, payload)
    cached_image.flush()

    assert (cached_image.read(0, image_size)
            == plain_image.read(0, image_size))
    fresh, _ = api.open_encrypted_image(cached_cluster, "eq-disc", b"pw")
    assert fresh.read(0, image_size) == plain_image.read(0, image_size)


def test_crash_free_flush_ordering():
    """After every flush barrier the cluster holds the cache's exact view —
    no acknowledged write may be missing, reordered or stale."""
    image_size = 2 * MIB
    cluster, cached = _make_image(
        "object-end", "flush-order", image_size, object_size=1 * MIB,
        cache=CacheConfig(mode="writeback", size=64 * BLOCK, dirty_ratio=0.5))

    shadow = bytearray(image_size)
    rng = random.Random(21)
    for round_no in range(5):
        for _ in range(40):
            offset = rng.randrange(0, image_size - 8000)
            length = rng.randrange(1, 8000)
            payload = bytes([rng.randrange(256)]) * length
            cached.write(offset, payload)
            shadow[offset:offset + length] = payload
        cached.flush()
        assert cached.dirty_blocks == 0
        # Read through a *fresh, uncached* image: only durable state counts.
        fresh, _ = api.open_encrypted_image(cluster, "flush-order", b"pw")
        assert fresh.read(0, image_size) == bytes(shadow), (
            f"durable state diverged after flush round {round_no}")


@pytest.mark.parametrize("mode", ["writethrough", "writeback"])
def test_snapshot_reads_bypass_cached_head_blocks(mode):
    """Regression: while a read-snapshot is set, reads must serve the
    snapshot's data even for blocks the cache holds post-snapshot copies
    of (resident or dirty) — the cache describes the head, not the snap."""
    image_size = 1 * MIB
    cluster, cached = _make_image("object-end", "snap-bypass", image_size,
                                  object_size=1 * MIB,
                                  cache=CacheConfig(mode=mode, size=2 * MIB))
    cached.write(0, b"A" * BLOCK)
    cached.create_snapshot("s1")            # flush barrier
    cached.write(0, b"B" * BLOCK)           # post-snapshot, cache-resident
    cached.set_read_snapshot("s1")
    assert cached.read(0, BLOCK) == b"A" * BLOCK, (
        f"{mode}: snapshot read served a post-snapshot cached block")
    assert cached.read_with_receipt(0, 16).data == b"A" * 16
    cached.set_read_snapshot(None)
    assert cached.read(0, BLOCK) == b"B" * BLOCK
    # The uncached image sees the same two views.
    fresh, _ = api.open_encrypted_image(cluster, "snap-bypass", b"pw")
    fresh.set_read_snapshot("s1")
    assert fresh.read(0, BLOCK) == b"A" * BLOCK


def test_writes_during_snapshot_read_fill_from_head():
    """Regression: the writeback read-fill (and the crypto dispatcher's
    RMW) must complete partial blocks from the *head* while a
    read-snapshot is set, or bytes outside the write revert to snapshot
    content on flush."""
    image_size = 1 * MIB
    plain_cluster, plain_image = _make_image("object-end", "snap-rmw",
                                             image_size, object_size=1 * MIB)
    cached_cluster, cached_image = _make_image(
        "object-end", "snap-rmw", image_size, object_size=1 * MIB,
        cache=CacheConfig(mode="writeback", size=2 * MIB))

    for image in (plain_image, cached_image):
        image.write(0, b"A" * BLOCK)
        if image is cached_image:
            image.flush()
            image.invalidate()      # force a cold read-fill below
        image.create_snapshot("s1")
        image.write(0, b"B" * BLOCK)
        if image is cached_image:
            image.flush()
            image.invalidate()
        image.set_read_snapshot("s1")
        image.write(100, b"XY")     # partial write while snap-read active
        image.set_read_snapshot(None)
        if image is cached_image:
            image.flush()

    for label, image in (("uncached", plain_image), ("cached", cached_image)):
        head = image.read(0, BLOCK)
        assert head[100:102] == b"XY", label
        assert head[:100] == b"B" * 100, (
            f"{label}: RMW pulled pre-snapshot bytes into the head")
        assert head[102:] == b"B" * (BLOCK - 102), label


def test_cache_off_is_todays_path():
    """With no cache configured the wrapper is absent: same object graph,
    same ledger counters as the pre-cache code path."""
    cluster = api.make_cluster(osd_count=1, replica_count=1)
    image, _info = api.create_encrypted_image(
        cluster, "plain", 1 * MIB, b"pw", cipher_suite="blake2-xts-sim",
        random_seed=b"x")
    assert not isinstance(image, CachedImage)
    image.write(0, b"data")
    assert cluster.ledger.counter("cache.read_hits") == 0
    assert cluster.ledger.counter("cache.writebacks") == 0
