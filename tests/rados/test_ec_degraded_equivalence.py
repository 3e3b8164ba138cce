"""Degraded-read equivalence on erasure-coded pools (ISSUE PR 9, sat. 2).

The EC mirror of the PR 8 failover-read tests: every read served while
0..m chunk OSDs are down must be bit-identical to the healthy read —
through the *full encrypted path* (LUKS-style header, per-sector
metadata layout, XTS codec), for every layout the paper compares.  The
acceptance property is exhaustive: a 4+2 image survives ANY pair of
concurrent chunk-OSD failures with bit-identical plaintext.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.api import create_encrypted_image, make_cluster
from repro.errors import DegradedClusterError
from repro.rados import backfill, peer, verify_replica_consistency
from repro.rados.cluster import ClusterConfig

K, M = 4, 2
POOL = "rbd-ec"
OBJECT_SIZE = 256 * 1024
IMAGE_SIZE = 1024 * 1024


def _ec_cluster(osd_count=12, min_size=None):
    cluster = make_cluster(
        config=ClusterConfig(osd_count=osd_count, pg_count=64))
    cluster.create_pool(POOL, ec=(K, M), min_size=min_size)
    return cluster


def _make_image(cluster, layout, name="ec-equiv", pool=POOL):
    image, _info = create_encrypted_image(
        cluster, name, IMAGE_SIZE, passphrase=b"ec-equivalence",
        encryption_format=layout, cipher_suite="blake2-xts-sim",
        object_size=OBJECT_SIZE, pool=pool,
        random_seed=b"ec-equivalence-seed")
    return image

def _fill(image, seed=7):
    rng = random.Random(seed)
    payload = rng.randbytes(IMAGE_SIZE)
    image.write(0, payload)
    # A few overlapping rewrites so sub-chunk RMW stripes are in play too.
    for _ in range(6):
        offset = rng.randrange(0, IMAGE_SIZE - 8192)
        patch = rng.randbytes(rng.randrange(512, 8192))
        image.write(offset, patch)
    return image.read(0, IMAGE_SIZE)


def _data_object(image, index=0):
    return f"rbd_data.{image.name}.{index:016x}"


def _heal(cluster):
    peer(cluster, POOL)
    while cluster.health_summary()["recovering"]:
        if backfill(cluster, POOL).objects_pushed == 0:
            break


class TestDegradedReadEquivalence:
    def test_reads_bit_identical_for_0_to_m_failures(self, any_layout):
        """Each extra chunk failure (up to m) leaves every encrypted read
        bit-identical to the healthy image — for all four layouts."""
        cluster = _ec_cluster()
        image = _make_image(cluster, any_layout)
        healthy = _fill(image)
        up = cluster.up_set(POOL, _data_object(image))
        assert len(up) == K + M
        for failures in range(1, M + 1):
            cluster.mark_osd_down(up[failures - 1])
            assert image.read(0, IMAGE_SIZE) == healthy, \
                f"layout={any_layout}: read diverged at {failures} failures"
        assert cluster.ledger.counter("cluster.ec_degraded_reads") > 0

    def test_any_two_concurrent_chunk_failures_survive(self):
        """The acceptance property: an EcPool(4, 2) image survives ANY two
        concurrent chunk-OSD failures of a stripe's acting set with
        bit-identical encrypted reads, and ec-repair backfill returns the
        pool to byte-verified consistency."""
        cluster = _ec_cluster()
        image = _make_image(cluster, "object-end")
        healthy = _fill(image)
        up = cluster.up_set(POOL, _data_object(image))
        for pair in itertools.combinations(up, 2):
            for osd_id in pair:
                cluster.mark_osd_down(osd_id)
            assert image.read(0, IMAGE_SIZE) == healthy, \
                f"read diverged with OSDs {pair} down"
            for osd_id in pair:
                cluster.restart_osd(osd_id)
            _heal(cluster)
        assert cluster.health_summary()["down"] == 0
        assert not verify_replica_consistency(cluster, POOL)
        assert image.read(0, IMAGE_SIZE) == healthy

    def test_losing_more_than_m_chunks_is_typed_error(self):
        cluster = _ec_cluster()
        image = _make_image(cluster, "object-end")
        _fill(image)
        up = cluster.up_set(POOL, _data_object(image))
        for osd_id in up[:M + 1]:
            cluster.mark_osd_down(osd_id)
        with pytest.raises(DegradedClusterError):
            image.read(0, OBJECT_SIZE)

    def test_degraded_writes_read_back_identically_after_repair(self):
        """Writes accepted while m chunk OSDs are down must read back
        bit-identical both degraded and after ec-repair backfill.

        Writing at k survivors needs ``min_size=k`` (the posture the
        failure drill runs); the default k+1 would refuse the write.
        """
        cluster = _ec_cluster(min_size=K)
        image = _make_image(cluster, "object-end")
        _fill(image)
        up = cluster.up_set(POOL, _data_object(image))
        for osd_id in up[:M]:
            cluster.mark_osd_down(osd_id)
        rng = random.Random(99)
        expected = bytearray(image.read(0, IMAGE_SIZE))
        for _ in range(4):
            offset = rng.randrange(0, IMAGE_SIZE - 4096)
            patch = rng.randbytes(4096)
            image.write(offset, patch)
            expected[offset:offset + 4096] = patch
        assert image.read(0, IMAGE_SIZE) == bytes(expected)
        assert cluster.ledger.counter("cluster.ec_degraded_writes") > 0

        for osd_id in up[:M]:
            cluster.restart_osd(osd_id)
        _heal(cluster)
        assert cluster.ledger.counter("recovery.ec_objects_repaired") > 0
        assert not verify_replica_consistency(cluster, POOL)
        assert image.read(0, IMAGE_SIZE) == bytes(expected)


@pytest.mark.parametrize("degraded", [False, True], ids=["healthy", "degraded"])
@pytest.mark.parametrize("pool", ["rbd", POOL])
def test_snapshot_read_of_an_object_born_later_is_zeros(pool, degraded,
                                                        any_layout):
    """An object first written after a snapshot did not exist then.  Its
    first write leaves an empty clone for the snapshot on every shard; an
    EC read took those for shards without an index and raised
    ``DegradedClusterError: only 0 of 4 required EC chunks reachable``
    where a replicated pool read zeros."""
    cluster = _ec_cluster()
    image = _make_image(cluster, any_layout, pool=pool)
    image.create_snapshot("s1")
    image.write(100, b"\x77" * 9000)
    if degraded:
        cluster.mark_osd_down(cluster.up_set(pool, _data_object(image))[0])
    image.set_read_snapshot("s1")
    assert image.read(0, 3 * 4096) == bytes(3 * 4096)
    image.set_read_snapshot(None)
    assert image.read(100, 9000) == b"\x77" * 9000
