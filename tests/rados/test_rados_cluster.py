"""Tests for the RADOS layer: placement, transactions, OSDs, client, snapshots."""

import pytest

from repro.errors import (ConfigurationError, ObjectNotFoundError,
                          PoolNotFoundError, TransactionError)
from repro.rados import (Cluster, ClusterConfig, OpStat, ReadOperation,
                         WriteTransaction)
from repro.rados.client import SnapContext
from repro.rados.placement import PlacementMap
from repro.sim.costparams import default_cost_parameters
from repro.sim.ledger import RES_CLIENT_NET, RES_CLUSTER_NET


class TestPlacement:
    def test_deterministic(self):
        pmap = PlacementMap([0, 1, 2])
        assert pmap.osds_for_object("rbd", "obj1", 3) == \
            pmap.osds_for_object("rbd", "obj1", 3)

    def test_returns_requested_replica_count_without_duplicates(self):
        pmap = PlacementMap([0, 1, 2, 3, 4])
        osds = pmap.osds_for_object("rbd", "some-object", 3)
        assert len(osds) == 3
        assert len(set(osds)) == 3

    def test_rejects_impossible_replica_counts(self):
        pmap = PlacementMap([0, 1])
        with pytest.raises(ConfigurationError):
            pmap.osds_for_object("rbd", "x", 3)
        with pytest.raises(ConfigurationError):
            pmap.osds_for_object("rbd", "x", 0)

    def test_distribution_roughly_uniform(self):
        pmap = PlacementMap([0, 1, 2])
        names = [f"rbd_data.img.{i:016x}" for i in range(600)]
        counts = pmap.distribution("rbd", names)
        assert sum(counts.values()) == 600
        for count in counts.values():
            assert 100 < count < 320

    def test_primary_is_first(self):
        pmap = PlacementMap([0, 1, 2])
        assert pmap.primary_for_object("rbd", "x") == \
            pmap.osds_for_object("rbd", "x", 3)[0]

    def test_requires_osds_and_pgs(self):
        with pytest.raises(ConfigurationError):
            PlacementMap([])
        with pytest.raises(ConfigurationError):
            PlacementMap([0], pg_count=0)

    def test_weights_shift_distribution(self):
        heavy = PlacementMap([0, 1], weights={0: 10.0, 1: 0.1})
        names = [f"o{i}" for i in range(300)]
        counts = heavy.distribution("rbd", names)
        assert counts[0] > counts[1] * 2


class TestTransactionBuilders:
    def test_fluent_building_and_payload(self):
        txn = (WriteTransaction().create().write(0, b"abc")
               .omap_set_keys({b"k": b"vv"}).set_xattr("a", b"x"))
        assert len(txn) == 4
        assert txn.payload_bytes() == 3 + 3 + 1
        assert bool(txn)

    def test_empty_transaction_is_falsy(self):
        assert not WriteTransaction()
        assert not ReadOperation()

    def test_read_operation_building(self):
        readop = ReadOperation().read(0, 10).stat().get_xattr("a")
        assert len(readop) == 3
        assert isinstance(readop.ops[1], OpStat)


class TestClusterSetup:
    def test_default_cluster_shape(self):
        cluster = Cluster()
        assert len(cluster.osds) == 3
        assert cluster.get_pool("rbd").replica_count == 3

    def test_invalid_configs(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(osd_count=0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(osd_count=2, replica_count=3)

    def test_pool_management(self):
        cluster = Cluster()
        pool = cluster.create_pool("images", replica_count=2)
        assert pool.replica_count == 2
        assert cluster.create_pool("images", replica_count=2) is pool
        with pytest.raises(ConfigurationError):
            cluster.create_pool("images", replica_count=3)
        with pytest.raises(PoolNotFoundError):
            cluster.get_pool("missing")
        with pytest.raises(PoolNotFoundError):
            cluster.client().open_ioctx("missing")

    def test_ec_pool_management(self):
        cluster = Cluster(config=ClusterConfig(osd_count=8))
        pool = cluster.create_pool("ecp", ec=(4, 2))
        assert pool.is_ec and pool.k == 4 and pool.m == 2
        assert pool.replica_count == 6
        assert pool.min_size == 5  # default k+1
        # Idempotent only for the identical shape.
        assert cluster.create_pool("ecp", ec=(4, 2)) is pool

    def test_pool_shape_mismatch_is_rejected(self):
        """Regression: create_pool used to silently hand back the existing
        pool no matter what shape the caller requested."""
        cluster = Cluster(config=ClusterConfig(osd_count=8))
        cluster.create_pool("ecp", ec=(4, 2))
        with pytest.raises(ConfigurationError):
            cluster.create_pool("ecp", ec=(3, 2))  # different profile
        with pytest.raises(ConfigurationError):
            cluster.create_pool("ecp", replica_count=6)  # replicated vs EC
        with pytest.raises(ConfigurationError):
            cluster.create_pool("ecp", ec=(4, 2), min_size=4)  # min_size
        with pytest.raises(ConfigurationError):
            cluster.create_pool("rbd", ec=(4, 2))  # EC vs replicated

    def test_ec_pool_validation(self):
        cluster = Cluster(config=ClusterConfig(osd_count=8))
        with pytest.raises(ConfigurationError):
            cluster.create_pool("wide", ec=(8, 2))  # k+m > OSDs
        with pytest.raises(ConfigurationError):
            cluster.create_pool("ecp", ec=(4, 2), replica_count=5)
        with pytest.raises(ConfigurationError):
            cluster.create_pool("ecp", ec=(4, 2), min_size=3)  # < k
        with pytest.raises(ConfigurationError):
            cluster.create_pool("ecp", ec=(4, 2), min_size=7)  # > k+m
        with pytest.raises(ConfigurationError):
            cluster.create_pool("bad", ec=(1, 2))  # k < 2

    def test_osd_lookup(self):
        cluster = Cluster()
        assert cluster.osd_by_id(1).osd_id == 1
        with pytest.raises(ConfigurationError):
            cluster.osd_by_id(99)

    def test_describe_mentions_pools_and_osds(self):
        text = Cluster().describe()
        assert "3 OSDs" in text and "rbd" in text

    def test_clusters_do_not_share_the_callers_cost_parameters(self):
        """Regression: a cluster wrote its shape into the caller's
        CostParameters, so building a 3-OSD cluster from an 8-OSD
        cluster's parameters made the first one divide its OSD work by 3."""
        params = default_cost_parameters().with_overrides(
            osd_count=5, replica_count=2, sim_mode="events")
        wide = Cluster(config=ClusterConfig(osd_count=8), params=params)
        narrow = Cluster(config=ClusterConfig(osd_count=3), params=params)
        assert (wide.params.osd_count, wide.params.replica_count) == (8, 3)
        assert (narrow.params.osd_count, narrow.params.replica_count) == (3, 3)
        assert wide.params.sim_mode == narrow.params.sim_mode == "events"
        assert (params.osd_count, params.replica_count) == (5, 2)


class TestDataPath:
    def test_write_replicates_to_all_replicas(self, cluster, ioctx):
        txn = WriteTransaction().write(0, b"replicated-data")
        ioctx.operate_write("obj-a", txn)
        holders = [osd for osd in cluster.osds
                   if osd.lookup("rbd", "obj-a") is not None]
        assert len(holders) == 3

    def test_single_replica_pool(self):
        cluster = Cluster(config=ClusterConfig(osd_count=3, replica_count=1))
        ioctx = cluster.client().open_ioctx("rbd")
        ioctx.operate_write("solo", WriteTransaction().write(0, b"x"))
        holders = [osd for osd in cluster.osds if osd.lookup("rbd", "solo")]
        assert len(holders) == 1

    def test_read_returns_written_data(self, ioctx):
        ioctx.operate_write("obj-b", WriteTransaction().write(10, b"hello"))
        result = ioctx.read("obj-b", 10, 5)
        assert result.data == b"hello"

    def test_read_missing_object_raises(self, ioctx):
        with pytest.raises(ObjectNotFoundError):
            ioctx.read("never-created", 0, 10)

    def test_stat_and_exists(self, ioctx):
        assert ioctx.stat("ghost") is None
        assert not ioctx.object_exists("ghost")
        ioctx.operate_write("real", WriteTransaction().write(0, bytes(100)))
        assert ioctx.stat("real") == 100
        assert ioctx.object_exists("real")

    def test_multiple_ops_apply_atomically(self, ioctx):
        txn = (WriteTransaction().write(0, b"data")
               .omap_set_keys({b"iv": b"m" * 16}).set_xattr("enc", b"1"))
        ioctx.operate_write("combo", txn)
        readop = (ReadOperation().read(0, 4)
                  .omap_get_vals_by_keys([b"iv"]).get_xattr("enc").stat())
        result = ioctx.operate_read("combo", readop)
        assert result.results[0].data == b"data"
        assert result.results[1].kv == {b"iv": b"m" * 16}
        assert result.results[2].xattr == b"1"
        assert result.results[3].size == 4

    def test_empty_transaction_rejected(self, ioctx):
        with pytest.raises(TransactionError):
            ioctx.operate_write("empty", WriteTransaction())

    def test_invalid_transaction_leaves_no_state(self, ioctx):
        txn = WriteTransaction().write(0, b"ok").write(-5, b"bad")
        with pytest.raises(TransactionError):
            ioctx.operate_write("atomic-check", txn)
        assert not ioctx.object_exists("atomic-check")

    def test_write_beyond_region_rejected(self, ioctx):
        txn = WriteTransaction().write(10 * 1024 * 1024, b"far away")
        with pytest.raises(TransactionError):
            ioctx.operate_write("too-big", txn, object_size_hint=4 * 1024 * 1024)

    def test_exclusive_create_conflicts(self, ioctx):
        ioctx.operate_write("unique", WriteTransaction().create(exclusive=True)
                            .write(0, b"1"))
        with pytest.raises(TransactionError):
            ioctx.operate_write("unique", WriteTransaction()
                                .create(exclusive=True).write(0, b"2"))

    def test_remove_object(self, ioctx):
        ioctx.operate_write("temp", WriteTransaction().write(0, b"x"))
        ioctx.remove_object("temp")
        assert not ioctx.object_exists("temp")

    def test_omap_rm_keys_and_range(self, ioctx):
        keys = {bytes([i]): b"v" for i in range(10)}
        ioctx.operate_write("omap-obj", WriteTransaction().omap_set_keys(keys))
        ioctx.operate_write("omap-obj", WriteTransaction()
                            .omap_rm_keys([bytes([0])])
                            .omap_rm_range(bytes([5]), bytes([8])))
        result = ioctx.operate_read("omap-obj", ReadOperation()
                                    .omap_get_vals_by_range(b"\x00", b"\xff"))
        assert sorted(result.kv) == [bytes([i]) for i in (1, 2, 3, 4, 8, 9)]

    def test_zero_and_truncate(self, ioctx):
        ioctx.operate_write("zt", WriteTransaction().write(0, b"A" * 8192))
        ioctx.operate_write("zt", WriteTransaction().zero(0, 4096).truncate(6000))
        assert ioctx.read("zt", 0, 10).data == bytes(10)
        assert ioctx.stat("zt") == 6000

    def test_list_objects_with_prefix(self, ioctx):
        ioctx.operate_write("rbd_data.x.1", WriteTransaction().write(0, b"1"))
        ioctx.operate_write("rbd_data.x.2", WriteTransaction().write(0, b"2"))
        ioctx.operate_write("other", WriteTransaction().write(0, b"3"))
        assert ioctx.list_objects("rbd_data.x.") == ["rbd_data.x.1", "rbd_data.x.2"]

    def test_cost_accounting_on_write(self, cluster, ioctx):
        before_net = cluster.ledger.resource(RES_CLIENT_NET)
        ioctx.operate_write("costed", WriteTransaction().write(0, bytes(65536)))
        assert cluster.ledger.resource(RES_CLIENT_NET) > before_net
        assert cluster.ledger.resource(RES_CLUSTER_NET) > 0
        assert cluster.ledger.counter("net.replication_bytes") == 2 * 65536

    def test_receipt_latency_positive_and_ordered(self, ioctx):
        small = ioctx.operate_write("r1", WriteTransaction().write(0, bytes(4096)))
        large = ioctx.operate_write("r2", WriteTransaction().write(0, bytes(1024 * 1024)))
        assert 0 < small.latency_us < large.latency_us


class TestSnapshots:
    def test_clone_preserves_old_data_and_omap(self, ioctx):
        ioctx.operate_write("snapobj", WriteTransaction().write(0, b"version-1")
                            .omap_set_keys({b"iv": b"A" * 16}))
        snap = ioctx.create_self_managed_snap()
        ioctx.set_snap_context(SnapContext(seq=snap, snaps=(snap,)))
        ioctx.operate_write("snapobj", WriteTransaction().write(0, b"version-2")
                            .omap_set_keys({b"iv": b"B" * 16}))

        head = ioctx.operate_read("snapobj", ReadOperation().read(0, 9)
                                  .omap_get_vals_by_keys([b"iv"]))
        assert head.results[0].data == b"version-2"
        assert head.results[1].kv == {b"iv": b"B" * 16}

        ioctx.snap_set_read(snap)
        old = ioctx.operate_read("snapobj", ReadOperation().read(0, 9)
                                 .omap_get_vals_by_keys([b"iv"]))
        assert old.results[0].data == b"version-1"
        assert old.results[1].kv == {b"iv": b"A" * 16}
        ioctx.snap_set_read(None)

    def test_multiple_snapshots_layered(self, ioctx):
        versions = {}
        snaps = {}
        for i in range(3):
            payload = f"state-{i}".encode()
            context = SnapContext(seq=max(snaps.values(), default=0),
                                  snaps=tuple(sorted(snaps.values(), reverse=True)))
            ioctx.set_snap_context(context)
            ioctx.operate_write("multi", WriteTransaction().write(0, payload))
            versions[i] = payload
            snap_id = ioctx.create_self_managed_snap()
            snaps[i] = snap_id
        # Read each snapshot: snapshot i captured state-i.
        for i, snap_id in snaps.items():
            ioctx.set_snap_context(SnapContext(seq=max(snaps.values()),
                                               snaps=tuple(sorted(snaps.values(),
                                                                  reverse=True))))
            ioctx.snap_set_read(snap_id)
            # snapshot taken after writing state-i, but the clone is only
            # materialised by the *next* write; the latest snapshot without a
            # later write falls back to the head.
            data = ioctx.read("multi", 0, 7).data
            assert data == versions[i] or (i == 2 and data == versions[2])
        ioctx.snap_set_read(None)

    def test_snapshot_ids_increase(self, ioctx):
        first = ioctx.create_self_managed_snap()
        second = ioctx.create_self_managed_snap()
        assert second == first + 1
        ioctx.remove_self_managed_snap(first)

    def test_reading_unsnapshotted_object_from_snap_returns_head(self, ioctx):
        ioctx.operate_write("plainobj", WriteTransaction().write(0, b"data"))
        snap = ioctx.create_self_managed_snap()
        ioctx.snap_set_read(snap)
        assert ioctx.read("plainobj", 0, 4).data == b"data"
        ioctx.snap_set_read(None)
