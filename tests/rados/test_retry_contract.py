"""One retry contract, both pool backends.

``IoCtx`` runs one write loop and one read loop; the replicated and the
erasure-coded backend each supply a single attempt.  A mid-transaction
OSD kill must therefore cost exactly the same on either pool type: one
burned timeout, one seeded backoff step, one counted retry, one
``OpTrace.retries`` — and a quorum loss is the same typed error.
"""

import pytest

from repro.errors import DegradedClusterError
from repro.faults.plan import (STAGE_KILL_EC_SHARD_MID_TXN,
                               STAGE_KILL_PRIMARY_MID_TXN, OsdFaultPlan,
                               inject_osd_fault)
from repro.rados import (Cluster, ClusterConfig, ReadOperation,
                         WriteTransaction)

POOLS = {
    "replica-3": (None, STAGE_KILL_PRIMARY_MID_TXN),
    "ec-4+2": ((4, 2), STAGE_KILL_EC_SHARD_MID_TXN),
}
PAYLOAD = bytes(range(256)) * 16


def _open(ec):
    cluster = Cluster(ClusterConfig(osd_count=12, replica_count=3,
                                    min_write_replicas=2))
    pool = "rbd"
    if ec is not None:
        pool = "ec"
        cluster.create_pool(pool, ec=ec)
    cluster.ledger.trace_ops = True
    ioctx = cluster.client().open_ioctx(pool)
    # The object exists everywhere first, so the measured write is an
    # overwrite whose per-OSD cost does not depend on who applies it.
    ioctx.operate_write("obj", WriteTransaction().write_full(PAYLOAD))
    return cluster, ioctx, pool


def _overwrite(ioctx):
    return ioctx.operate_write("obj", WriteTransaction().write_full(PAYLOAD))


@pytest.mark.parametrize("pool_kind", sorted(POOLS))
class TestRetryContract:
    def test_mid_transaction_kill_costs_one_retry(self, pool_kind):
        ec, stage = POOLS[pool_kind]
        _healthy_cluster, healthy_ioctx, _pool = _open(ec)
        healthy = _overwrite(healthy_ioctx)

        cluster, ioctx, pool = _open(ec)
        ledger, params = cluster.ledger, cluster.params
        ledger.take_open_traces()
        plan = OsdFaultPlan(stage=stage, hit=1)
        with inject_osd_fault(plan):
            receipt = _overwrite(ioctx)
        assert plan.fired
        assert plan.victim == cluster.up_set(pool, "obj")[0]
        assert not cluster.osd_by_id(plan.victim).up

        assert ledger.counter("cluster.write_retries") == 1
        assert ledger.counter("cluster.osd_dispatch_timeouts") == 1
        assert ledger.counter("cluster.degraded_writes") == 1
        stall = receipt.latency_us - healthy.latency_us - params.osd_timeout_us
        base = params.retry_backoff_base_us
        assert 0.5 * base - 1e-6 <= stall <= base + 1e-6
        write_trace, = ledger.take_open_traces()
        assert write_trace.retries == 1
        # Only the successful attempt's commits are replayed.
        survivors = cluster.acting_set(pool, "obj")
        assert [v.osd_id for v in write_trace.visits] == survivors

        # The read that follows is degraded, not retried, and exact.
        result = ioctx.operate_read("obj",
                                    ReadOperation().read(0, len(PAYLOAD)))
        assert result.data == PAYLOAD
        assert ledger.counter("cluster.read_retries") == 0
        assert ledger.counter("cluster.osd_dispatch_timeouts") == 1
        read_trace, = ledger.take_open_traces()
        assert read_trace.retries == 0

    def test_acting_set_below_min_size_is_degraded_error(self, pool_kind):
        ec, _stage = POOLS[pool_kind]
        cluster, ioctx, pool = _open(ec)
        pool_obj = cluster.get_pool(pool)
        up_set = cluster.up_set(pool, "obj")
        for osd_id in up_set[:len(up_set) - pool_obj.min_size + 1]:
            cluster.mark_osd_down(osd_id)
        with pytest.raises(DegradedClusterError):
            _overwrite(ioctx)
        # A quorum failure is not a retry: nothing was dispatched.
        assert cluster.ledger.counter("cluster.write_retries") == 0
        assert cluster.ledger.counter("cluster.osd_dispatch_timeouts") == 0
