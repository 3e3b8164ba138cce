"""Pool backends: how one pool type lays an object out across its OSDs.

One decision — *n* identical replicas or *k + m* erasure-coded chunks —
is made here and nowhere else, the way Ceph splits ``PGBackend`` into
``ReplicatedBackend`` and ``ECBackend``.  A pool hands out its backend
(:meth:`repro.rados.cluster.Pool.backend`, overridden by ``EcPool``); no
caller asks what kind of pool it is talking to.

:class:`~repro.rados.client.IoCtx` owns the *policy* of a client op (when
the acting set is recomputed, the write quorum, the one retry loop with
its timeout and seeded backoff, client charging, receipts and traces) and
:mod:`repro.rados.recovery` owns peering and the backfill pass loop.  A
backend owns the *layout*: what a write commits on each acting member,
how one read attempt is served, how a stale member is rebuilt and what
deep scrub compares.  An attempt that finds a member dead raises
:class:`~repro.errors.OsdDownError`; turning that into a timeout, a
backoff and another attempt is the caller's business, never a backend's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple)

from .cluster import Cluster, Pool
from .object import CloneInfo, RadosObject
from .osd import OSD
from .transaction import OpResult, ReadOperation, WriteTransaction
from ..errors import (DegradedClusterError, ObjectNotFoundError, OsdDownError)
from ..faults.plan import (STAGE_KILL_PRIMARY_MID_TXN,
                           STAGE_KILL_REPLICA_MID_TXN, osd_kill_due)
from ..obs.names import KIND_BACKFILL
from ..sim.ledger import OpTrace, RES_CLUSTER_NET, RES_OSD_CPU


@dataclass
class BackfillItem:
    """One object that needs pushes: authoritative source -> stale targets."""

    name: str
    source_osd: int
    version: int
    targets: List[int] = field(default_factory=list)


@dataclass
class ReplicaMismatch:
    """One inconsistency found by deep scrub (:meth:`PoolBackend.scrub`)."""

    name: str
    osd_id: int
    reason: str


def pool_object_names(cluster: Cluster, pool: str) -> List[str]:
    """Every object name any OSD has ever held in the pool (union),
    including removed ones — a lagging replica may still need the
    remove propagated to it."""
    names: Set[str] = set()
    for osd in cluster.osds:
        for (obj_pool, name) in osd.objects:
            if obj_pool == pool:
                names.add(name)
    return sorted(names)


class PoolBackend:
    """The layout-specific half of the RADOS client and of recovery."""

    #: what one up-set member holds, for error text
    member = "replica"

    def __init__(self, cluster: Cluster, pool: Pool) -> None:
        self._cluster = cluster
        self._pool = pool

    # -- placement ---------------------------------------------------------------

    def up_set(self, name: str) -> List[int]:
        """CRUSH placement of ``name`` on the current map."""
        return self._cluster.placement.osds_for_object(
            self._pool.name, name, self._pool.replica_count)

    def serving(self, up_set: Sequence[int]) -> List[int]:
        """The members of ``up_set`` that are up and recovered."""
        return [osd_id for osd_id in up_set
                if self._cluster.osd_by_id(osd_id).serving]

    def acting_set(self, name: str) -> List[int]:
        """The acting set: up-set members that can take client traffic."""
        return self.serving(self.up_set(name))

    # -- client operations (one attempt each; IoCtx owns the retry) --------------

    def prepare_write(self, txn: WriteTransaction,
                      object_size_hint: int) -> Any:
        """Validate ``txn`` for this layout; returns the state handed to
        every :meth:`dispatch_write` attempt of this logical write (built
        once, so a retry re-commits the *same* state)."""
        raise NotImplementedError

    def dispatch_write(self, prepared: Any, acting: List[int], name: str,
                       object_size_hint: int, snap_seq: int,
                       snap_ids: Tuple[int, ...],
                       payload: int) -> Tuple[float, float, int]:
        """One commit attempt on every member of ``acting``; returns
        (serial OSD-side µs before the commit, µs until the slowest member
        committed, bytes pushed to each member after the first).  The
        members' trace visits are the last ``len(acting)`` recorded.
        Raises :class:`OsdDownError` when a member dies mid-operation —
        the armed OSD-kill faults fire exactly here."""
        raise NotImplementedError

    def read(self, name: str, readop: ReadOperation,
             snap_id: Optional[int]) -> Tuple[List[OpResult], float]:
        """One read attempt; returns (per-op results, OSD-side µs)."""
        raise NotImplementedError

    def _acting_for_read(self, name: str) -> Tuple[List[int], List[int]]:
        """(up set, acting set) of ``name``; a read needs someone acting."""
        up_set = self.up_set(name)
        acting = self.serving(up_set)
        if not acting:
            raise DegradedClusterError(
                f"read of {self._pool.name}/{name}: no acting {self.member} "
                f"(up set {up_set})")
        return up_set, acting

    def _read_first_holder(self, name: str, readop: ReadOperation,
                           snap_id: Optional[int],
                           degraded_counter: Optional[str] = None,
                           ) -> Tuple[List[OpResult], float]:
        """Serve ``readop`` whole from the first acting member holding
        the object.  A member that never got the object (it was down or
        newly mapped when the object was written) answers "not found" and
        the read fails over — only if *every* member agrees is the object
        genuinely absent (the normal sparse-read signal).
        ``degraded_counter`` is bumped when someone other than the CRUSH
        primary served."""
        pool_name = self._pool.name
        up_set, acting = self._acting_for_read(name)
        for osd_id in acting:
            try:
                reply = self._cluster.osd_by_id(osd_id).execute_read(
                    pool_name, name, readop, snap_id)
            except ObjectNotFoundError:
                continue
            if degraded_counter is not None and osd_id != up_set[0]:
                self._cluster.ledger.count(degraded_counter)
            return reply
        raise ObjectNotFoundError(
            f"object {pool_name}/{name} not found on any acting "
            f"{self.member} {acting}")

    # -- backfill ----------------------------------------------------------------

    def push(self, item: BackfillItem,
             target_id: int) -> Optional[Tuple[int, float]]:
        """Bring ``target_id``'s copy of ``item`` to the authoritative
        version as real traffic (source reads, a throttled transfer, a
        committed transaction on the target).  Returns (payload bytes,
        push latency µs), or ``None`` if it cannot be rebuilt this pass."""
        cluster = self._cluster
        params = cluster.params
        ledger = cluster.ledger
        pool_name = self._pool.name
        target = cluster.osd_by_id(target_id)
        src_obj = cluster.osd_by_id(item.source_osd) \
                         .objects[(pool_name, item.name)]
        if src_obj.exists:
            return self._rebuild(item, target)

        # The authoritative copy is a tombstone: propagate the delete to
        # the lagging member (identical for every layout).
        ledger.busy(RES_OSD_CPU, params.recovery_op_cost_us)
        latency = target.apply_transaction(
            pool_name, item.name, WriteTransaction().remove(),
            object_size_hint=src_obj.region_length
            - target.object_region_reserve)
        tgt_obj = target.objects[(pool_name, item.name)]
        tgt_obj.version = src_obj.version
        tgt_obj.snap_seq_seen = src_obj.snap_seq_seen
        if ledger.trace_ops:
            ledger.record_op_trace(OpTrace(
                kind=KIND_BACKFILL, client_cpu_us=params.recovery_op_cost_us,
                client_net_us=0.0, network_us=params.replication_hop_us,
                visits=ledger.take_osd_visits(), bytes_moved=0))
        return 0, params.recovery_op_cost_us + latency

    def _rebuild(self, item: BackfillItem,
                 target: OSD) -> Optional[Tuple[int, float]]:
        """Read what ``target`` should hold off the survivors and
        :meth:`_commit_push` it."""
        raise NotImplementedError

    def _commit_push(self, target: OSD, ref_obj: RadosObject, body: bytes,
                     omap: Dict[bytes, bytes],
                     xattrs: Iterable[Tuple[str, bytes]],
                     clones: List[CloneInfo], read_us: float,
                     kind: str) -> Tuple[int, float]:
        """Transfer, commit and book one rebuilt member: ``body``,
        ``omap``, ``xattrs`` and ``clones`` are what the target must hold,
        ``ref_obj`` an authoritative survivor's record, ``read_us`` the
        time the source reads took."""
        params = self._cluster.params
        ledger = self._cluster.ledger

        # The payload crosses the backend network at the recovery throttle.
        payload = len(body) + sum(len(k) + len(v) for k, v in omap.items())
        transfer_us = payload / (params.recovery_bandwidth_mbps
                                 * 1024 * 1024) * 1e6
        ledger.busy(RES_CLUSTER_NET, transfer_us)
        ledger.count("net.recovery_bytes", payload)

        # Commit the state on the target as one real transaction: clear any
        # stale OMAP residue, replace the body, reinstate OMAP and xattrs.
        txn = WriteTransaction().omap_rm_range(b"", b"\xff")
        txn.write_full(body)
        if omap:
            txn.omap_set_keys(omap)
        for xattr_name, value in xattrs:
            txn.set_xattr(xattr_name, value)
        hint = ref_obj.region_length - target.object_region_reserve
        write_us = target.apply_transaction(ref_obj.pool, ref_obj.name, txn,
                                            object_size_hint=hint)

        # Bookkeeping the transaction cannot express: snapshot clones move
        # by reference (COW extents), and the member adopts the
        # authoritative version instead of the bump the push just made.
        tgt_obj = target.objects[(ref_obj.pool, ref_obj.name)]
        tgt_obj.clones = clones
        tgt_obj.snap_seq_seen = ref_obj.snap_seq_seen
        tgt_obj.version = ref_obj.version

        if ledger.trace_ops:
            # The source reads + target write recorded one visit each; the
            # transfer rides the network term.  The trace flows through
            # the event engine as ordinary traffic contending with clients.
            ledger.record_op_trace(OpTrace(
                kind=kind, client_cpu_us=params.recovery_op_cost_us,
                client_net_us=0.0,
                network_us=transfer_us + params.replication_hop_us,
                visits=ledger.take_osd_visits(), bytes_moved=payload))
        return payload, (params.recovery_op_cost_us + read_us + transfer_us
                         + params.replication_hop_us + write_us)

    # -- deep scrub --------------------------------------------------------------

    def scrub(self) -> List[ReplicaMismatch]:
        """Compare every object's up-set members against the
        authoritative copy (highest version); returns every mismatch.
        A member that lost the object or holds an older version is flagged
        here; what "equal" means at the right version is the layout's
        (:meth:`_scrub_member`, then :meth:`_scrub_end`)."""
        cluster = self._cluster
        pool_name = self._pool.name
        mismatches: List[ReplicaMismatch] = []
        for name in pool_object_names(cluster, pool_name):
            up_set = self.up_set(name)
            osds = [cluster.osd_by_id(osd_id) for osd_id in up_set]
            objs = [osd.lookup(pool_name, name) for osd in osds]
            held = [pair for pair in zip(osds, objs) if pair[1] is not None]
            if not held:
                continue
            ref_osd, reference = max(held, key=lambda pair: pair[1].version)
            state = self._scrub_begin(ref_osd, reference)
            for osd, obj in zip(osds, objs):
                if obj is None:
                    reason: Optional[str] = f"{self.member} missing"
                elif obj.version != reference.version:
                    reason = f"version {obj.version} != {reference.version}"
                else:
                    reason = self._scrub_member(state, osd, obj)
                if reason is not None:
                    mismatches.append(
                        ReplicaMismatch(name, osd.osd_id, reason))
            mismatches.extend(
                ReplicaMismatch(name, osd_id, reason)
                for osd_id, reason in self._scrub_end(state, up_set))
        return mismatches

    def _scrub_begin(self, ref_osd: OSD, reference: RadosObject) -> Any:
        """Per-object scrub state, built from the authoritative member."""
        raise NotImplementedError

    def _scrub_member(self, state: Any, osd: OSD,
                      obj: RadosObject) -> Optional[str]:
        """Why this member (already at the authoritative version)
        disagrees with the reference, or ``None``."""
        raise NotImplementedError

    def _scrub_end(self, state: Any,
                   up_set: List[int]) -> List[Tuple[int, str]]:
        """Whole-object (osd id, reason) findings once every member was
        seen."""
        return []


class ReplicatedBackend(PoolBackend):
    """*n* identical replicas: every member applies the client's
    transaction as is and any one of them serves a read."""

    def prepare_write(self, txn: WriteTransaction,
                      object_size_hint: int) -> WriteTransaction:
        return txn

    def dispatch_write(self, prepared: WriteTransaction, acting: List[int],
                       name: str, object_size_hint: int, snap_seq: int,
                       snap_ids: Tuple[int, ...],
                       payload: int) -> Tuple[float, float, int]:
        cluster = self._cluster
        params = cluster.params
        ledger = cluster.ledger
        pool_name = self._pool.name
        primary_id = acting[0]
        primary = cluster.osd_by_id(primary_id)
        primary_latency = primary.apply_transaction(
            pool_name, name, prepared, object_size_hint, snap_seq, snap_ids)
        if osd_kill_due(STAGE_KILL_PRIMARY_MID_TXN, primary_id):
            # The primary committed locally, then the daemon died before
            # the op completed: no ack reaches the client, which must
            # retry against the survivors (re-applying is idempotent).
            cluster.mark_osd_down(primary_id)
            raise OsdDownError(
                f"osd.{primary_id} (primary) died mid-transaction")
        replica_latencies = []
        for osd_id in acting[1:]:
            if osd_kill_due(STAGE_KILL_REPLICA_MID_TXN, osd_id):
                cluster.mark_osd_down(osd_id)
            osd = cluster.osd_by_id(osd_id)
            latency = osd.apply_transaction(
                pool_name, name, prepared, object_size_hint, snap_seq,
                snap_ids)
            replica_latencies.append(params.replication_hop_us + latency)
            ledger.busy(RES_CLUSTER_NET, params.cluster_transfer_us(payload))
            ledger.count("net.replication_bytes", payload)
        # The op acks when the slowest acting replica has committed.
        return 0.0, max([primary_latency] + replica_latencies), payload

    def read(self, name: str, readop: ReadOperation,
             snap_id: Optional[int]) -> Tuple[List[OpResult], float]:
        """The primary serves the healthy path; a read served by another
        replica is a *degraded read*, bit-identical to the healthy one
        because replication is synchronous (the failure drill asserts
        it)."""
        return self._read_first_holder(name, readop, snap_id,
                                       "cluster.degraded_reads")

    def _rebuild(self, item: BackfillItem,
                 target: OSD) -> Optional[Tuple[int, float]]:
        params = self._cluster.params
        source = self._cluster.osd_by_id(item.source_osd)
        src_obj = source.objects[(self._pool.name, item.name)]
        # Fixed scan/bookkeeping CPU of one push, half on each end.
        self._cluster.ledger.busy(RES_OSD_CPU, params.recovery_op_cost_us)
        # Read the full object (data + OMAP) off the source — a real read.
        readop = ReadOperation().read(0, src_obj.size) \
                                .omap_get_vals_by_range(b"", b"\xff")
        results, read_us = source.execute_read(src_obj.pool, item.name,
                                               readop, None)
        clones = [CloneInfo(snap_ids=set(c.snap_ids), data=c.data,
                            size=c.size, omap=dict(c.omap),
                            xattrs=dict(c.xattrs))
                  for c in src_obj.clones]
        return self._commit_push(target, src_obj, results[0].data,
                                 results[1].kv,
                                 sorted(src_obj.xattrs.items()), clones,
                                 read_us, KIND_BACKFILL)

    def _scrub_begin(self, ref_osd: OSD, reference: RadosObject,
                     ) -> Tuple[RadosObject, bytes, Dict[bytes, bytes]]:
        return (reference, ref_osd._read_head_bytes(reference),
                ref_osd._snapshot_omap(reference))

    def _scrub_member(self,
                      state: Tuple[RadosObject, bytes, Dict[bytes, bytes]],
                      osd: OSD, obj: RadosObject) -> Optional[str]:
        reference, ref_bytes, ref_omap = state
        if obj.size != reference.size:
            return f"size {obj.size} != {reference.size}"
        if osd._read_head_bytes(obj) != ref_bytes:
            return "data bytes differ"
        if osd._snapshot_omap(obj) != ref_omap:
            return "OMAP differs"
        if obj.xattrs != reference.xattrs:
            return "xattrs differ"
        return None
