"""Object Storage Device (OSD) — one storage daemon with its devices.

Each OSD owns:

* a data device (:class:`~repro.blockdev.SimulatedDisk`) holding object
  bodies, carved into per-object regions by a bump allocator,
* a metadata device backing the OSD-wide LSM store that serves OMAP,
* the per-object bookkeeping (:class:`~repro.rados.object.RadosObject`).

Transactions are applied atomically: the OSD validates every op first and
only then mutates state, so a malformed op cannot leave a partial write —
this mirrors the RADOS guarantee the paper relies on for data/IV
consistency.  Write ops within a transaction are charged serially (they
commit as one journaled unit); read ops within a read operation are charged
as the *maximum* of their latencies (the backend issues them in parallel,
which is how the paper explains near-baseline random-read performance).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .object import CloneInfo, RadosObject
from .transaction import (OpCreate, OpGetXattr, OpOmapGetValsByKeys,
                          OpOmapGetValsByRange, OpOmapRmKeys, OpOmapRmRange,
                          OpOmapSetKeys, OpRead, OpRemove, OpResult,
                          OpSetXattr, OpStat, OpTruncate, OpWrite,
                          OpWriteFull, OpZero, ReadOperation,
                          WriteTransaction)
from ..blockdev.device import SimulatedDisk
from ..errors import ObjectNotFoundError, OsdDownError, TransactionError
from ..faults.plan import STAGE_TORN_OSD_WRITE, ClientCrash, torn_op_count
from ..kvstore.lsm import LsmStore
from ..sim.costparams import CostParameters
from ..sim.ledger import (CostLedger, OsdVisit, RES_OSD_CPU, RES_OSD_DEVICE)
from ..util import GIB, round_up


class OSD:
    """A single simulated object storage daemon."""

    def __init__(self, osd_id: int, params: Optional[CostParameters] = None,
                 ledger: Optional[CostLedger] = None,
                 data_capacity: int = 64 * GIB,
                 metadata_capacity: int = 8 * GIB,
                 object_region_reserve: int = 64 * 1024) -> None:
        self.osd_id = osd_id
        self.params = params or CostParameters()
        self.ledger = ledger
        self.data_device = SimulatedDisk(f"osd.{osd_id}/data", data_capacity,
                                         self.params, ledger)
        self.metadata_device = SimulatedDisk(f"osd.{osd_id}/meta",
                                             metadata_capacity, self.params,
                                             ledger)
        self.omap_store = LsmStore(f"osd.{osd_id}/omap", self.metadata_device,
                                   self.params, ledger)
        self.objects: Dict[Tuple[str, str], RadosObject] = {}
        #: extra device space reserved per object beyond the nominal object
        #: size, so layouts that append metadata (object-end, unaligned) fit.
        self.object_region_reserve = object_region_reserve
        self._next_region_offset = 0
        self.transactions_applied = 0
        self.read_ops_served = 0
        #: process liveness: a down OSD rejects every dispatch with
        #: :class:`~repro.errors.OsdDownError`.  Its devices (and thus
        #: every committed object) survive the death — killing a daemon
        #: does not erase its disks.
        self.up = True
        #: set while the OSD is back up but has not finished backfill: it
        #: must not serve reads (its objects may be stale) and writes skip
        #: it until :mod:`repro.rados.recovery` declares it consistent.
        self.recovering = False

    # ----------------------------------------------------------------- liveness

    @property
    def serving(self) -> bool:
        """True when the OSD can take client traffic (up and consistent)."""
        return self.up and not self.recovering

    def crash(self) -> None:
        """Kill the daemon process.  Durable state survives on its devices."""
        self.up = False

    def restart(self) -> None:
        """Bring the daemon back up.  The caller decides whether it must
        recover first (it must, whenever writes happened while it was down
        — :meth:`~repro.rados.cluster.Cluster.restart_osd` is the safe
        entry point that always routes through recovery)."""
        self.up = True

    def _require_up(self) -> None:
        if not self.up:
            raise OsdDownError(f"osd.{self.osd_id} is down")

    # ------------------------------------------------------------------ utils

    def _charge_cpu(self, microseconds: float) -> None:
        if self.ledger is not None:
            self.ledger.busy(RES_OSD_CPU, microseconds)

    # -- event-engine service-time hooks ---------------------------------------

    def _occupancy_now(self) -> float:
        """Total OSD-side busy time charged to the shared ledger so far."""
        if self.ledger is None:
            return 0.0
        return (self.ledger.resource(RES_OSD_DEVICE)
                + self.ledger.resource(RES_OSD_CPU))

    def _record_visit(self, occupancy_before: float, latency_us: float) -> None:
        """Report this call's service demand to the event-engine trace.

        ``service`` is the occupancy this OSD just charged (CPU busy plus
        device channel time — what a transaction shard is held for);
        ``latency_us`` is the critical path until the local ack.  The OSD
        layer runs single-threaded, so the ledger delta during the call is
        exactly this OSD's demand.
        """
        if self.ledger is None or not self.ledger.trace_ops:
            return
        service = self._occupancy_now() - occupancy_before
        self.ledger.record_osd_visit(OsdVisit(
            osd_id=self.osd_id, service_us=max(0.0, service),
            latency_us=latency_us))

    def _op_cpu_cost(self, payload_bytes: int, op_count: int = 1) -> float:
        params = self.params
        return (params.osd_op_cost_us
                + params.osd_subop_cost_us * op_count
                + params.osd_byte_cost_us_per_kib * payload_bytes / 1024.0)

    def _allocate_region(self, length: int) -> int:
        offset = self._next_region_offset
        self._next_region_offset = round_up(
            offset + length, self.params.sector_size)
        if self._next_region_offset > self.data_device.capacity_bytes:
            raise TransactionError(
                f"osd.{self.osd_id} data device is full "
                f"({self.data_device.capacity_bytes} bytes)")
        return offset

    def _get_or_create(self, pool: str, name: str, object_size_hint: int,
                       create: bool) -> RadosObject:
        key = (pool, name)
        obj = self.objects.get(key)
        if obj is not None and obj.exists:
            return obj
        if not create:
            raise ObjectNotFoundError(
                f"object {pool}/{name} not found on osd.{self.osd_id}")
        region_length = object_size_hint + self.object_region_reserve
        obj = RadosObject(name=name, pool=pool,
                          region_offset=self._allocate_region(region_length),
                          region_length=region_length)
        self.objects[key] = obj
        if self.ledger is not None:
            self.ledger.count("rados.objects_created")
        return obj

    def lookup(self, pool: str, name: str) -> Optional[RadosObject]:
        """Return the object replica if it exists on this OSD."""
        obj = self.objects.get((pool, name))
        if obj is not None and obj.exists:
            return obj
        return None

    # --------------------------------------------------------------- snapshots

    def _read_head_bytes(self, obj: RadosObject) -> bytes:
        if obj.size == 0:
            return b""
        # Snapshot preservation is bookkeeping, not an IO on the data path
        # (COW in BlueStore clones extents by reference).
        return self.data_device.peek(obj.region_offset, obj.size)

    def _snapshot_omap(self, obj: RadosObject) -> Dict[bytes, bytes]:
        prefix = obj.omap_prefix()
        saved = self.omap_store.ledger
        self.omap_store.ledger = None
        try:
            result = self.omap_store.scan(prefix, prefix + b"\xff")
        finally:
            self.omap_store.ledger = saved
        return {key[len(prefix):]: value for key, value in result.items}

    def _maybe_clone(self, obj: RadosObject, snap_seq: int,
                     snap_ids: Tuple[int, ...]) -> None:
        if snap_seq <= obj.snap_seq_seen or not snap_ids:
            if snap_seq > obj.snap_seq_seen:
                obj.snap_seq_seen = snap_seq
            return
        pending = {sid for sid in snap_ids if sid > obj.snap_seq_seen}
        if pending:
            clone = CloneInfo(snap_ids=pending,
                              data=self._read_head_bytes(obj),
                              size=obj.size,
                              omap=self._snapshot_omap(obj),
                              xattrs=dict(obj.xattrs))
            obj.clones.append(clone)
            if self.ledger is not None:
                self.ledger.count("rados.clones_created")
        obj.snap_seq_seen = snap_seq

    # -------------------------------------------------------------- write path

    def apply_transaction(self, pool: str, name: str, txn: WriteTransaction,
                          object_size_hint: int, snap_seq: int = 0,
                          snap_ids: Tuple[int, ...] = ()) -> float:
        """Apply all ops atomically; returns the OSD-local latency in µs."""
        self._require_up()
        if not txn:
            raise TransactionError("empty transaction")
        self._validate(pool, name, txn, object_size_hint)
        occupancy_before = self._occupancy_now()

        creates = any(isinstance(op, (OpCreate, OpWrite, OpWriteFull,
                                      OpSetXattr, OpOmapSetKeys, OpTruncate,
                                      OpZero))
                      for op in txn.ops)
        obj = self._get_or_create(pool, name, object_size_hint, create=creates)
        self._maybe_clone(obj, snap_seq, snap_ids)

        latency = 0.0
        cpu = self._op_cpu_cost(txn.payload_bytes(), len(txn.ops))
        self._charge_cpu(cpu)
        latency += cpu
        # Fault hook: an armed torn-osd-write applies only a strict prefix
        # of the ops and dies, modelling the loss of transaction atomicity
        # the crash harness must detect (see repro.faults).
        keep = torn_op_count(len(txn.ops))
        for index, op in enumerate(txn.ops):
            if keep is not None and index >= keep:
                raise ClientCrash(STAGE_TORN_OSD_WRITE,
                                  f"applied {keep}/{len(txn.ops)} ops")
            latency += self._apply_op(obj, op)
        obj.version += 1
        self.transactions_applied += 1
        if self.ledger is not None:
            self.ledger.count("rados.transactions")
            self.ledger.count("rados.write_ops", len(txn.ops))
            # Per-batch accounting: a transaction carrying several client
            # extents amortizes its fixed cost (osd_op_cost_us, one network
            # round trip, one journal commit) over all of them; record how
            # much batching actually reaches the OSD so the engine's effect
            # is visible in the ledger.
            if txn.client_extents is not None and txn.client_extents > 1:
                self.ledger.count("rados.multi_extent_transactions")
                self.ledger.count("rados.batched_extents", txn.client_extents)
        self._record_visit(occupancy_before, latency)
        return latency

    def _validate(self, pool: str, name: str, txn: WriteTransaction,
                  object_size_hint: int) -> None:
        region_limit = object_size_hint + self.object_region_reserve
        for op in txn.ops:
            if isinstance(op, OpWrite):
                if op.offset < 0:
                    raise TransactionError("negative write offset")
                if op.offset + len(op.data) > region_limit:
                    raise TransactionError(
                        f"write [{op.offset}, {op.offset + len(op.data)}) "
                        f"exceeds object region {region_limit}")
            elif isinstance(op, OpZero) and (op.offset < 0 or op.length < 0):
                raise TransactionError("negative zero range")
            elif isinstance(op, OpTruncate) and op.size < 0:
                raise TransactionError("negative truncate size")
            elif isinstance(op, OpCreate) and op.exclusive:
                existing = self.objects.get((pool, name))
                if existing is not None and existing.exists:
                    raise TransactionError(
                        f"object {pool}/{name} already exists (exclusive create)")

    def _apply_op(self, obj: RadosObject, op: object) -> float:
        if isinstance(op, OpCreate):
            return 0.0
        if isinstance(op, OpWrite):
            result = self.data_device.write(obj.region_offset + op.offset,
                                            op.data)
            obj.size = max(obj.size, op.offset + len(op.data))
            return result.latency_us
        if isinstance(op, OpWriteFull):
            result = self.data_device.write(obj.region_offset, op.data)
            obj.size = len(op.data)
            return result.latency_us
        if isinstance(op, OpZero):
            result = self.data_device.discard(obj.region_offset + op.offset,
                                              op.length)
            return result.latency_us
        if isinstance(op, OpTruncate):
            obj.size = op.size
            return 0.0
        if isinstance(op, OpRemove):
            obj.exists = False
            obj.size = 0
            prefix = obj.omap_prefix()
            return self.omap_store.delete_range(prefix, prefix + b"\xff").latency_us
        if isinstance(op, OpSetXattr):
            obj.xattrs[op.name] = op.value
            return 1.0
        if isinstance(op, OpOmapSetKeys):
            items = [(obj.omap_key(k), v) for k, v in op.values]
            return self.omap_store.put_batch(items).latency_us
        if isinstance(op, OpOmapRmKeys):
            items = [(obj.omap_key(k), None) for k in op.keys]
            return self.omap_store.put_batch(items).latency_us
        if isinstance(op, OpOmapRmRange):
            return self.omap_store.delete_range(
                obj.omap_key(op.start), obj.omap_key(op.end)).latency_us
        raise TransactionError(f"unknown write op {op!r}")

    # --------------------------------------------------------------- read path

    def execute_read(self, pool: str, name: str, readop: ReadOperation,
                     snap_id: Optional[int] = None) -> Tuple[List[OpResult], float]:
        """Execute a read operation; returns per-op results and latency in µs."""
        self._require_up()
        obj = self.lookup(pool, name)
        if obj is None:
            raise ObjectNotFoundError(
                f"object {pool}/{name} not found on osd.{self.osd_id}")
        clone = obj.clone_for_snap(snap_id) if snap_id is not None else None
        occupancy_before = self._occupancy_now()

        results: List[OpResult] = []
        latencies: List[float] = []
        response_bytes = 0
        for op in readop.ops:
            result, latency = self._execute_read_op(obj, clone, op)
            results.append(result)
            latencies.append(latency)
            response_bytes += len(result.data)
            response_bytes += sum(len(k) + len(v) for k, v in result.kv.items())
        cpu = self._op_cpu_cost(response_bytes, len(readop.ops))
        self._charge_cpu(cpu)
        self.read_ops_served += 1
        if self.ledger is not None:
            self.ledger.count("rados.read_ops", len(readop.ops))
        # Reads inside one operation proceed in parallel on the backend.
        latency = cpu + (max(latencies) if latencies else 0.0)
        self._record_visit(occupancy_before, latency)
        return results, latency

    def _execute_read_op(self, obj: RadosObject, clone: Optional[CloneInfo],
                         op: object) -> Tuple[OpResult, float]:
        if isinstance(op, OpRead):
            if clone is not None:
                data = clone.data[op.offset:op.offset + op.length]
                if len(data) < op.length:
                    data = data + bytes(op.length - len(data))
                # Clone reads still touch the device (the clone's extents).
                result = self.data_device.read(obj.region_offset + op.offset,
                                               op.length)
                return OpResult(data=data), result.latency_us
            length = op.length
            result = self.data_device.read(obj.region_offset + op.offset, length)
            return OpResult(data=result.data), result.latency_us
        if isinstance(op, OpOmapGetValsByKeys):
            if clone is not None:
                kv = {k: clone.omap[k] for k in op.keys if k in clone.omap}
                return OpResult(kv=kv), self.params.omap_op_cost_us
            kv_result = self.omap_store.get_many([obj.omap_key(k) for k in op.keys])
            prefix = obj.omap_prefix()
            kv = {k[len(prefix):]: v for k, v in kv_result.items}
            return OpResult(kv=kv), kv_result.latency_us
        if isinstance(op, OpOmapGetValsByRange):
            if clone is not None:
                kv = {k: v for k, v in clone.omap.items()
                      if op.start <= k < op.end}
                return OpResult(kv=kv), self.params.omap_op_cost_us
            kv_result = self.omap_store.scan(obj.omap_key(op.start),
                                             obj.omap_key(op.end))
            prefix = obj.omap_prefix()
            kv = {k[len(prefix):]: v for k, v in kv_result.items}
            return OpResult(kv=kv), kv_result.latency_us
        if isinstance(op, OpGetXattr):
            source = clone.xattrs if clone is not None else obj.xattrs
            return OpResult(xattr=source.get(op.name)), 1.0
        if isinstance(op, OpStat):
            size = clone.size if clone is not None else obj.size
            return OpResult(size=size), 1.0
        raise TransactionError(f"unknown read op {op!r}")

    # ------------------------------------------------------------------ summary

    def object_count(self) -> int:
        """Number of live object replicas on this OSD."""
        return sum(1 for obj in self.objects.values() if obj.exists)

    def used_bytes(self) -> int:
        """Bytes of backing storage allocated on the data device."""
        return self.data_device.used_bytes()
