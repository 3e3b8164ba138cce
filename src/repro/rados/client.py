"""Client-side access to the simulated cluster (librados equivalent).

The :class:`RadosClient` / :class:`IoCtx` pair mirrors the librados API
surface libRBD uses: per-pool IO contexts, atomic write transactions, read
operations, object listing and self-managed snapshots.  Every call charges
the client NIC/CPU and backend-network resources and returns an
:class:`~repro.sim.ledger.OpReceipt` carrying the critical-path latency, so
layers above can aggregate per-image-IO latency for the queue-depth bound.

Failure handling
----------------
Dispatch is robust against OSD death (the cluster's failure lifecycle,
:mod:`repro.rados.cluster`).  The policy below is written once, here;
what one attempt does on each OSD is the pool backend's
(:mod:`repro.rados.backend`: replicated or erasure-coded):

* every operation targets the object's **acting set** — the CRUSH up set
  filtered to OSDs that are up and recovered — recomputed on each attempt
  so a mid-operation kill is noticed immediately;
* a dispatch that hits a dead OSD costs one per-op timeout
  (``osd_timeout_us``) and is retried under **bounded exponential backoff
  with seeded jitter** (``retry_backoff_*``, deterministic per IoCtx);
* **reads fail over** down the acting set — a degraded read served by a
  surviving replica returns bytes identical to the primary's (replication
  is synchronous), so the encrypted path decrypts the same plaintext;
* **writes need a quorum**: at least ``pool.min_size`` acting replicas,
  else :class:`~repro.errors.DegradedClusterError` — the only failure
  callers above the client ever see (the stack's EIO).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .cluster import Cluster, Pool
from .transaction import OpResult, ReadOperation, WriteTransaction
from ..errors import DegradedClusterError, ObjectNotFoundError, OsdDownError
from ..obs.names import KIND_READ, KIND_WRITE
from ..sim.ledger import OpReceipt, OpTrace, RES_CLIENT_CPU, RES_CLIENT_NET


@dataclass(frozen=True)
class SnapContext:
    """Snapshot context attached to writes (sequence + existing snap ids)."""

    seq: int = 0
    snaps: Tuple[int, ...] = ()

    @classmethod
    def empty(cls) -> "SnapContext":
        """A context representing "no snapshots exist"."""
        return cls(0, ())


@dataclass
class ReadResult:
    """Results of a :class:`ReadOperation` plus its cost receipt."""

    results: List[OpResult] = field(default_factory=list)
    receipt: OpReceipt = field(default_factory=OpReceipt)

    @property
    def data(self) -> bytes:
        """Convenience: the payload of the first extent read."""
        for result in self.results:
            if result.data:
                return result.data
        return b""

    @property
    def kv(self) -> Dict[bytes, bytes]:
        """Convenience: merged key/value results across ops."""
        merged: Dict[bytes, bytes] = {}
        for result in self.results:
            merged.update(result.kv)
        return merged


class RadosClient:
    """Client handle: opens IO contexts on pools."""

    def __init__(self, cluster: Cluster) -> None:
        self._cluster = cluster

    @property
    def cluster(self) -> Cluster:
        """The cluster this client talks to."""
        return self._cluster

    def open_ioctx(self, pool_name: str) -> "IoCtx":
        """Open an IO context for a pool (raises if the pool is missing)."""
        pool = self._cluster.get_pool(pool_name)
        return IoCtx(self._cluster, pool)


class IoCtx:
    """Per-pool IO context."""

    def __init__(self, cluster: Cluster, pool: Pool) -> None:
        self._cluster = cluster
        self._pool = pool
        self._snap_context = SnapContext.empty()
        self._read_snap: Optional[int] = None
        # Deterministic backoff jitter: seeded per pool so simulated runs
        # (and their latency percentiles) are bit-reproducible.
        self._retry_rng = random.Random(f"rados-retry/{pool.name}")
        #: everything that depends on how the pool lays objects out
        self._backend = pool.backend(cluster)

    # -- snapshot plumbing -------------------------------------------------------

    @property
    def pool_name(self) -> str:
        """Name of the pool this context addresses."""
        return self._pool.name

    @property
    def cluster(self) -> Cluster:
        """The cluster this context belongs to (cost parameters, ledger)."""
        return self._cluster

    def set_snap_context(self, context: SnapContext) -> None:
        """Attach a snapshot context to subsequent writes."""
        self._snap_context = context

    def snap_set_read(self, snap_id: Optional[int]) -> None:
        """Read from a snapshot id (``None`` reads the head)."""
        self._read_snap = snap_id

    @property
    def read_snap(self) -> Optional[int]:
        """Snapshot id reads are currently routed to (``None`` = head)."""
        return self._read_snap

    def create_self_managed_snap(self) -> int:
        """Allocate a new snapshot id from the pool."""
        return self._pool.new_snapshot_id()

    def remove_self_managed_snap(self, snap_id: int) -> None:
        """Release a snapshot id."""
        self._pool.remove_snapshot_id(snap_id)

    # -- helpers --------------------------------------------------------------------

    def _backoff_us(self, failed_attempts: int) -> float:
        """Bounded exponential backoff with seeded jitter (in [50%, 100%]
        of the nominal step, so retries never synchronize)."""
        params = self._cluster.params
        step = min(params.retry_backoff_base_us * (2 ** (failed_attempts - 1)),
                   params.retry_backoff_cap_us)
        return step * (0.5 + 0.5 * self._retry_rng.random())

    def _charge_client(self, payload_bytes: int,
                       response_bytes: int = 0) -> Tuple[float, float]:
        """Charge client-side costs; returns (cpu µs, NIC µs) separately so
        the event engine can queue them on distinct client resources."""
        params = self._cluster.params
        ledger = self._cluster.ledger
        cpu = (params.client_op_cost_us
               + params.osd_byte_cost_us_per_kib * payload_bytes / 1024.0)
        net = params.client_transfer_us(payload_bytes + response_bytes)
        ledger.busy(RES_CLIENT_CPU, cpu)
        ledger.busy(RES_CLIENT_NET, net)
        ledger.count("net.client_bytes", payload_bytes + response_bytes)
        return cpu, net

    # -- write path -------------------------------------------------------------------

    def operate_write(self, name: str, txn: WriteTransaction,
                      object_size_hint: int = 4 * 1024 * 1024) -> OpReceipt:
        """Apply a transaction to every acting member of ``name`` atomically.

        Retries around mid-operation OSD death with timeout + backoff;
        succeeds once every member of the (possibly shrunken) acting set
        committed, provided the set meets the pool's ``min_size`` quorum.
        What each member commits is the pool backend's business.
        """
        params = self._cluster.params
        ledger = self._cluster.ledger
        pool = self._pool
        backend = self._backend
        payload = txn.payload_bytes()

        client_cpu_us, client_net_us = self._charge_client(payload)
        client_us = client_cpu_us + client_net_us
        snap_seq = self._snap_context.seq
        snap_ids = self._snap_context.snaps
        prepared = backend.prepare_write(txn, object_size_hint)

        penalty_us = 0.0
        last_error: Optional[OsdDownError] = None
        for attempt in range(1, params.retry_max_attempts + 1):
            if attempt > 1:
                penalty_us += self._backoff_us(attempt - 1)
                ledger.count("cluster.write_retries")
            acting = backend.acting_set(name)
            if len(acting) < min(pool.min_size, pool.replica_count):
                raise DegradedClusterError(
                    f"write to {pool.name}/{name}: acting set "
                    f"{acting} is below the pool quorum "
                    f"(min_size={pool.min_size})")
            if ledger.trace_ops:
                # A failed attempt may have left partial member visits.
                ledger.take_osd_visits()
            try:
                prepare_us, commit_us, push_bytes = backend.dispatch_write(
                    prepared, acting, name, object_size_hint, snap_seq,
                    snap_ids, payload)
            except OsdDownError as exc:
                # One per-op timeout burned discovering the death; the
                # next attempt recomputes the acting set around it.
                penalty_us += params.osd_timeout_us
                ledger.count("cluster.osd_dispatch_timeouts")
                last_error = exc
                continue
            if len(acting) < pool.replica_count:
                ledger.count("cluster.degraded_writes")
            latency = (client_us + params.network_round_trip_us
                       + prepare_us + commit_us + penalty_us)
            ledger.count("rados.client_write_ops")
            if ledger.trace_ops:
                # The OSD layer recorded one visit per OSD touched; the
                # last len(acting) are the commits in dispatch order
                # (anything earlier is the backend's own preparatory
                # read).  Annotate the members after the first with their
                # backend-network demands for the event engine.  Retry
                # stalls ride the network latency term.
                visits = ledger.take_osd_visits()
                push_us = params.cluster_transfer_us(push_bytes)
                for visit in visits[len(visits) - len(acting) + 1:]:
                    visit.hop_us = params.replication_hop_us
                    visit.push_us = push_us
                ledger.record_op_trace(OpTrace(
                    kind=KIND_WRITE, client_cpu_us=client_cpu_us,
                    client_net_us=client_net_us,
                    network_us=params.network_round_trip_us + penalty_us,
                    visits=visits, bytes_moved=payload,
                    retries=attempt - 1))
            return OpReceipt(latency_us=latency, bytes_moved=payload)
        raise DegradedClusterError(
            f"write to {pool.name}/{name} failed after "
            f"{params.retry_max_attempts} attempts") from last_error

    def remove_object(self, name: str) -> OpReceipt:
        """Delete an object on every replica."""
        txn = WriteTransaction().remove()
        return self.operate_write(name, txn)

    # -- read path ---------------------------------------------------------------------

    def operate_read(self, name: str, readop: ReadOperation) -> ReadResult:
        """Execute a read operation against the acting set.

        The pool backend serves one attempt (failing over through the
        acting set; a *degraded read* is bit-identical to the healthy
        one).  An attempt that finds a member dead costs one timeout and
        is retried under backoff.  The client gives up with
        :class:`~repro.errors.ObjectNotFoundError` if every acting member
        answered "no such object" (the normal sparse-read signal) and
        :class:`~repro.errors.DegradedClusterError` if too few members
        are reachable or the retries run out.
        """
        params = self._cluster.params
        ledger = self._cluster.ledger
        penalty_us = 0.0
        last_down: Optional[OsdDownError] = None
        for attempt in range(1, params.retry_max_attempts + 1):
            if attempt > 1:
                penalty_us += self._backoff_us(attempt - 1)
                ledger.count("cluster.read_retries")
            try:
                results, osd_latency = self._backend.read(name, readop,
                                                          self._read_snap)
            except OsdDownError as exc:
                penalty_us += params.osd_timeout_us
                ledger.count("cluster.osd_dispatch_timeouts")
                last_down = exc
                continue
            return self._finish_read(results, osd_latency, penalty_us,
                                     retries=attempt - 1)
        raise DegradedClusterError(
            f"read of {self._pool.name}/{name} failed after "
            f"{params.retry_max_attempts} attempts") from last_down

    def _finish_read(self, results: List[OpResult], osd_latency: float,
                     penalty_us: float, retries: int = 0) -> ReadResult:
        params = self._cluster.params
        ledger = self._cluster.ledger
        response_bytes = 0
        for result in results:
            response_bytes += len(result.data)
            response_bytes += sum(len(k) + len(v) for k, v in result.kv.items())
        client_cpu_us, client_net_us = self._charge_client(0, response_bytes)
        latency = (client_cpu_us + client_net_us
                   + params.network_round_trip_us + osd_latency + penalty_us)
        ledger.count("rados.client_read_ops")
        if ledger.trace_ops:
            ledger.record_op_trace(OpTrace(
                kind=KIND_READ, client_cpu_us=client_cpu_us,
                client_net_us=client_net_us,
                network_us=params.network_round_trip_us + penalty_us,
                visits=ledger.take_osd_visits(),
                bytes_moved=response_bytes, retries=retries))
        receipt = OpReceipt(latency_us=latency, bytes_moved=response_bytes)
        return ReadResult(results=results, receipt=receipt)

    def read(self, name: str, offset: int, length: int) -> ReadResult:
        """Convenience single-extent read."""
        return self.operate_read(name, ReadOperation().read(offset, length))

    def stat(self, name: str) -> Optional[int]:
        """Return the object size, or ``None`` if the object does not exist."""
        try:
            result = self.operate_read(name, ReadOperation().stat())
        except ObjectNotFoundError:
            return None
        return result.results[0].size

    def object_exists(self, name: str) -> bool:
        """True if the object exists on any acting replica."""
        return self.stat(name) is not None

    def list_objects(self, prefix: str = "") -> List[str]:
        """List object names in the pool (union over all OSDs)."""
        names = set()
        for osd in self._cluster.osds:
            for (pool, name), obj in osd.objects.items():
                if pool == self._pool.name and obj.exists and name.startswith(prefix):
                    names.add(name)
        return sorted(names)
