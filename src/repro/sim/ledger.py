"""Cost ledger: the accounting record every simulated component writes to.

A :class:`CostLedger` accumulates two kinds of information:

* **counters** — physical work items (device sectors written, OMAP keys
  touched, read-modify-write turns, network bytes ...).  These are what the
  paper's §3.3 reasons about analytically and they are reported verbatim in
  the benchmark output.
* **resource busy time** — microseconds of busy time attributed to named
  resources (``osd.device``, ``osd.cpu``, ``client.net`` ...), from which
  the performance model derives throughput.

Per-IO critical-path latency is returned separately via :class:`OpReceipt`
objects so the workload runner can apply a queue-depth (Little's law)
bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from ..errors import ConfigurationError


# Resource names used across the stack.
RES_CLIENT_NET = "client.net"
RES_CLIENT_CPU = "client.cpu"
RES_CLUSTER_NET = "cluster.net"
RES_OSD_DEVICE = "osd.device"
RES_OSD_CPU = "osd.cpu"

ALL_RESOURCES = (RES_CLIENT_NET, RES_CLIENT_CPU, RES_CLUSTER_NET,
                 RES_OSD_DEVICE, RES_OSD_CPU)


@dataclass
class OpReceipt:
    """Critical-path latency and byte count of one client-visible operation."""

    latency_us: float = 0.0
    bytes_moved: int = 0

    def extend(self, other: "OpReceipt") -> None:
        """Serial composition: the other op happens after this one."""
        self.latency_us += other.latency_us
        self.bytes_moved += other.bytes_moved

    def merge_parallel(self, other: "OpReceipt") -> None:
        """Parallel composition: both ops overlap; latency is the max."""
        self.latency_us = max(self.latency_us, other.latency_us)
        self.bytes_moved += other.bytes_moved


@dataclass
class OsdVisit:
    """One RADOS operation's stop at one OSD, as seen by the event engine.

    ``service_us`` is the *occupancy* the visit demands of the OSD's shard
    servers (CPU busy time plus device channel occupancy — the quantity
    that limits throughput), while ``latency_us`` is the critical-path time
    until the OSD acknowledges (device latencies included).  ``hop_us`` and
    ``push_us`` are only non-zero for replica visits: the primary→replica
    network latency and the backend-network transfer occupancy of the
    replication push.
    """

    osd_id: int
    service_us: float
    latency_us: float
    hop_us: float = 0.0
    push_us: float = 0.0


@dataclass
class OpTrace:
    """One RADOS-level operation (a write transaction or read op).

    Recorded by :class:`~repro.rados.client.IoCtx` while
    :attr:`CostLedger.trace_ops` is enabled; replayed by
    :mod:`repro.sim.replay`.  The first entry of ``visits`` is the
    primary; the rest are replicas (writes only).
    """

    kind: str                      #: one of :data:`repro.obs.names.OP_KINDS`
    client_cpu_us: float           #: client dispatch CPU service time
    client_net_us: float           #: client NIC transfer service time
    network_us: float              #: request/response round-trip latency
    visits: List[OsdVisit] = field(default_factory=list)
    bytes_moved: int = 0
    #: failed dispatch attempts absorbed before this op succeeded (their
    #: timeout/backoff cost is folded into ``network_us``)
    retries: int = 0

    @property
    def primary(self) -> OsdVisit:
        """The primary OSD's visit (first in dispatch order)."""
        return self.visits[0]

    @property
    def replicas(self) -> Tuple[OsdVisit, ...]:
        """Replica visits (empty for reads)."""
        return tuple(self.visits[1:])


@dataclass
class ClientOpTrace:
    """One client-visible operation: the RADOS ops it decomposed into.

    A scalar aligned write is one trace; an unaligned write is a
    read-modify-write chain of two; a flushed engine window covering
    ``requests`` client requests is however many per-object transactions
    the flush produced.  The event engine executes the traces of one
    client op as a serial chain (matching the serial receipt composition
    of the RMW turn) and amortizes the chain's latency over ``requests``.
    """

    client: int = 0                #: index of the issuing client stream
    requests: int = 1              #: client requests this op completes
    traces: List[OpTrace] = field(default_factory=list)


class CostLedger:
    """Accumulates counters and per-resource busy time."""

    def __init__(self) -> None:
        # Plain dicts on purpose: a defaultdict would let a mere subscript
        # *read* of a misspelled counter materialize a fresh key, silently
        # polluting snapshot()/diff() key sets.
        self.counters: Dict[str, float] = {}
        self.resource_us: Dict[str, float] = {}
        self.latency_sum_us: float = 0.0
        self.op_count: int = 0
        #: when True, the RADOS layer records an :class:`OpTrace` per
        #: operation for the event-driven engine (off by default: traces
        #: cost memory and only the event path reads them).
        self.trace_ops: bool = False
        #: client stream the next sealed op belongs to (multi-client runs).
        self.trace_client: int = 0
        #: sealed client-visible operations, in completion order.
        self.client_ops: List[ClientOpTrace] = []
        self._open_visits: List[OsdVisit] = []
        self._open_traces: List[OpTrace] = []
        self._pending_client_cpu_us: float = 0.0

    # -- recording ------------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment a named counter.

        Counter names form a declared namespace
        (:data:`repro.obs.names.COUNTERS`); the test suite scans every
        ``count(...)`` literal in ``src/`` against it.
        """
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def busy(self, resource: str, microseconds: float) -> None:
        """Attribute busy time to a resource."""
        if microseconds < 0:
            raise ConfigurationError("busy time must be non-negative")
        self.resource_us[resource] = (self.resource_us.get(resource, 0.0)
                                      + microseconds)

    def finish_op(self, receipt: OpReceipt, ops: int = 1) -> None:
        """Record the completion of ``ops`` client-visible operations.

        The batched I/O engine completes a whole window of requests with a
        single receipt; passing ``ops`` > 1 attributes the window's
        critical-path latency to the batch once while still counting every
        request toward IOPS, so batched and per-request runs stay
        comparable.
        """
        if ops <= 0:
            raise ConfigurationError("ops must be positive")
        self.latency_sum_us += receipt.latency_us
        self.op_count += ops
        if self.trace_ops:
            # Seal even when no RADOS op was recorded (e.g. a sparse read
            # that never reached an OSD): the event replay must still count
            # the request, as a zero-cost operation, to keep request totals
            # and closed-loop pacing consistent with the analytic path.
            self.client_ops.append(ClientOpTrace(
                client=self.trace_client, requests=ops,
                traces=self._open_traces))
            self._open_traces = []

    # -- event-engine trace capture --------------------------------------------

    def record_osd_visit(self, visit: OsdVisit) -> None:
        """Attach one OSD's service/latency record to the op being traced.

        Called by the OSD layer (:mod:`repro.rados.osd`) while a
        transaction or read executes; the client layer drains the visits
        into the finished :class:`OpTrace`.  No-op unless tracing is on.
        """
        if self.trace_ops:
            self._open_visits.append(visit)

    def take_osd_visits(self) -> List[OsdVisit]:
        """Drain the visits recorded since the last RADOS op completed."""
        visits = self._open_visits
        self._open_visits = []
        return visits

    def record_op_trace(self, trace: OpTrace) -> None:
        """Queue a finished RADOS op trace for the next :meth:`finish_op`."""
        if self.trace_ops:
            # Client CPU charged before the RADOS call (encrypt-before-
            # write) was parked in the pending bucket; it belongs to this
            # op's dispatch work.
            trace.client_cpu_us += self._pending_client_cpu_us
            self._pending_client_cpu_us = 0.0
            self._open_traces.append(trace)

    def attribute_client_cpu(self, microseconds: float) -> None:
        """Fold client CPU charged outside the RADOS client into a trace.

        The crypto dispatcher charges ``client.cpu`` busy time around its
        RADOS calls (encrypt before a write, decrypt after a read); the
        event replay must see that demand on the client CPU queue or
        encrypted workloads under-model the client.  Decrypt-after-read
        lands on the just-recorded trace; encrypt-before-write waits for
        the next one.
        """
        if not self.trace_ops:
            return
        if self._open_traces:
            self._open_traces[-1].client_cpu_us += microseconds
        else:
            self._pending_client_cpu_us += microseconds

    def take_open_traces(self) -> List[OpTrace]:
        """Claim the RADOS op traces recorded since the last seal.

        The batched engine uses this to attach a flushed window's traces
        to its :class:`~repro.engine.pipeline.Completion` directly — a
        window's flush and its completion are collected at different
        times, so waiting for :meth:`finish_op` to seal would let another
        window's traces blend in.
        """
        traces = self._open_traces
        self._open_traces = []
        return traces

    def restore_op_traces(self, traces: List[OpTrace]) -> None:
        """Put previously-claimed traces back so the next seal carries them.

        Used when completing a batched-engine window: the pipeline claimed
        the window's traces at flush time (:meth:`take_open_traces`); the
        runner restores them just before :meth:`finish_op` so every
        client-visible operation is sealed through the same path.
        """
        if self.trace_ops and traces:
            self._open_traces.extend(traces)

    def discard_open_traces(self) -> None:
        """Drop unsealed traces/visits (cleanup after an aborted run).

        An op that fails partway — an RMW read that completed before its
        write raised, a primary visit recorded before a replica rejected
        the transaction — leaves entries in the open buffers; clearing
        them keeps a later run on the same cluster from adopting them.
        """
        self._open_visits = []
        self._open_traces = []
        self._pending_client_cpu_us = 0.0

    def pop_client_ops(self, since: int = 0) -> List[ClientOpTrace]:
        """Claim (and remove) client op traces sealed after index ``since``.

        Removal bounds the ledger's memory across repeated event-mode runs
        on one cluster.
        """
        ops = self.client_ops[since:]
        del self.client_ops[since:]
        return ops

    def record_batch(self, requests: int, blocks: int) -> None:
        """Record one flushed engine batch of ``requests`` covering ``blocks``.

        Maintains the ``engine.batches`` / ``engine.batched_requests`` /
        ``engine.batched_blocks`` counters from which
        :meth:`mean_batch_blocks` derives the achieved amortization.
        """
        self.count("engine.batches")
        self.count("engine.batched_requests", requests)
        self.count("engine.batched_blocks", blocks)

    def mean_batch_blocks(self) -> float:
        """Average blocks per flushed engine batch (0 if none recorded)."""
        batches = self.counter("engine.batches")
        if not batches:
            return 0.0
        return self.counter("engine.batched_blocks") / batches

    # -- inspection -------------------------------------------------------------

    def counter(self, name: str) -> float:
        """Return a counter (0 if never incremented)."""
        return self.counters.get(name, 0.0)

    def resource(self, name: str) -> float:
        """Return accumulated busy microseconds for a resource."""
        return self.resource_us.get(name, 0.0)

    def mean_latency_us(self) -> float:
        """Average critical-path latency over all finished operations."""
        if self.op_count == 0:
            return 0.0
        return self.latency_sum_us / self.op_count

    def snapshot(self) -> "CostLedger":
        """Deep copy of the current state (used to diff before/after a run)."""
        clone = CostLedger()
        clone.counters = dict(self.counters)
        clone.resource_us = dict(self.resource_us)
        clone.latency_sum_us = self.latency_sum_us
        clone.op_count = self.op_count
        clone.client_ops = list(self.client_ops)
        return clone

    def diff(self, since: "CostLedger") -> "CostLedger":
        """Return a ledger holding the activity since ``since`` was captured."""
        delta = CostLedger()
        keys = set(self.counters) | set(since.counters)
        for key in keys:
            delta.counters[key] = self.counters.get(key, 0.0) - since.counters.get(key, 0.0)
        keys = set(self.resource_us) | set(since.resource_us)
        for key in keys:
            delta.resource_us[key] = (self.resource_us.get(key, 0.0)
                                      - since.resource_us.get(key, 0.0))
        delta.latency_sum_us = self.latency_sum_us - since.latency_sum_us
        delta.op_count = self.op_count - since.op_count
        return delta

    def items(self) -> Iterator:
        """Iterate over (counter name, value) pairs, sorted by name."""
        return iter(sorted(self.counters.items()))

    def reset(self) -> None:
        """Clear all recorded activity."""
        self.counters.clear()
        self.resource_us.clear()
        self.latency_sum_us = 0.0
        self.op_count = 0
        self.client_ops = []
        self._open_visits = []
        self._open_traces = []
        self._pending_client_cpu_us = 0.0
