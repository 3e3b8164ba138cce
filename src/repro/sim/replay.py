"""Event replay of op traces through FIFO queues: the exact index machine.

This is the "accurate path" of the performance model.  Where the analytic
estimate (:meth:`~repro.sim.perfmodel.PerformanceModel.estimate`) collapses
a run into two closed-form bounds, the event replay drives the recorded
operation traces (:class:`~repro.sim.ledger.ClientOpTrace`) through an
explicit model of the testbed's shared resources:

* every OSD is a FIFO :class:`ServiceQueue` with ``osd_shards`` parallel
  servers — a transaction occupies one shard for its *service* time
  (CPU + device channel occupancy) and acknowledges after its
  critical-path latency,
* each client stream owns a dispatch-CPU queue and a NIC queue (one
  server each — one fio process on one link),
* the backend network is one shared queue through which every replication
  push passes,
* replication fans out as chained events: the client's dispatch event
  schedules an arrival at the primary and, per replica, a push through the
  backend network followed (one hop later) by an arrival at the replica's
  queue; the op acknowledges when the slowest replica has committed.

Closed loop, each client keeps ``queue_depth`` operations in flight (like
fio): a completion immediately issues the stream's next operation.  Open
loop, operations are *issued at exogenous arrival timestamps* instead,
which is what fleet-scale arrival processes (Poisson, trace-driven) need.
With several streams the queues are *shared*, so contention — queue
waiting, rising tail latency, sub-linear aggregate bandwidth — emerges
from the replay rather than being postulated.

The machine walks :class:`~repro.sim.compact.CompactStream` columns, not
``ClientOpTrace`` objects.  The hot loop allocates no closures and no
per-op objects: the heap holds plain ``(time, seq, code, a, b)`` tuples
whose integer payloads index straight into the numpy columns, and
in-flight replication state lives in one dict of small lists.

The event *discipline* — scheduling order, one global sequence number
breaking ties, synchronous queue submissions inside an event — is that
of the per-op closure scheduler this machine replaced in PR 24, call for
call: any closed-loop replay reproduces that scheduler's elapsed times,
latencies, queue accounting and spans bit for bit, pinned by the digests
the scheduler itself wrote (the ``closed/`` lines of
``tests/golden/transcript.sha256``).  The replay is entered through
:mod:`repro.sim.fleet` (``simulate_closed_loop``, ``simulate_fleet``),
which validates its inputs; :mod:`repro.sim.fleet`'s vectorized scans
are the machine's open-loop fast path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .compact import CompactStream, distinct_by_identity
from .costparams import CostParameters
from .reservoir import CLIENT_RESERVOIR_CAPACITY, LatencyReservoir
from ..errors import ConfigurationError
from ..obs.names import OP_KINDS
from ..obs.spans import SpanTracer


class ServiceQueue:
    """A FIFO service station with ``servers`` parallel servers.

    Jobs must be submitted in arrival-time order — the event loop is what
    guarantees it in practice, but the queue *enforces* it (an
    out-of-order submission would silently compute a negative wait and
    corrupt the FIFO start times, so it raises instead).  Each job takes
    the earliest-free server, so waiting time is ``start - arrival`` and
    the queue is work-conserving.
    """

    def __init__(self, name: str, servers: int = 1) -> None:
        if servers <= 0:
            raise ConfigurationError("a service queue needs >= 1 server")
        self.name = name
        self.servers = servers
        self._free_at: List[float] = [0.0] * servers
        heapq.heapify(self._free_at)
        self._last_arrival_us = float("-inf")
        self.busy_us = 0.0
        self.jobs = 0
        self.wait_us = 0.0

    def submit(self, now: float, service_us: float) -> "QueuedJob":
        """Serve a job arriving at ``now``; returns its start/end times."""
        if service_us < 0:
            raise ConfigurationError("service time must be non-negative")
        if now < self._last_arrival_us:
            raise ConfigurationError(
                f"queue {self.name}: job arriving at {now:.3f} us is earlier "
                f"than the previous arrival at {self._last_arrival_us:.3f} us; "
                f"FIFO queues need non-decreasing arrival times")
        self._last_arrival_us = now
        free_at = heapq.heappop(self._free_at)
        start = max(now, free_at)
        end = start + service_us
        heapq.heappush(self._free_at, end)
        self.busy_us += service_us
        self.jobs += 1
        self.wait_us += start - now
        return QueuedJob(start_us=start, end_us=end)

    def utilization(self, elapsed_us: float) -> float:
        """Fraction of server time kept busy over ``elapsed_us``."""
        if elapsed_us <= 0:
            return 0.0
        return self.busy_us / (self.servers * elapsed_us)


@dataclass(frozen=True)
class QueuedJob:
    """Start and end of one job's stay on a queue's server."""

    start_us: float
    end_us: float


@dataclass
class EventSimResult:
    """Everything the event replay measured.

    Latency populations are carried as :class:`LatencyReservoir` objects
    (exact count/mean/max, reservoir-sampled percentiles) so memory stays
    O(1) in the operation count; a reservoir's ``sample`` is the full
    population, in completion order, for runs below its capacity.
    """

    elapsed_us: float
    requests: int
    op_stats: LatencyReservoir = field(default_factory=LatencyReservoir)
    request_stats: LatencyReservoir = field(default_factory=LatencyReservoir)
    #: per-client request-latency reservoirs, indexed by stream
    client_request_stats: List[LatencyReservoir] = field(default_factory=list)
    resource_us: Dict[str, float] = field(default_factory=dict)
    bounding_resource: str = "latency(qd)"
    events_processed: int = 0
    queue_wait_us: Dict[str, float] = field(default_factory=dict)
    #: which path produced the result ("compact", the index machine, or
    #: "vectorized", its open-loop scans), recorded so tests can assert it
    engine: str = "compact"


def bounding_resource(params: CostParameters, resource_us: Dict[str, float],
                      elapsed_us: float, open_loop: bool) -> str:
    """What paced a replay: its busiest resource, unless none was
    near-saturated (busy below ``params.saturation_threshold`` of the
    elapsed time, the analytic estimate's labelling discipline) — then
    operation latency at the configured depth, like the analytic latency
    bound, or the open-loop arrival process."""
    bounding = max(resource_us, key=lambda k: resource_us[k])
    if resource_us[bounding] < params.saturation_threshold * elapsed_us:
        return "arrival(open-loop)" if open_loop else "latency(qd)"
    return bounding


# Event codes (payload meanings in parentheses).
_ISSUE = 0      # closed-loop: issue a client's next op       (client, -)
_ISSUE_AT = 1   # open-loop: issue one specific op            (client, op)
_ARRIVE = 2     # a visit arrives at its OSD queue            (visit, flight)
_PUSH = 3       # replication push enters the backend network (visit, flight)
_ACK = 4        # one OSD visit acknowledged                  (flight, -)
_CHAIN = 5      # continue an op's serial RADOS chain         (client, flight)


class IndexMachine:
    """One single-use replay of compact streams (closed- or open-loop)."""

    def __init__(self, params: CostParameters,
                 streams: Sequence[CompactStream],
                 tracer: Optional[SpanTracer] = None) -> None:
        self._params = params
        self._streams = list(streams)
        #: span sink, or None; every emission site is behind an
        #: ``is not None`` check so the untraced hot loop stays untouched
        self._tracer = tracer
        #: flight id -> submit time of its in-progress RADOS op
        self._rados_start: Dict[int, float] = {}
        self._cpu = [ServiceQueue(f"client.{i}.cpu")
                     for i in range(len(self._streams))]
        self._net = [ServiceQueue(f"client.{i}.net")
                     for i in range(len(self._streams))]
        self._client_stats = [
            LatencyReservoir(capacity=CLIENT_RESERVOIR_CAPACITY)
            for _ in self._streams]
        self.osd_queues: Dict[int, ServiceQueue] = {}
        self.cluster_net = ServiceQueue("cluster.net")
        self._heap: List[tuple] = []
        self._seq = 0
        self._now = 0.0
        self._events = 0
        self._op_stats = LatencyReservoir()
        self._request_stats = LatencyReservoir()
        self._requests_done = 0
        self._next_op = [0] * len(self._streams)
        # In-flight state, keyed by flight id:
        #   op flights:   [client, op_index, issued_us, next_trace]
        #   visit fan-out: shares the op flight and adds [remaining, max_ack]
        self._flights: Dict[int, list] = {}
        self._next_flight = 0
        self._closed_loop = True

    # -- scheduling ------------------------------------------------------------

    def _schedule(self, time_us: float, code: int, a: int, b: int) -> None:
        heapq.heappush(self._heap, (time_us, self._seq, code, a, b))
        self._seq += 1

    def _osd_queue(self, osd_id: int) -> ServiceQueue:
        queue = self.osd_queues.get(osd_id)
        if queue is None:
            queue = ServiceQueue(f"osd.{osd_id}",
                                 servers=max(1, self._params.osd_shards))
            self.osd_queues[osd_id] = queue
        return queue

    # -- op lifecycle ----------------------------------------------------------

    def _start_op(self, client: int, op: int, now: float) -> None:
        stream = self._streams[client]
        fid = self._next_flight
        self._next_flight += 1
        next_trace = int(stream.op_trace_start[op])
        self._flights[fid] = [client, op, now, next_trace, 0, 0.0]
        end = int(stream.op_trace_start[op + 1])
        if next_trace == end:
            # Zero-cost op (sparse read): route through the heap so long
            # runs of such ops do not recurse through _issue_next.
            self._schedule(now + 0.0, _CHAIN, client, fid)
        else:
            self._run_rados(fid, now)

    def _run_rados(self, fid: int, now: float) -> None:
        flight = self._flights[fid]
        client, t = flight[0], flight[3]
        stream = self._streams[client]
        dispatch = self._cpu[client].submit(now, float(stream.trace_cpu_us[t]))
        transfer = self._net[client].submit(dispatch.end_us,
                                            float(stream.trace_net_us[t]))
        if self._tracer is not None:
            self._tracer.client_dispatch(client, dispatch.start_us,
                                         float(stream.trace_cpu_us[t]))
            self._tracer.client_transfer(client, transfer.start_us,
                                         float(stream.trace_net_us[t]))
            self._rados_start[fid] = now
        half_rtt = float(stream.trace_rtt_us[t]) / 2.0
        arrival = transfer.end_us + half_rtt
        vs = int(stream.trace_visit_start[t])
        ve = int(stream.trace_visit_start[t + 1])
        flight[3] = t + 1
        if vs == ve:
            self._schedule(arrival + half_rtt, _CHAIN, client, fid)
            return
        flight[4] = ve - vs
        flight[5] = float("-inf")
        self._schedule(arrival, _ARRIVE, vs, fid)
        for v in range(vs + 1, ve):
            self._schedule(arrival, _PUSH, v, fid)

    def _finish(self, fid: int, now: float) -> None:
        flight = self._flights.pop(fid)
        client, op, issued = flight[0], flight[1], flight[2]
        stream = self._streams[client]
        if self._tracer is not None:
            t0 = int(stream.op_trace_start[op])
            kind = (OP_KINDS[int(stream.trace_kind[t0])]
                    if t0 < int(stream.op_trace_start[op + 1]) else "noop")
            self._tracer.client_op(client, kind, issued, now,
                                   int(stream.op_requests[op]))
        latency = now - issued
        self._op_stats.record(latency)
        requests = int(stream.op_requests[op])
        per_request = latency / requests
        self._request_stats.record(per_request, weight=requests)
        self._client_stats[client].record(per_request, weight=requests)
        self._requests_done += requests
        if self._closed_loop:
            self._issue_next(client, now)

    def _issue_next(self, client: int, now: float) -> None:
        stream = self._streams[client]
        if self._next_op[client] >= stream.num_ops:
            return
        op = self._next_op[client]
        self._next_op[client] += 1
        self._start_op(client, op, now)

    # -- main loop -------------------------------------------------------------

    def _drain(self) -> float:
        heap = self._heap
        streams = self._streams
        flights = self._flights
        while heap:
            now, _seq, code, a, b = heapq.heappop(heap)
            self._now = now
            self._events += 1
            if code == _ARRIVE:
                flight = flights[b]
                stream = streams[flight[0]]
                service = float(stream.visit_service_us[a])
                job = self._osd_queue(int(stream.visit_osd[a])).submit(
                    now, service)
                ack = job.start_us + max(service,
                                         float(stream.visit_latency_us[a]))
                if self._tracer is not None:
                    self._tracer.osd_visit(
                        int(stream.visit_osd[a]), job.start_us, ack,
                        OP_KINDS[int(stream.trace_kind[flight[3] - 1])])
                self._schedule(ack, _ACK, b, 0)
            elif code == _ACK:
                flight = flights[a]
                if now > flight[5]:
                    flight[5] = now
                flight[4] -= 1
                if flight[4] == 0:
                    stream = streams[flight[0]]
                    half_rtt = float(stream.trace_rtt_us[flight[3] - 1]) / 2.0
                    self._schedule(flight[5] + half_rtt, _CHAIN,
                                   flight[0], a)
            elif code == _PUSH:
                flight = flights[b]
                stream = streams[flight[0]]
                job = self.cluster_net.submit(
                    now, float(stream.visit_push_us[a]))
                if self._tracer is not None:
                    self._tracer.cluster_push(int(stream.visit_osd[a]),
                                              job.start_us,
                                              float(stream.visit_push_us[a]))
                self._schedule(job.end_us + float(stream.visit_hop_us[a]),
                               _ARRIVE, a, b)
            elif code == _CHAIN:
                flight = flights[b]
                stream = streams[flight[0]]
                if self._tracer is not None:
                    start = self._rados_start.pop(b, None)
                    if start is not None:
                        t = flight[3] - 1
                        self._tracer.rados_op(
                            flight[0], OP_KINDS[int(stream.trace_kind[t])],
                            start, now, int(stream.trace_retries[t]))
                if flight[3] < int(stream.op_trace_start[flight[1] + 1]):
                    self._run_rados(b, now)
                else:
                    self._finish(b, now)
            elif code == _ISSUE:
                self._issue_next(a, now)
            else:  # _ISSUE_AT
                self._start_op(a, b, now)
        return self._now

    # -- entry points ----------------------------------------------------------

    def run_closed(self, queue_depth: int) -> EventSimResult:
        self._closed_loop = True
        for client, stream in enumerate(self._streams):
            for _ in range(min(queue_depth, stream.num_ops)):
                self._schedule(0.0, _ISSUE, client, 0)
        return self._result(max(self._drain(), 1e-6))

    def run_open(self, arrivals_us: Sequence[Sequence[float]],
                 ) -> EventSimResult:
        self._closed_loop = False
        # Sequence numbers follow (time, client, op) order so ties at any
        # downstream queue break identically to the vectorized engine.
        issues = sorted((float(when), client, op)
                        for client, arrivals in enumerate(arrivals_us)
                        for op, when in enumerate(arrivals))
        for when, client, op in issues:
            self._schedule(when, _ISSUE_AT, client, op)
        return self._result(max(self._drain(), 1e-6), open_loop=True)

    def _result(self, elapsed_us: float,
                open_loop: bool = False) -> EventSimResult:
        resource_us: Dict[str, float] = {
            "client.cpu": max((q.busy_us for q in self._cpu), default=0.0),
            "client.net": max((q.busy_us for q in self._net), default=0.0),
            "cluster.net": self.cluster_net.busy_us,
            "osd.work": max(
                (q.busy_us / q.servers for q in self.osd_queues.values()),
                default=0.0),
        }
        waits = {q.name: q.wait_us
                 for q in list(self.osd_queues.values()) + [self.cluster_net]}
        return EventSimResult(
            elapsed_us=elapsed_us,
            requests=self._requests_done,
            op_stats=self._op_stats,
            request_stats=self._request_stats,
            client_request_stats=self._client_stats,
            resource_us=resource_us,
            bounding_resource=bounding_resource(
                self._params, resource_us, elapsed_us, open_loop),
            events_processed=self._events,
            queue_wait_us=waits,
            engine="compact",
        )


def replay_open_loop(params: CostParameters,
                     streams: Sequence[CompactStream],
                     arrivals_us: Sequence[Sequence[float]],
                     tracer: Optional[SpanTracer] = None) -> EventSimResult:
    """Open-loop compact replay: ops issue at the given timestamps.

    The inputs are taken as checked: one sorted arrival sequence per
    stream, one timestamp per op (:func:`repro.sim.fleet.simulate_fleet`
    checks them before it picks an engine).  Calling this directly forces
    the index machine where ``simulate_fleet`` would take the scans.
    """
    return IndexMachine(params, streams, tracer).run_open(arrivals_us)


def has_serial_chains(streams: Sequence[CompactStream]) -> bool:
    """True if any op decomposes into more than one RADOS op (RMW).

    Each distinct offset array is looked at once: the clients of a tiled
    fleet share theirs, and this runs on every fleet replay.
    """
    offsets, _ = distinct_by_identity(
        [stream.op_trace_start for stream in streams])
    return any(np.diff(array).max(initial=0) > 1 for array in offsets)


__all__ = ["ServiceQueue", "QueuedJob", "EventSimResult", "bounding_resource",
           "IndexMachine", "replay_open_loop", "has_serial_chains"]
