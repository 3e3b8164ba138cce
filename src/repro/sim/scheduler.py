"""Event-driven cluster scheduler: replays op traces through FIFO queues.

This is the "accurate path" of the performance model.  Where the analytic
estimate (:meth:`~repro.sim.perfmodel.PerformanceModel.estimate`) collapses
a run into two closed-form bounds, the scheduler replays the recorded
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

Each client keeps ``queue_depth`` operations in flight (closed loop, like
fio): a completion immediately issues the stream's next operation.  With
several streams the queues are *shared*, so contention — queue waiting,
rising tail latency, sub-linear aggregate bandwidth — emerges from the
replay rather than being postulated.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .costparams import CostParameters
from .events import EventLoop
from .ledger import ClientOpTrace, OpTrace, OsdVisit
from .reservoir import CLIENT_RESERVOIR_CAPACITY, LatencyReservoir
from ..errors import ConfigurationError
from ..obs.names import KIND_INDEX, OP_KINDS
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
    O(1) in the operation count; the ``*_latencies_us`` list views remain
    for compatibility and return the retained sample — the full
    population, in completion order, for runs below the reservoir
    capacity.
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
    #: which implementation produced the result ("legacy", "compact" or
    #: "vectorized"), recorded so equivalence tests can assert the path
    engine: str = "legacy"

    @property
    def op_latencies_us(self) -> List[float]:
        """Sampled client-visible op latencies (full list on small runs)."""
        return self.op_stats.sample

    @property
    def request_latencies_us(self) -> List[float]:
        """Sampled per-request completion latencies."""
        return self.request_stats.sample

    @property
    def client_request_latencies_us(self) -> List[List[float]]:
        """Sampled per-request latencies split by client stream index."""
        return [stats.sample for stats in self.client_request_stats]


class _ClientState:
    """One closed-loop request stream and its private client-side queues."""

    def __init__(self, index: int, stream: Sequence[ClientOpTrace]) -> None:
        self.index = index
        self.stream = list(stream)
        self.next_op = 0
        self.cpu = ServiceQueue(f"client.{index}.cpu")
        self.net = ServiceQueue(f"client.{index}.net")
        self.request_stats = LatencyReservoir(
            capacity=CLIENT_RESERVOIR_CAPACITY)


class ClusterScheduler:
    """Replays per-client op-trace streams against one shared cluster."""

    def __init__(self, params: CostParameters,
                 tracer: Optional[SpanTracer] = None) -> None:
        self._params = params
        #: span sink, or None; emission sites match the compact replay's
        #: (same sim-clock instants), pinned by the golden span tests
        self._tracer = tracer
        self.loop = EventLoop()
        self.osd_queues: Dict[int, ServiceQueue] = {}
        self.cluster_net = ServiceQueue("cluster.net")
        self._clients: List[_ClientState] = []
        self._op_stats = LatencyReservoir()
        self._request_stats = LatencyReservoir()
        self._requests_done = 0

    def _osd_queue(self, osd_id: int) -> ServiceQueue:
        queue = self.osd_queues.get(osd_id)
        if queue is None:
            queue = ServiceQueue(f"osd.{osd_id}",
                                 servers=max(1, self._params.osd_shards))
            self.osd_queues[osd_id] = queue
        return queue

    # -- op lifecycle ----------------------------------------------------------

    def _visit_osd(self, visit: OsdVisit, arrival_us: float,
                   done: Callable[[float], None], kind: str) -> None:
        """Schedule one OSD visit; ``done`` fires at the OSD's local ack."""
        def arrive() -> None:
            job = self._osd_queue(visit.osd_id).submit(self.loop.now,
                                                       visit.service_us)
            # The shard frees after the occupancy, but the acknowledgement
            # waits for the critical path (device latencies included).
            ack = job.start_us + max(visit.service_us, visit.latency_us)
            if self._tracer is not None:
                self._tracer.osd_visit(visit.osd_id, job.start_us, ack, kind)
            self.loop.schedule_at(ack, lambda: done(ack))
        self.loop.schedule_at(arrival_us, arrive)

    def _run_rados_op(self, client: _ClientState, trace: OpTrace,
                      done: Callable[[], None]) -> None:
        """Run one RADOS op starting now; ``done`` fires at its ack."""
        now = self.loop.now
        dispatch = client.cpu.submit(now, trace.client_cpu_us)
        transfer = client.net.submit(dispatch.end_us, trace.client_net_us)
        if self._tracer is not None:
            self._tracer.client_dispatch(client.index, dispatch.start_us,
                                         trace.client_cpu_us)
            self._tracer.client_transfer(client.index, transfer.start_us,
                                         trace.client_net_us)
            inner_done = done

            def done() -> None:
                self._tracer.rados_op(client.index, trace.kind, now,
                                      self.loop.now, trace.retries)
                inner_done()
        half_rtt = trace.network_us / 2.0
        arrival = transfer.end_us + half_rtt

        pending = len(trace.visits)
        if pending == 0:
            self.loop.schedule_at(arrival + half_rtt, done)
            return
        acks: List[float] = []

        def osd_done(ack_us: float) -> None:
            acks.append(ack_us)
            if len(acks) == pending:
                self.loop.schedule_at(max(acks) + half_rtt, done)

        self._visit_osd(trace.primary, arrival, osd_done, trace.kind)
        for replica in trace.replicas:
            # The primary forwards the payload as soon as the request
            # arrives: one push through the shared backend network, one
            # hop of latency, then the replica's own queue.
            def push(replica: OsdVisit = replica) -> None:
                job = self.cluster_net.submit(self.loop.now, replica.push_us)
                if self._tracer is not None:
                    self._tracer.cluster_push(replica.osd_id, job.start_us,
                                              replica.push_us)
                self._visit_osd(replica, job.end_us + replica.hop_us,
                                osd_done, trace.kind)
            self.loop.schedule_at(arrival, push)

    def _run_client_op(self, client: _ClientState, cop: ClientOpTrace,
                       issued_us: float) -> None:
        """Run a client-visible op (a serial chain of RADOS ops)."""
        traces = cop.traces

        def finish() -> None:
            if self._tracer is not None:
                kind = traces[0].kind if traces else "noop"
                self._tracer.client_op(client.index, kind, issued_us,
                                       self.loop.now, cop.requests)
            latency = self.loop.now - issued_us
            self._op_stats.record(latency)
            per_request = latency / cop.requests
            self._request_stats.record(per_request, weight=cop.requests)
            client.request_stats.record(per_request, weight=cop.requests)
            self._requests_done += cop.requests
            self._issue_next(client)

        def run_chain(i: int) -> None:
            if i < len(traces):
                self._run_rados_op(client, traces[i],
                                   lambda: run_chain(i + 1))
            else:
                finish()

        if not traces:
            # A zero-cost op (e.g. a sparse read that never reached an
            # OSD) completes instantly; route it through the loop so a
            # long run of such ops does not recurse through _issue_next.
            self.loop.schedule_after(0.0, finish)
        else:
            run_chain(0)

    def _issue_next(self, client: _ClientState) -> None:
        if client.next_op >= len(client.stream):
            return
        cop = client.stream[client.next_op]
        client.next_op += 1
        self._run_client_op(client, cop, self.loop.now)

    # -- entry point -----------------------------------------------------------

    def run(self, streams: Sequence[Sequence[ClientOpTrace]],
            queue_depth: int) -> EventSimResult:
        """Replay ``streams`` (one per client) at the given queue depth.

        A scheduler replays exactly one run (its queues and event loop
        accumulate state); build a fresh one per replay.
        """
        if self._clients:
            raise ConfigurationError(
                "ClusterScheduler.run is single-use; build a new scheduler "
                "for each replay")
        if queue_depth <= 0:
            raise ConfigurationError("queue depth must be positive")
        if not any(len(stream) for stream in streams):
            raise ConfigurationError(
                "event simulation needs at least one traced operation "
                "(was ledger.trace_ops enabled during the run?)")
        unknown = sorted({trace.kind for stream in streams for cop in stream
                          for trace in cop.traces
                          if trace.kind not in KIND_INDEX})
        if unknown:
            raise ConfigurationError(
                f"unknown OpTrace kind(s) {unknown}; declared kinds: "
                f"{list(OP_KINDS)} (repro.obs.names.OP_KINDS)")
        for index, stream in enumerate(streams):
            client = _ClientState(index, stream)
            self._clients.append(client)
            for _ in range(min(queue_depth, len(client.stream))):
                self.loop.schedule_at(0.0, lambda c=client: self._issue_next(c))
        elapsed = self.loop.run()
        return self._result(max(elapsed, 1e-6))

    def _result(self, elapsed_us: float) -> EventSimResult:
        resource_us: Dict[str, float] = {
            "client.cpu": max((c.cpu.busy_us for c in self._clients),
                              default=0.0),
            "client.net": max((c.net.busy_us for c in self._clients),
                              default=0.0),
            "cluster.net": self.cluster_net.busy_us,
            "osd.work": max(
                (q.busy_us / q.servers for q in self.osd_queues.values()),
                default=0.0),
        }
        waits = {q.name: q.wait_us
                 for q in list(self.osd_queues.values()) + [self.cluster_net]}
        bounding = max(resource_us, key=lambda k: resource_us[k])
        # If no single resource was near-saturated (its busy time below
        # params.saturation_threshold of the elapsed time — the same
        # labelling discipline the analytic estimate applies), the run
        # was paced by operation latency at the configured depth, like
        # the analytic latency bound.
        if resource_us[bounding] < (self._params.saturation_threshold
                                    * elapsed_us):
            bounding = "latency(qd)"
        return EventSimResult(
            elapsed_us=elapsed_us,
            requests=self._requests_done,
            op_stats=self._op_stats,
            request_stats=self._request_stats,
            client_request_stats=[c.request_stats for c in self._clients],
            resource_us=resource_us,
            bounding_resource=bounding,
            events_processed=self.loop.events_processed,
            queue_wait_us=waits,
            engine="legacy",
        )


def simulate_client_ops(params: CostParameters,
                        streams: Sequence[Sequence[ClientOpTrace]],
                        queue_depth: int,
                        tracer: Optional[SpanTracer] = None,
                        ) -> EventSimResult:
    """Replay ``streams`` closed-loop with the engine ``params`` selects.

    ``event_engine="compact"`` (the default) flattens the streams into
    numpy columns and drives the index-based event machine — same event
    discipline, same results, a fraction of the per-op cost — sharded
    across ``sim_shards`` contention domains when asked;
    ``event_engine="legacy"`` keeps the original per-op object scheduler
    for equivalence comparisons.  A scheduler replays exactly one run;
    this builds fresh state every call.
    """
    if params.event_engine == "legacy":
        return ClusterScheduler(params, tracer).run(streams, queue_depth)
    from .fleet import simulate_closed_loop
    return simulate_closed_loop(params, streams, queue_depth, tracer=tracer)


def simulate_open_loop(params: CostParameters,
                       streams: Sequence[Sequence[ClientOpTrace]],
                       arrivals_us: Sequence[Sequence[float]],
                       tracer: Optional[SpanTracer] = None,
                       ) -> EventSimResult:
    """Replay ``streams`` open-loop: op ``j`` of client ``i`` is *issued*
    at ``arrivals_us[i][j]`` regardless of completions (an arrival
    process, not a closed queue-depth loop), so overload shows up as
    unbounded queueing rather than throttled issue."""
    from .fleet import simulate_fleet
    return simulate_fleet(params, streams, arrivals_us=arrivals_us,
                          tracer=tracer)
