"""Event replay of op traces through FIFO queues: what both paths import.

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

Each client keeps ``queue_depth`` operations in flight (closed loop, like
fio): a completion immediately issues the stream's next operation.  With
several streams the queues are *shared*, so contention — queue waiting,
rising tail latency, sub-linear aggregate bandwidth — emerges from the
replay rather than being postulated.

One machine realizes the model, :mod:`repro.sim.replay`'s index machine;
:mod:`repro.sim.fleet`'s vectorized scans are its open-loop fast path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .costparams import CostParameters
from .ledger import ClientOpTrace
from .reservoir import LatencyReservoir
from ..errors import ConfigurationError
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
    #: which path produced the result ("compact", the index machine, or
    #: "vectorized", its open-loop scans), recorded so tests can assert it
    engine: str = "compact"

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


def simulate_client_ops(params: CostParameters,
                        streams: Sequence[Sequence[ClientOpTrace]],
                        queue_depth: int,
                        tracer: Optional[SpanTracer] = None,
                        ) -> EventSimResult:
    """Replay ``streams`` closed-loop, ``queue_depth`` operations in flight
    per client, on the index machine (fresh state every call), sharded
    across ``sim_shards`` contention domains when asked."""
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
