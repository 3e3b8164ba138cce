"""Performance model: recorded work -> simulated elapsed time.

The model has two paths, selected by :attr:`CostParameters.sim_mode`
(``--sim-mode`` on the CLI):

**Analytic (fast path, the default).**  A closed-form two-bound estimate,
deliberately simple and transparent (it is documented in EXPERIMENTS.md
next to every figure it produces):

* **Resource bound** — each resource (client NIC, client CPU, backend
  network, aggregate OSD devices, aggregate OSD CPUs) has a total busy time
  recorded in the ledger; resources operate in parallel, so the run cannot
  finish before the most-loaded resource does.  Per-OSD resources are
  divided by the number of OSDs (uniform pseudo-random placement) and by
  the per-OSD parallelism (an OSD node drives several NVMe drives).
* **Latency bound** — with a fixed queue depth ``QD`` there are never more
  than ``QD`` operations in flight, so the run takes at least
  ``sum(latency of each op) / QD`` (Little's law).

Simulated elapsed time is the maximum of the two bounds; throughput is
bytes moved divided by that time.

**Event-driven (accurate path).**  The run's recorded operation traces
replay through the discrete-event engine
(:func:`~repro.sim.fleet.simulate_closed_loop` or, open loop,
:func:`~repro.sim.fleet.simulate_fleet`) and
:meth:`PerformanceModel.estimate_from_events` reads the estimate off the
replay: per-OSD FIFO queues with ``osd_shards`` servers, per-client
dispatch/NIC queues, a shared backend network, and replication fan-out as
chained events.  Queue *waiting* — which the analytic bounds cannot
express — emerges from the replay, which is what makes multiple
contending clients, latency percentiles and tail behaviour meaningful.  For a single client the two
paths agree closely (the contention the event engine adds is exactly what
one closed-loop stream cannot generate); the regression suite holds them
within 15% on the paper's Fig. 3 workloads.

**Batched runs.**  The I/O engine (:mod:`repro.engine`) converts queue
depth into batching: a window of up to ``QD`` requests completes as *one*
client-visible operation whose receipt already reflects the whole batch.
The runner therefore finishes each window with
``ledger.finish_op(receipt, ops=window_size)`` and estimates with
``queue_depth=1`` (windows are issued serially); the benefit of depth shows
up as fewer, larger transactions — the fixed per-transaction cost
(``osd_op_cost_us``, one round trip, one replication push per replica) is
paid once per batch and only the per-block costs (device transfer, crypto,
per-op CPU) scale with the window.  :func:`batch_report` summarizes how
much amortization a run actually achieved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from .costparams import CostParameters
from .ledger import (CostLedger, RES_CLIENT_CPU, RES_CLIENT_NET,
                     RES_CLUSTER_NET, RES_OSD_CPU, RES_OSD_DEVICE)
from ..errors import ConfigurationError
from ..util import is_count, percentile

#: percentiles reported alongside every estimate (keys of
#: :attr:`PerformanceEstimate.latency_percentiles`).
LATENCY_PERCENTILES = (50.0, 95.0, 99.0)


def latency_percentiles(latencies_us: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99 summary of a per-request latency sample."""
    return {f"p{pct:g}": percentile(latencies_us, pct)
            for pct in LATENCY_PERCENTILES}


@dataclass(frozen=True)
class PerformanceEstimate:
    """Outcome of converting recorded work into time/throughput numbers."""

    elapsed_us: float
    total_bytes: int
    bandwidth_mbps: float
    iops: float
    mean_latency_us: float
    bounding_resource: str
    resource_us: Dict[str, float]
    #: which model produced the estimate: "analytic" or "events"
    sim_mode: str = "analytic"
    #: per-request completion-latency percentiles (p50/p95/p99, µs); from
    #: receipt latencies on the analytic path, from simulated completion
    #: timestamps (queue waiting included) on the event path
    latency_percentiles: Dict[str, float] = field(default_factory=dict)

    def percentile(self, name: str) -> float:
        """A latency percentile by key ("p50", "p95", "p99"); 0 if absent."""
        return self.latency_percentiles.get(name, 0.0)

    def summary(self) -> str:
        """One-line human-readable summary."""
        text = (f"{self.bandwidth_mbps:8.1f} MiB/s  {self.iops:9.0f} IOPS  "
                f"lat {self.mean_latency_us:7.1f} us  "
                f"bound={self.bounding_resource}")
        if self.latency_percentiles:
            text += (f"  p50={self.percentile('p50'):.0f}"
                     f" p95={self.percentile('p95'):.0f}"
                     f" p99={self.percentile('p99'):.0f} us")
        return text


class PerformanceModel:
    """Turns a :class:`CostLedger` into a :class:`PerformanceEstimate`."""

    def __init__(self, params: CostParameters) -> None:
        self._params = params

    @property
    def params(self) -> CostParameters:
        """The cost parameters this model applies."""
        return self._params

    def estimate(self, ledger: CostLedger, total_bytes: int,
                 queue_depth: int,
                 latencies_us: Optional[Sequence[float]] = None,
                 ) -> PerformanceEstimate:
        """Analytic fast path: two-bound estimate from the ledger.

        ``latencies_us`` optionally supplies the per-request receipt
        latencies so the estimate carries p50/p95/p99 percentiles (the
        analytic model has no queueing, so these reflect the service-time
        distribution only).
        """
        if not is_count(queue_depth):
            raise ConfigurationError("queue depth must be a positive "
                                     f"integer (got {queue_depth!r})")
        params = self._params

        effective: Dict[str, float] = {}
        effective[RES_CLIENT_NET] = ledger.resource(RES_CLIENT_NET)
        effective[RES_CLIENT_CPU] = ledger.resource(RES_CLIENT_CPU)
        effective[RES_CLUSTER_NET] = ledger.resource(RES_CLUSTER_NET)
        # OSD-side work (transaction processing CPU plus device occupancy)
        # is spread across all OSDs (uniform placement) and each OSD's
        # transaction shards; within one shard CPU and device time do not
        # overlap, which is what makes per-sector metadata cost something.
        osd_div = params.osd_count * max(1, params.osd_shards)
        osd_work = (ledger.resource(RES_OSD_DEVICE)
                    + ledger.resource(RES_OSD_CPU)) / osd_div
        effective["osd.work"] = osd_work

        latency_bound = ledger.latency_sum_us / queue_depth
        resource_bound_name = max(effective, key=lambda k: effective[k])
        resource_bound = effective[resource_bound_name]

        if latency_bound >= resource_bound:
            elapsed = latency_bound
            bounding = "latency(qd)"
        else:
            elapsed = resource_bound
            bounding = resource_bound_name
        elapsed = max(elapsed, 1e-6)

        bandwidth = total_bytes / (1024 * 1024) / (elapsed / 1e6)
        iops = ledger.op_count / (elapsed / 1e6) if ledger.op_count else 0.0
        return PerformanceEstimate(
            elapsed_us=elapsed,
            total_bytes=total_bytes,
            bandwidth_mbps=bandwidth,
            iops=iops,
            mean_latency_us=ledger.mean_latency_us(),
            bounding_resource=bounding,
            resource_us=dict(effective),
            sim_mode="analytic",
            latency_percentiles=(latency_percentiles(latencies_us)
                                 if latencies_us else {}),
        )

    def estimate_from_events(self, result, total_bytes: int,
                             ) -> PerformanceEstimate:
        """Convert a finished event replay (:class:`EventSimResult`) into an
        estimate; the caller runs the replay, so it keeps the raw latency
        samples too.

        The mean comes from the replay's exact population moments (the
        reservoir tracks count/sum over *every* request, not just the
        retained sample); percentiles read from the reservoir sample,
        which is the full population for runs below its capacity.
        """
        elapsed = max(result.elapsed_us, 1e-6)
        bandwidth = total_bytes / (1024 * 1024) / (elapsed / 1e6)
        iops = result.requests / (elapsed / 1e6) if result.requests else 0.0
        stats = result.request_stats
        return PerformanceEstimate(
            elapsed_us=elapsed,
            total_bytes=total_bytes,
            bandwidth_mbps=bandwidth,
            iops=iops,
            mean_latency_us=stats.mean_us,
            bounding_resource=result.bounding_resource,
            resource_us=dict(result.resource_us),
            sim_mode="events",
            latency_percentiles=stats.percentiles(LATENCY_PERCENTILES),
        )


def batch_report(ledger: CostLedger, replica_count: int = 1) -> Dict[str, float]:
    """Summarize how much transaction amortization a run achieved.

    Returns the engine-side batch counters together with the RADOS-side
    view (how many transactions carried more than one data extent and the
    average extents per such transaction), so benchmarks can assert that
    batching actually reached the OSDs rather than being split back up.

    The raw ``rados.*`` counters record one apply per replica; pass the
    cluster's ``replica_count`` to normalize them to client-visible
    transaction counts comparable with the ``engine.*`` counters.
    """
    if replica_count <= 0:
        raise ConfigurationError("replica_count must be positive")
    batches = ledger.counter("engine.batches")
    multi = ledger.counter("rados.multi_extent_transactions") / replica_count
    return {
        "engine_batches": batches,
        "engine_batched_requests": ledger.counter("engine.batched_requests"),
        "engine_mean_batch_blocks": ledger.mean_batch_blocks(),
        "rados_transactions": (
            ledger.counter("rados.transactions") / replica_count),
        "rados_multi_extent_transactions": multi,
        "rados_mean_extents_per_batch": (
            ledger.counter("rados.batched_extents") / replica_count / multi
            if multi else 0.0),
    }
