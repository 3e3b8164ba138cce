"""Workload runner: executes a spec against an image and measures simulated
throughput.

The runner is the reproduction's fio: it generates the request stream,
issues each request against the image (plaintext or encrypted — the image's
dispatcher decides), collects per-request cost receipts and the cluster's
cost-ledger delta, and asks the performance model for the simulated elapsed
time, bandwidth and IOPS.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .arrival import arrival_process_for, arrival_schedule
from .generator import generate_requests
from .spec import WorkloadSpec
from ..engine.pipeline import EngineConfig, IoPipeline
from ..errors import WorkloadError
from ..rados.cluster import Cluster
from ..rbd.wrapper import ImageLike
from ..sim.ledger import ClientOpTrace, CostLedger
from ..sim.perfmodel import PerformanceEstimate, PerformanceModel
from ..sim.scheduler import simulate_client_ops, simulate_open_loop
from ..util import MIB


def wrap_in_cache(image: ImageLike, spec: WorkloadSpec):
    """Wrap ``image`` in the spec's client-side cache (no-op when off).

    Cache mode ``"pwl"`` selects the crash-safe persistent write log
    (:class:`repro.pwl.PwlImage`) instead of the block cache.
    """
    config = spec.cache_config()
    from ..cache import wrap_image
    return wrap_image(image, config)


def finish_cache_flush(ledger: CostLedger, cached, latencies: List[float]) -> None:
    """Issue a cached run's final flush barrier and account it.

    The flush is one client-visible operation (fio's ``end_fsync``); runs
    that left no dirty blocks record nothing.
    """
    receipt = cached.flush()
    if receipt.latency_us or receipt.bytes_moved:
        ledger.finish_op(receipt)
        latencies.append(receipt.latency_us)


def prefill_image(image: ImageLike, chunk_size: int = MIB,
                  pattern_seed: int = 7) -> None:
    """Write the whole image once so later reads hit real (encrypted) data.

    The paper measures against a fully written 64 GiB image; read workloads
    on a sparse image would skip decryption entirely and be meaningless.
    """
    rng_buffer = os.urandom(min(chunk_size, image.size))
    offset = 0
    while offset < image.size:
        length = min(chunk_size, image.size - offset)
        payload = rng_buffer[:length]
        image.write(offset, payload)
        offset += length


@dataclass
class WorkloadResult:
    """Everything measured for one (workload, image/layout) combination."""

    spec: WorkloadSpec
    layout: str
    estimate: PerformanceEstimate
    counters: Dict[str, float] = field(default_factory=dict)
    latencies_us: List[float] = field(default_factory=list)

    @property
    def bandwidth_mbps(self) -> float:
        """Simulated bandwidth in MiB/s."""
        return self.estimate.bandwidth_mbps

    @property
    def iops(self) -> float:
        """Simulated IO operations per second."""
        return self.estimate.iops

    @property
    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 per-request completion latency (µs)."""
        return self.estimate.latency_percentiles

    def percentile(self, name: str) -> float:
        """One latency percentile by key ("p50", "p95", "p99")."""
        return self.estimate.percentile(name)

    def counter(self, name: str) -> float:
        """A ledger counter measured during the run (0 if absent)."""
        return self.counters.get(name, 0.0)

    def render(self) -> str:
        """One-line summary used by the benchmark output."""
        return (f"{self.layout:14s} {self.spec.rw:9s} bs={self.spec.io_size:>8d} "
                f"{self.bandwidth_mbps:9.1f} MiB/s  {self.iops:9.0f} IOPS")


class BatchedStreamIssuer:
    """The shared per-request issue policy for pipeline-driven streams.

    Writes flush any pending reads first (the pipeline's read barrier
    would do it anyway, but batching the reads beforehand keeps read
    windows intact); reads collect into windows of ``queue_depth`` and
    travel as one vectored read.  Used by both the single-client runner
    and the multi-client ClusterWorkloadRunner so the two cannot drift.
    """

    def __init__(self, pipeline: IoPipeline, spec: WorkloadSpec) -> None:
        self.pipeline = pipeline
        self._spec = spec
        self._pending_reads: List = []

    def issue(self, request, write_buffer: bytes) -> None:
        """Feed one request to the pipeline under the issue policy."""
        if request.op == "write":
            self.flush_reads()
            self.pipeline.write(request.offset,
                                write_buffer[:request.length])
        else:
            self._pending_reads.append((request.offset, request.length))
            if len(self._pending_reads) >= self._spec.queue_depth:
                self.flush_reads()

    def flush_reads(self) -> None:
        """Issue the collected read window (no-op when empty)."""
        if self._pending_reads:
            self.pipeline.read_extents(self._pending_reads)
            self._pending_reads = []

    def drain(self):
        """Flush reads and writes; returns the final completions."""
        self.flush_reads()
        return self.pipeline.drain()


class WorkloadRunner:
    """Runs workload specs against images on one cluster.

    ``tracer`` (a :class:`repro.obs.SpanTracer`) records the run's span
    timeline: in events mode the replay emits spans at the exact
    sim-clock instants that produce the reported latencies; in analytic
    mode the sealed traces are laid out on the serial contention-free
    timeline the closed-form bound assumes.
    """

    def __init__(self, cluster: Cluster, tracer=None) -> None:
        self._cluster = cluster
        self._model = PerformanceModel(cluster.params)
        self._tracer = tracer

    @property
    def cluster(self) -> Cluster:
        """The cluster whose ledger and parameters the runner uses."""
        return self._cluster

    @property
    def sim_mode(self) -> str:
        """Which performance model converts the run into elapsed time."""
        return self._cluster.params.sim_mode

    def run(self, image: ImageLike, spec: WorkloadSpec,
            layout_name: Optional[str] = None) -> WorkloadResult:
        """Execute ``spec`` against ``image`` and return the measurements."""
        if spec.open_loop and self.sim_mode != "events":
            raise WorkloadError(
                "open-loop arrivals need sim_mode='events' (the analytic "
                "model has no notion of arrival times)")
        if spec.prefill:
            prefill_image(image)
        # The cache (if requested) wraps the image *after* the prefill so
        # measurements start from a cold cache, like a freshly mapped disk.
        io_image = wrap_in_cache(image, spec)

        ledger = self._cluster.ledger
        before = ledger.snapshot()
        write_buffer = os.urandom(spec.io_size)
        latencies: List[float] = []
        total_bytes = 0
        events = self.sim_mode == "events"
        capture = events or self._tracer is not None
        traces_before = len(ledger.client_ops)
        if capture:
            ledger.trace_ops = True
        try:
            if spec.batched:
                total_bytes = self._run_batched(io_image, spec, write_buffer,
                                                latencies)
            else:
                for request in generate_requests(spec, io_image.size):
                    if request.op == "write":
                        receipt = io_image.write(request.offset,
                                                 write_buffer[:request.length])
                    else:
                        receipt = io_image.read_with_receipt(
                            request.offset, request.length).receipt
                    ledger.finish_op(receipt)
                    latencies.append(receipt.latency_us)
                    total_bytes += request.length
            if io_image is not image:
                # End-of-run flush barrier: dirty writeback blocks reach
                # the cluster inside the measured window, accounted as one
                # final client-visible operation (like fio's end_fsync).
                finish_cache_flush(ledger, io_image, latencies)
        finally:
            if capture:
                ledger.trace_ops = False
                ledger.discard_open_traces()

        delta = ledger.diff(before)
        # Batched windows are issued serially (the window *is* the queue
        # depth), so the Little's-law bound runs at depth 1; unbatched runs
        # keep spec.queue_depth operations in flight.
        model_depth = 1 if spec.batched else spec.queue_depth
        if events:
            stream = ledger.pop_client_ops(traces_before)
            if spec.open_loop:
                # Issue times come from the arrival process, sized to the
                # sealed op count (cache flushes and batch windows count
                # as ops of their own).
                arrivals = arrival_schedule(arrival_process_for(spec),
                                            [len(stream)])
                sim = simulate_open_loop(self._cluster.params, [stream],
                                         arrivals, tracer=self._tracer)
            else:
                sim = simulate_client_ops(self._cluster.params, [stream],
                                          model_depth, tracer=self._tracer)
            estimate = self._model.estimate_from_events(sim, total_bytes)
            # Report the simulated completion latencies (queue waiting
            # included) so latencies_us agrees with the percentiles the
            # estimate carries, instead of the queueing-free receipts.
            latencies = list(sim.request_latencies_us)
        else:
            if self._tracer is not None:
                from ..obs.spans import spans_from_client_ops
                spans_from_client_ops(ledger.pop_client_ops(traces_before),
                                      self._tracer, client=0)
            estimate = self._model.estimate(delta, total_bytes, model_depth,
                                            latencies_us=latencies)
        layout = layout_name or self._layout_of(image)
        return WorkloadResult(spec=spec, layout=layout, estimate=estimate,
                              counters=dict(delta.counters),
                              latencies_us=latencies)

    def _run_batched(self, image: ImageLike, spec: WorkloadSpec,
                     write_buffer: bytes, latencies: List[float]) -> int:
        """Drive the request stream through the batched I/O engine.

        Writes accumulate in the pipeline's window; consecutive reads are
        collected into a window of the same depth and issued as one
        vectored read (:class:`BatchedStreamIssuer`).  Each completed
        window is one client-visible operation covering all its requests.
        """
        ledger = self._cluster.ledger
        pipeline = IoPipeline(image, EngineConfig(
            queue_depth=spec.queue_depth, batch_size=spec.batch_size))
        issuer = BatchedStreamIssuer(pipeline, spec)
        total_bytes = 0

        for request in generate_requests(spec, image.size):
            total_bytes += request.length
            issuer.issue(request, write_buffer)
            for completion in pipeline.poll():
                self._finish_completion(ledger, completion, latencies)
        for completion in issuer.drain():
            self._finish_completion(ledger, completion, latencies)
        return total_bytes

    @staticmethod
    def _finish_completion(ledger: CostLedger, completion,
                           latencies: List[float]) -> None:
        """Record a finished window: the batch latency is amortized over its
        requests so ``latencies_us`` stays per-request (comparable with
        unbatched runs and with the ledger's own mean).

        Shared by the single- and multi-client runners.  The pipeline
        claimed each window's event-engine traces at flush time (several
        windows can complete before one poll); restoring them right before
        ``finish_op`` seals them under this completion.
        """
        ledger.restore_op_traces(completion.traces)
        ledger.finish_op(completion.receipt, ops=completion.requests)
        per_request = completion.receipt.latency_us / completion.requests
        latencies.extend([per_request] * completion.requests)

    def run_many(self, image: ImageLike, specs: List[WorkloadSpec],
                 layout_name: Optional[str] = None) -> List[WorkloadResult]:
        """Run several specs back to back against the same image."""
        return [self.run(image, spec, layout_name) for spec in specs]

    @staticmethod
    def _layout_of(image: ImageLike) -> str:
        dispatcher = image.dispatcher
        layout = getattr(dispatcher, "layout", None)
        if layout is not None:
            return layout.name
        return "plaintext"


def fresh_ledger_copy(cluster: Cluster) -> CostLedger:
    """Snapshot helper exposed for tests that inspect raw ledger deltas."""
    return cluster.ledger.snapshot()


def capture_template_stream(cluster: Cluster, image: ImageLike,
                            spec: WorkloadSpec) -> List[ClientOpTrace]:
    """Issue ``spec`` once with trace capture on; return the sealed traces.

    The fleet synthesizer (:func:`repro.sim.fleet.fleet_streams_from_template`)
    scales a short *real* captured stream — actual data path, actual
    crypto and placement costs — out to thousands of clients, so the
    capture only needs to be long enough to be representative.  This
    helper is that capture: it drives the requests functionally (data is
    really written/read) and hands back the per-op traces without going
    through the performance model.
    """
    ledger = cluster.ledger
    traces_before = len(ledger.client_ops)
    write_buffer = os.urandom(spec.io_size)
    ledger.trace_ops = True
    try:
        for request in generate_requests(spec, image.size):
            if request.op == "write":
                receipt = image.write(request.offset,
                                      write_buffer[:request.length])
            else:
                receipt = image.read_with_receipt(
                    request.offset, request.length).receipt
            ledger.finish_op(receipt)
    finally:
        ledger.trace_ops = False
        ledger.discard_open_traces()
    return ledger.pop_client_ops(traces_before)
