"""Workload runner: executes a spec against images and measures simulated
throughput.

The runner is the reproduction's fio: it generates the request streams,
issues each request against its image (plaintext or encrypted — the
image's dispatcher decides), collects per-request cost receipts and the
cluster's cost-ledger delta, and asks the performance model for the
simulated elapsed time, bandwidth and IOPS.

As with fio's ``numjobs`` there is one job engine: a run is
``spec.num_clients`` independent streams, each with its own image, seed
(:meth:`~repro.workload.spec.WorkloadSpec.for_client`), client-side cache
and (when batching) :class:`~repro.engine.pipeline.IoPipeline`, interleaved
onto one shared cluster; a single-image run is the one-client case.

* In ``events`` mode the per-client traces replay through the
  discrete-event engine with every client keeping ``queue_depth`` ops in
  flight, so the shared OSD queues produce real contention: sub-linear
  aggregate bandwidth and a rising p99.
* In ``analytic`` mode the ledger delta is estimated at an effective depth
  of ``num_clients * queue_depth`` — a contention-free upper bound, and
  exactly what the contention benchmark compares against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .arrival import arrival_process_for, arrival_schedule
from .generator import generate_request_list
from .spec import WorkloadSpec
from ..cache import wrap_image
from ..engine.pipeline import EngineConfig, IoPipeline
from ..errors import WorkloadError
from ..rados.cluster import Cluster
from ..rbd.wrapper import ImageLike
from ..sim.fleet import simulate_closed_loop, simulate_fleet
from ..sim.ledger import ClientOpTrace, CostLedger
from ..sim.perfmodel import PerformanceEstimate, PerformanceModel
from ..util import MIB


def finish_cache_flush(ledger: CostLedger, cached, latencies: List[float]) -> None:
    """Issue a cached run's final flush barrier and account it.

    The flush is one client-visible operation (fio's ``end_fsync``); runs
    that left no dirty blocks record nothing.
    """
    receipt = cached.flush()
    if receipt.latency_us or receipt.bytes_moved:
        ledger.finish_op(receipt)
        latencies.append(receipt.latency_us)


def _payload(seed: int, length: int) -> bytes:
    """``length`` payload bytes that are a pure function of ``seed``, so two
    runs of one spec on fresh clusters store the same ciphertext."""
    return random.Random(seed).randbytes(length)


def prefill_image(image: ImageLike, chunk_size: int = MIB,
                  pattern_seed: int = 7) -> None:
    """Write the whole image once so later reads hit real (encrypted) data.

    The paper measures against a fully written 64 GiB image; read workloads
    on a sparse image would skip decryption entirely and be meaningless.
    """
    rng_buffer = _payload(pattern_seed, min(chunk_size, image.size))
    offset = 0
    while offset < image.size:
        length = min(chunk_size, image.size - offset)
        payload = rng_buffer[:length]
        image.write(offset, payload)
        offset += length


@dataclass
class WorkloadResult:
    """Everything measured for one (workload, layout) run of N >= 1 clients.

    ``estimate`` covers the whole cluster (aggregate bandwidth, combined
    IOPS, percentiles over every client's requests);
    ``per_client_latencies_us`` keeps each stream's own sample for
    fairness analysis.
    """

    spec: WorkloadSpec
    layout: str
    estimate: PerformanceEstimate
    counters: Dict[str, float] = field(default_factory=dict)
    latencies_us: List[float] = field(default_factory=list)
    num_clients: int = 1
    per_client_latencies_us: List[List[float]] = field(default_factory=list)

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
        return (f"{self.layout:14s} {self.spec.rw:9s} "
                f"bs={self.spec.io_size:>8d} x{self.num_clients:<3d} "
                f"{self.bandwidth_mbps:9.1f} MiB/s  {self.iops:9.0f} IOPS  "
                f"p99={self.percentile('p99'):9.1f} us")


class BatchedStreamIssuer:
    """The per-request issue policy for pipeline-driven streams.

    Writes flush any pending reads first (the pipeline's read barrier
    would do it anyway, but batching the reads beforehand keeps read
    windows intact); reads collect into windows of ``queue_depth`` and
    travel as one vectored read.
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


class _ClientStream:
    """One client's request stream, its issue-side state and what is done
    to it: issue a request, finish completed windows, drain at exhaustion —
    each under ``ledger.trace_client = index`` so its traces stay its own.
    """

    def __init__(self, ledger: CostLedger, index: int, image: ImageLike,
                 spec: WorkloadSpec) -> None:
        self._ledger = ledger
        self.index = index
        # Each client stream owns its cache (client-side caching), wrapped
        # around its own image; cache mode "pwl" selects the crash-safe
        # persistent write log instead of the block cache.
        self.image = wrap_image(image, spec.cache)
        self.cached = self.image if self.image is not image else None
        self.requests = generate_request_list(spec, image.size)
        self.cursor = 0
        self.write_buffer = _payload(spec.seed, spec.io_size)
        self.latencies: List[float] = []
        self.total_bytes = 0
        self.issuer: Optional[BatchedStreamIssuer] = None
        if spec.batched:
            pipeline = IoPipeline(self.image, EngineConfig(
                queue_depth=spec.queue_depth, batch_size=spec.batch_size))
            self.issuer = BatchedStreamIssuer(pipeline, spec)

    @property
    def exhausted(self) -> bool:
        return self.cursor >= len(self.requests)

    def issue_one(self) -> None:
        """Issue the next request and account whatever it completed."""
        self._ledger.trace_client = self.index
        request = self.requests[self.cursor]
        self.cursor += 1
        self.total_bytes += request.length
        if self.issuer is not None:
            self.issuer.issue(request, self.write_buffer)
            self._finish_windows(self.issuer.pipeline.poll())
            return
        if request.op == "write":
            receipt = self.image.write(request.offset,
                                       self.write_buffer[:request.length])
        else:
            receipt = self.image.read_with_receipt(
                request.offset, request.length).receipt
        self._ledger.finish_op(receipt)
        self.latencies.append(receipt.latency_us)

    def _finish_windows(self, completions) -> None:
        """Record finished windows: the batch latency is amortized over its
        requests so ``latencies`` stays per-request (comparable with
        unbatched runs and with the ledger's own mean).

        The pipeline claimed each window's event-engine traces at flush
        time (several windows can complete before one poll); restoring them
        right before ``finish_op`` seals them under this completion.
        """
        for completion in completions:
            self._ledger.restore_op_traces(completion.traces)
            self._ledger.finish_op(completion.receipt,
                                   ops=completion.requests)
            per_request = completion.receipt.latency_us / completion.requests
            self.latencies.extend([per_request] * completion.requests)

    def finish(self) -> None:
        """Drain an exhausted stream: pipeline first, then its cache."""
        self._ledger.trace_client = self.index
        if self.issuer is not None:
            self._finish_windows(self.issuer.drain())
        if self.cached is not None:
            # End-of-run flush barrier: dirty writeback blocks reach the
            # cluster inside the measured window, accounted as one final
            # client-visible operation (like fio's end_fsync).
            finish_cache_flush(self._ledger, self.cached, self.latencies)


def _interleave(streams: List[_ClientStream]) -> None:
    """Round-robin one request per client until every stream drains.

    Functional state is interleaved deterministically; *timing*
    interleaving happens later in the event replay, so the issue order
    here only has to keep each client's trace stream attributed to the
    right client.  Every stream of a spec has the same request count, so
    the drains and flushes run in client order after the last issues.
    """
    live = list(streams)
    while live:
        for stream in live:
            stream.issue_one()
        for stream in live:
            if stream.exhausted:
                stream.finish()
        live = [s for s in live if not s.exhausted]


def _drive(ledger: CostLedger, images: Sequence[ImageLike],
           spec: WorkloadSpec, capture: bool):
    """The drive half of a run: issue ``spec`` across ``images`` (one per
    client stream) for real; returns the streams, the ledger delta and,
    with ``capture`` on, each client's sealed op traces."""
    if len(images) != spec.num_clients:
        raise WorkloadError(
            f"spec wants {spec.num_clients} clients but "
            f"{len(images)} images were provided")
    if spec.prefill:
        for image in images:
            prefill_image(image)
    before = ledger.snapshot()
    # The caches (if requested) wrap the images *after* the prefill so
    # measurements start from a cold cache, like a freshly mapped disk.
    streams = [_ClientStream(ledger, i, image, spec.for_client(i))
               for i, image in enumerate(images)]
    traces_before = len(ledger.client_ops)
    if capture:
        ledger.trace_ops = True
    try:
        _interleave(streams)
    finally:
        ledger.trace_client = 0
        if capture:
            ledger.trace_ops = False
            ledger.discard_open_traces()
    traces: List[List[ClientOpTrace]] = [[] for _ in streams]
    if capture:
        for cop in ledger.pop_client_ops(traces_before):
            traces[cop.client].append(cop)
    return streams, ledger.diff(before), traces


class WorkloadRunner:
    """Runs workload specs as N >= 1 concurrent client streams on one cluster.

    ``tracer`` (a :class:`repro.obs.SpanTracer`) records the run's span
    timeline: in events mode the replay emits spans at the exact
    sim-clock instants that produce the reported latencies; in analytic
    mode the sealed traces are laid out on the serial contention-free
    timeline the closed-form bound assumes.  Each client stream lands on
    its own span track.
    """

    def __init__(self, cluster: Cluster, tracer=None) -> None:
        self._cluster = cluster
        self._model = PerformanceModel(cluster.params)
        self._tracer = tracer

    @property
    def cluster(self) -> Cluster:
        """The shared cluster every client stream contends for."""
        return self._cluster

    @property
    def sim_mode(self) -> str:
        """Which performance model converts the run into elapsed time."""
        return self._cluster.params.sim_mode

    def run(self, image: ImageLike, spec: WorkloadSpec,
            layout_name: Optional[str] = None) -> WorkloadResult:
        """Execute ``spec`` against ``image``: the one-client run."""
        return self.run_streams([image], spec, layout_name)

    def run_streams(self, images: Sequence[ImageLike], spec: WorkloadSpec,
                    layout_name: Optional[str] = None) -> WorkloadResult:
        """Execute ``spec`` across ``images``, one per client stream."""
        events = self.sim_mode == "events"
        open_loop = spec.arrival_rate is not None
        if open_loop and not events:
            raise WorkloadError(
                "open-loop arrivals need sim_mode='events' (the analytic "
                "model has no notion of arrival times)")
        streams, delta, traces = _drive(
            self._cluster.ledger, images, spec,
            capture=events or self._tracer is not None)
        total_bytes = sum(stream.total_bytes for stream in streams)
        # Batched windows are issued serially (the window *is* the queue
        # depth), so the Little's-law bound runs at depth 1; unbatched runs
        # keep spec.queue_depth operations in flight.
        model_depth = 1 if spec.batched else spec.queue_depth
        if events:
            if open_loop:
                # Each client issues on its own deterministic schedule
                # (the process seeds per client index), sized to the
                # stream's sealed op count (cache flushes and batch
                # windows count as ops of their own).
                arrivals = arrival_schedule(
                    arrival_process_for(spec),
                    [len(stream) for stream in traces])
                sim = simulate_fleet(self._cluster.params, traces,
                                     arrivals, tracer=self._tracer)
            else:
                sim = simulate_closed_loop(self._cluster.params, traces,
                                           model_depth, tracer=self._tracer)
            estimate = self._model.estimate_from_events(sim, total_bytes)
            # Report the simulated completion latencies (queue waiting
            # included) so the samples agree with the percentiles the
            # estimate carries, instead of the queueing-free receipts.
            latencies = list(sim.request_stats.sample)
            per_client_latencies = [list(stats.sample) for stats in
                                    sim.client_request_stats]
        else:
            if self._tracer is not None:
                from ..obs.spans import spans_from_client_ops
                for client, stream in enumerate(traces):
                    spans_from_client_ops(stream, self._tracer, client=client)
            per_client_latencies = [stream.latencies for stream in streams]
            latencies = [lat for sample in per_client_latencies
                         for lat in sample]
            # Without queueing, N independent depth-QD streams look like
            # one stream at depth N*QD to the Little's-law bound.
            estimate = self._model.estimate(
                delta, total_bytes, model_depth * spec.num_clients,
                latencies_us=latencies)
        layout = layout_name or self._layout_of(images[0])
        return WorkloadResult(
            spec=spec, layout=layout, estimate=estimate,
            counters=dict(delta.counters), latencies_us=latencies,
            num_clients=spec.num_clients,
            per_client_latencies_us=per_client_latencies)

    @staticmethod
    def _layout_of(image: ImageLike) -> str:
        layout = getattr(image.dispatcher, "layout", None)
        return layout.name if layout is not None else "plaintext"


def capture_template_stream(cluster: Cluster, image: ImageLike,
                            spec: WorkloadSpec) -> List[ClientOpTrace]:
    """Issue ``spec`` once with trace capture on; return the sealed traces.

    The fleet synthesizer (:func:`repro.sim.fleet.fleet_streams_from_template`)
    scales a short *real* captured stream — actual data path, actual
    crypto and placement costs — out to thousands of clients, so the
    capture only needs to be long enough to be representative.  This
    helper is that capture: the drive half of a one-client run (data is
    really written/read, exactly as the run would issue it) that hands
    back the per-op traces without going through the performance model.
    """
    _streams, _delta, (traces,) = _drive(cluster.ledger, [image], spec,
                                         capture=True)
    return traces
