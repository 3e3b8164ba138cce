"""Multi-client workload runner: N independent streams, one shared cluster.

The paper's numbers come from *many* fio clients hammering the replicated
cluster at once; a single closed-loop stream cannot reproduce that regime.
:class:`ClusterWorkloadRunner` interleaves ``spec.num_clients`` independent
request streams — each with its own image, its own deterministic seed
(:meth:`~repro.workload.spec.WorkloadSpec.for_client`) and, when batching
is on, its own :class:`~repro.engine.pipeline.IoPipeline` — onto one shared
cluster, then hands the per-client operation traces to the performance
model:

* in ``events`` mode the traces replay through the discrete-event engine
  with every client keeping ``queue_depth`` ops in flight, so the shared
  OSD queues produce real contention: sub-linear aggregate bandwidth and a
  rising p99;
* in ``analytic`` mode the ledger delta is estimated at an effective depth
  of ``num_clients * queue_depth`` — useful as a contention-free upper
  bound, and exactly what the contention benchmark compares against.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .arrival import arrival_process_for, arrival_schedule
from .generator import generate_request_list
from .runner import (BatchedStreamIssuer, WorkloadResult, WorkloadRunner,
                     finish_cache_flush, prefill_image, wrap_in_cache)
from .spec import WorkloadSpec
from ..engine.pipeline import EngineConfig, IoPipeline
from ..errors import WorkloadError
from ..rados.cluster import Cluster
from ..rbd.wrapper import ImageLike
from ..sim.perfmodel import PerformanceModel
from ..sim.scheduler import simulate_client_ops, simulate_open_loop


@dataclass
class ClusterWorkloadResult(WorkloadResult):
    """Aggregate measurements of one multi-client run.

    ``estimate`` covers the whole cluster (aggregate bandwidth, combined
    IOPS, percentiles over every client's requests);
    ``per_client_latencies_us`` keeps each stream's own sample for
    fairness analysis.
    """

    num_clients: int = 1
    per_client_latencies_us: List[List[float]] = field(default_factory=list)

    def render(self) -> str:
        """One-line summary used by the benchmark output."""
        return (f"{self.layout:14s} {self.spec.rw:9s} "
                f"bs={self.spec.io_size:>8d} x{self.num_clients:<3d} "
                f"{self.bandwidth_mbps:9.1f} MiB/s  {self.iops:9.0f} IOPS  "
                f"p99={self.percentile('p99'):9.1f} us")


class _ClientStream:
    """One client's request stream plus its issue-side state."""

    def __init__(self, index: int, image: ImageLike, spec: WorkloadSpec) -> None:
        self.index = index
        # Each client stream owns its cache (client-side caching), wrapped
        # around its own image.
        self.image = wrap_in_cache(image, spec)
        self.cached = self.image if self.image is not image else None
        self.spec = spec
        self.requests = generate_request_list(spec, image.size)
        self.cursor = 0
        self.write_buffer = os.urandom(spec.io_size)
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


class ClusterWorkloadRunner:
    """Runs one workload spec as N concurrent client streams.

    ``tracer`` records span timelines exactly as in
    :class:`~repro.workload.runner.WorkloadRunner`; each client stream
    lands on its own span track.
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

    def run(self, images: Sequence[ImageLike], spec: WorkloadSpec,
            layout_name: Optional[str] = None) -> ClusterWorkloadResult:
        """Execute ``spec`` across ``images`` (one per client stream)."""
        if len(images) != spec.num_clients:
            raise WorkloadError(
                f"spec wants {spec.num_clients} clients but "
                f"{len(images)} images were provided")
        if spec.open_loop and self.sim_mode != "events":
            raise WorkloadError(
                "open-loop arrivals need sim_mode='events' (the analytic "
                "model has no notion of arrival times)")
        if spec.prefill:
            for image in images:
                prefill_image(image)

        ledger = self._cluster.ledger
        before = ledger.snapshot()
        events = self.sim_mode == "events"
        capture = events or self._tracer is not None
        traces_before = len(ledger.client_ops)
        if capture:
            ledger.trace_ops = True
        streams = [_ClientStream(i, image, spec.for_client(i))
                   for i, image in enumerate(images)]
        try:
            self._interleave(streams)
        finally:
            if capture:
                ledger.trace_ops = False
                ledger.trace_client = 0
                ledger.discard_open_traces()

        delta = ledger.diff(before)
        total_bytes = sum(stream.total_bytes for stream in streams)
        latencies = [lat for stream in streams for lat in stream.latencies]
        per_client_latencies = [s.latencies for s in streams]
        model_depth = 1 if spec.batched else spec.queue_depth
        if events:
            traces = ledger.pop_client_ops(traces_before)
            per_client = [[cop for cop in traces if cop.client == i]
                          for i in range(spec.num_clients)]
            if spec.open_loop:
                # Each client issues on its own deterministic schedule
                # (the process seeds per client index), sized to the
                # stream's sealed op count.
                arrivals = arrival_schedule(
                    arrival_process_for(spec),
                    [len(stream) for stream in per_client])
                sim = simulate_open_loop(self._cluster.params, per_client,
                                         arrivals, tracer=self._tracer)
            else:
                sim = simulate_client_ops(self._cluster.params, per_client,
                                          model_depth, tracer=self._tracer)
            estimate = self._model.estimate_from_events(sim, total_bytes)
            # As in WorkloadRunner: report simulated completion latencies
            # so the samples agree with the estimate's percentiles.
            latencies = list(sim.request_latencies_us)
            per_client_latencies = [list(sample) for sample in
                                    sim.client_request_latencies_us]
        else:
            if self._tracer is not None:
                from ..obs.spans import spans_from_client_ops
                traces = ledger.pop_client_ops(traces_before)
                for i in range(spec.num_clients):
                    spans_from_client_ops(
                        [cop for cop in traces if cop.client == i],
                        self._tracer, client=i)
            # Without queueing, N independent depth-QD streams look like
            # one stream at depth N*QD to the Little's-law bound.
            estimate = self._model.estimate(
                delta, total_bytes, model_depth * spec.num_clients,
                latencies_us=latencies)
        layout = layout_name or self._layout_of(images[0])
        return ClusterWorkloadResult(
            spec=spec, layout=layout, estimate=estimate,
            counters=dict(delta.counters), latencies_us=latencies,
            num_clients=spec.num_clients,
            per_client_latencies_us=per_client_latencies)

    # -- issue-side machinery --------------------------------------------------

    def _interleave(self, streams: List[_ClientStream]) -> None:
        """Round-robin one request per client until every stream drains.

        Functional state is interleaved deterministically; *timing*
        interleaving happens later in the event replay, so the issue order
        here only has to keep each client's trace stream attributed to the
        right client (``ledger.trace_client`` is set before every issue
        and every completion poll).
        """
        live = list(streams)
        while live:
            for stream in live:
                self._issue_one(stream)
            for stream in live:
                if stream.exhausted:
                    self._finish_stream(stream)
            live = [s for s in live if not s.exhausted]

    def _issue_one(self, stream: _ClientStream) -> None:
        if stream.exhausted:
            return
        ledger = self._cluster.ledger
        ledger.trace_client = stream.index
        request = stream.requests[stream.cursor]
        stream.cursor += 1
        stream.total_bytes += request.length
        if stream.issuer is not None:
            # Shared issue policy with the single-client runner.
            stream.issuer.issue(request, stream.write_buffer)
            for completion in stream.issuer.pipeline.poll():
                self._finish_completion(stream, completion)
            return
        if request.op == "write":
            receipt = stream.image.write(
                request.offset, stream.write_buffer[:request.length])
        else:
            receipt = stream.image.read_with_receipt(
                request.offset, request.length).receipt
        ledger.finish_op(receipt)
        stream.latencies.append(receipt.latency_us)

    def _finish_stream(self, stream: _ClientStream) -> None:
        """Drain an exhausted stream: pipeline first, then its cache."""
        ledger = self._cluster.ledger
        if stream.issuer is not None:
            ledger.trace_client = stream.index
            for completion in stream.issuer.drain():
                self._finish_completion(stream, completion)
        if stream.cached is not None:
            ledger.trace_client = stream.index
            finish_cache_flush(ledger, stream.cached, stream.latencies)

    def _finish_completion(self, stream: _ClientStream, completion) -> None:
        ledger = self._cluster.ledger
        ledger.trace_client = stream.index
        WorkloadRunner._finish_completion(ledger, completion,
                                          stream.latencies)

    @staticmethod
    def _layout_of(image: ImageLike) -> str:
        layout = getattr(image.dispatcher, "layout", None)
        return layout.name if layout is not None else "plaintext"
