"""Hierarchical span tracing over the simulated clock.

A :class:`SpanTracer` collects :class:`Span` records — named intervals on
named tracks, in simulated microseconds — from which the Chrome
trace-event exporter (:mod:`repro.obs.export`) renders a
Perfetto-loadable timeline.  Spans are emitted by the event engine
(:mod:`repro.sim.replay`) at the exact points where jobs occupy queues,
so start/end times are the *same* sim-clock instants that produce the
reported latencies (pinned by the golden tests).

The track hierarchy mirrors the data path::

    client N / ops     one span per client-visible op (kind, requests)
    client N / rados   one span per RADOS op in the chain (kind, retries)
    client N / cpu     dispatch CPU occupancy (crypto rides here)
    client N / net     client NIC transfer occupancy
    osd / osd.K        per-OSD service occupancy -> local ack
    net / cluster.net  replication / backfill pushes on the backend net

``cache-hit`` / ``pwl-append`` ops and ``backfill`` / ``ec-repair``
traffic appear as their own op kinds, so cache, write-log and recovery
phases separate visually without extra instrumentation.

:func:`spans_from_client_ops` reconstructs the same hierarchy for the
*analytic* model, where no event clock exists: traces are laid out as
the serial, contention-free timeline the closed-form bound assumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: default cap on retained spans; beyond it spans are counted as dropped
#: (a 1M-request fleet replay would otherwise hold millions of records).
DEFAULT_MAX_SPANS = 200_000


@dataclass
class Span:
    """One named interval on one (process, thread) track, sim-clock µs."""

    name: str
    cat: str
    start_us: float
    dur_us: float
    process: str
    thread: str
    args: Dict[str, object] = field(default_factory=dict)


class SpanTracer:
    """Collects spans; bounded; optionally namespaced per sweep point."""

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.spans: List[Span] = []
        self.dropped = 0
        self._max_spans = max_spans
        self._prefix = ""

    def begin_process(self, label: str) -> None:
        """Namespace subsequent spans' process names (one sweep point)."""
        self._prefix = f"{label}/" if label else ""

    def add(self, name: str, cat: str, start_us: float, dur_us: float,
            process: str, thread: str,
            args: Optional[Dict[str, object]] = None) -> None:
        """Record one span (drops and counts past the retention cap)."""
        if len(self.spans) >= self._max_spans:
            self.dropped += 1
            return
        self.spans.append(Span(name=name, cat=cat, start_us=start_us,
                               dur_us=dur_us,
                               process=self._prefix + process,
                               thread=thread, args=args or {}))

    # -- engine emission helpers (one call site each in repro.sim.replay) -----

    def client_dispatch(self, client: int, start_us: float,
                        dur_us: float) -> None:
        """Dispatch-CPU occupancy of one RADOS op (crypto included)."""
        self.add("dispatch", "client", start_us, dur_us,
                 f"client {client}", "cpu")

    def client_transfer(self, client: int, start_us: float,
                        dur_us: float) -> None:
        """Client NIC transfer occupancy of one RADOS op."""
        self.add("xfer", "client", start_us, dur_us,
                 f"client {client}", "net")

    def osd_visit(self, osd_id: int, start_us: float, end_us: float,
                  kind: str) -> None:
        """One OSD visit: service start to local acknowledgement."""
        self.add(kind, "osd", start_us, end_us - start_us,
                 "osd", f"osd.{osd_id}")

    def cluster_push(self, osd_id: int, start_us: float,
                     dur_us: float) -> None:
        """One replication/backfill push through the backend network."""
        self.add(f"push osd.{osd_id}", "net", start_us, dur_us,
                 "net", "cluster.net")

    def rados_op(self, client: int, kind: str, start_us: float,
                 end_us: float, retries: int) -> None:
        """One RADOS op: submit to acknowledged, retries folded in."""
        args: Dict[str, object] = {"retries": retries} if retries else {}
        self.add(kind, "rados", start_us, end_us - start_us,
                 f"client {client}", "rados", args)

    def client_op(self, client: int, kind: str, start_us: float,
                  end_us: float, requests: int) -> None:
        """One client-visible op (a whole serial RADOS chain)."""
        self.add(kind, "op", start_us, end_us - start_us,
                 f"client {client}", "ops", {"requests": requests})


def _op_kind(traces: Sequence) -> str:
    """Display kind of a client op: its first RADOS op's kind."""
    return traces[0].kind if traces else "noop"


def spans_from_client_ops(ops: Sequence, tracer: SpanTracer,
                          client: Optional[int] = None) -> None:
    """Reconstruct analytic-model spans from sealed ClientOpTrace records.

    The analytic estimate assumes a serial, contention-free pipeline; the
    reconstruction lays the chain out on exactly that timeline: each op
    starts when the previous one acknowledged, each RADOS op runs
    dispatch -> transfer -> half-RTT -> OSD visits (replicas pushed at
    arrival) -> half-RTT.
    """
    now = 0.0
    for cop in ops:
        c = cop.client if client is None else client
        op_start = now
        for trace in cop.traces:
            start = now
            tracer.client_dispatch(c, now, trace.client_cpu_us)
            now += trace.client_cpu_us
            tracer.client_transfer(c, now, trace.client_net_us)
            now += trace.client_net_us
            half_rtt = trace.network_us / 2.0
            arrival = now + half_rtt
            ack = arrival
            for i, visit in enumerate(trace.visits):
                begin = arrival
                if i > 0:
                    tracer.cluster_push(visit.osd_id, arrival, visit.push_us)
                    begin = arrival + visit.push_us + visit.hop_us
                local_ack = begin + max(visit.service_us, visit.latency_us)
                tracer.osd_visit(visit.osd_id, begin, local_ack, trace.kind)
                ack = max(ack, local_ack)
            now = ack + half_rtt
            tracer.rados_op(c, trace.kind, start, now, trace.retries)
        tracer.client_op(c, _op_kind(cop.traces), op_start, now,
                         cop.requests)


def span_sort_key(span: Span) -> Tuple:
    """Deterministic ordering for golden comparisons and exports."""
    return (span.process, span.thread, span.start_us, span.dur_us,
            span.name)
