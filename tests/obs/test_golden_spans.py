"""Bit-stable golden span timelines, pinned per sim mode.

The same synthetic client-op stream — RMW chains (write + read RADOS ops
per client op), 3-way replication, dispatch retries, a backfill push and
a zero-trace no-op — runs through both models:

* the **events** index-machine replay,
* the **analytic** serial-timeline reconstruction,

and each must reproduce its committed golden span list *bit-exactly*
(JSON float equality, not approx).  ``spans_events.json`` is also what
the legacy closure scheduler emitted until PR 24 deleted it.

Regenerate after an intentional model change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/obs/test_golden_spans.py
"""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.obs import SpanTracer, span_sort_key, spans_from_client_ops
from repro.obs.names import (KIND_BACKFILL, KIND_READ, KIND_WRITE)
from repro.sim.costparams import CostParameters
from repro.sim.fleet import simulate_closed_loop
from repro.sim.ledger import ClientOpTrace, OpTrace, OsdVisit

GOLDEN_DIR = Path(__file__).parent / "golden"
QUEUE_DEPTH = 1  # serial per client: keeps the RMW chain visually serial


def pinned_stream():
    """One client's op list: RMW chains, replicas, retries, backfill."""
    ops = []
    for i in range(5):
        visits = [OsdVisit(osd_id=j, service_us=10.0 + i, latency_us=20.0,
                           hop_us=2.0 if j else 0.0,
                           push_us=3.0 if j else 0.0)
                  for j in range(3)]
        # an unaligned write: read-modify-write chain of two RADOS ops
        rmw_read = OpTrace(kind=KIND_READ, client_cpu_us=2.0,
                           client_net_us=1.0, network_us=6.0,
                           visits=[OsdVisit(osd_id=1, service_us=8.0,
                                            latency_us=15.0)])
        write = OpTrace(kind=KIND_WRITE, client_cpu_us=5.0,
                        client_net_us=4.0, network_us=6.0, visits=visits,
                        retries=i % 2)
        ops.append(ClientOpTrace(client=0, requests=2,
                                 traces=[rmw_read, write]))
    # recovery traffic: a backfill push to a repaired OSD
    ops.append(ClientOpTrace(client=0, requests=1, traces=[OpTrace(
        kind=KIND_BACKFILL, client_cpu_us=1.0, client_net_us=2.0,
        network_us=4.0,
        visits=[OsdVisit(osd_id=2, service_us=30.0, latency_us=40.0,
                         hop_us=1.0, push_us=12.0)])]))
    # a request that never reached an OSD (e.g. sparse read): zero traces
    ops.append(ClientOpTrace(client=0, requests=1, traces=[]))
    return ops


def canonical(tracer: SpanTracer):
    return [dataclasses.asdict(span)
            for span in sorted(tracer.spans, key=span_sort_key)]


def check_golden(name: str, spans) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(spans, indent=1) + "\n")
    golden = json.loads(path.read_text())
    assert spans == golden, (
        f"span timeline drifted from {path.name}; if the model change is "
        f"intentional rerun with REPRO_UPDATE_GOLDEN=1")


def events_tracer() -> SpanTracer:
    params = CostParameters()
    tracer = SpanTracer()
    streams = [pinned_stream(), pinned_stream()]
    result = simulate_closed_loop(params, streams, QUEUE_DEPTH, tracer=tracer)
    # the golden covers the result too: elapsed time is part of the pin
    assert result.requests == sum(cop.requests for cop in pinned_stream()) * 2
    return tracer


class TestGoldenTimelines:
    def test_events_mode_matches_golden(self):
        check_golden("spans_events.json", canonical(events_tracer()))

    def test_analytic_mode_matches_golden(self):
        tracer = SpanTracer()
        spans_from_client_ops(pinned_stream(), tracer, client=0)
        check_golden("spans_analytic.json", canonical(tracer))


class TestChainReconstruction:
    """The pinned timeline reconstructs the full op anatomy."""

    @pytest.fixture(scope="class")
    def spans(self):
        return canonical(events_tracer())

    def test_rmw_chain_is_serial_within_one_client_op(self, spans):
        ops = [s for s in spans if s["thread"] == "ops"
               and s["process"] == "client 0"]
        rados = [s for s in spans if s["thread"] == "rados"
                 and s["process"] == "client 0"]
        first = min(ops, key=lambda s: s["start_us"])
        inside = [s for s in rados
                  if s["start_us"] >= first["start_us"]
                  and s["start_us"] + s["dur_us"]
                  <= first["start_us"] + first["dur_us"] + 1e-9]
        # the RMW chain: a read then a write, back to back, inside the op
        kinds = [s["name"] for s in sorted(inside,
                                           key=lambda s: s["start_us"])][:2]
        assert kinds == [KIND_READ, KIND_WRITE]

    def test_retry_counts_survive_into_span_args(self, spans):
        retried = [s for s in spans if s["args"].get("retries")]
        assert retried, "the pinned stream carries ops with retries > 0"
        assert all(s["thread"] == "rados" for s in retried)

    def test_backfill_appears_on_osd_and_backend_net_tracks(self, spans):
        osd_kinds = {s["name"] for s in spans if s["process"] == "osd"}
        assert KIND_BACKFILL in osd_kinds
        pushes = [s for s in spans if s["thread"] == "cluster.net"]
        assert pushes and all(s["name"].startswith("push osd.")
                              for s in pushes)

    def test_replica_visits_fan_out_from_one_write(self, spans):
        write_visits = {s["thread"] for s in spans
                        if s["process"] == "osd"
                        and s["name"] == KIND_WRITE}
        assert write_visits == {"osd.0", "osd.1", "osd.2"}

    def test_zero_trace_op_appears_as_noop(self, spans):
        noops = [s for s in spans if s["name"] == "noop"]
        assert noops and all(s["thread"] == "ops" for s in noops)
