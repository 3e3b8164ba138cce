"""Simulation support: cost parameters, the cost ledger and the performance
model that turns recorded resource usage into simulated elapsed time.

The paper's evaluation (Fig. 3 and Fig. 4) measures fio throughput against
a physical 3-node Ceph cluster.  This reproduction replaces the physical
testbed with a cost model: every simulated component (NVMe device, LSM
key-value store, network hop, OSD op processing) records the work it
performed into a :class:`~repro.sim.ledger.CostLedger`, and
:class:`~repro.sim.perfmodel.PerformanceModel` converts that work into an
estimated elapsed time using bottleneck analysis plus a queue-depth latency
bound.  See DESIGN.md §2 for why this substitution preserves the paper's
comparisons.

Contracts every consumer may rely on:

* **Determinism** — both performance models are pure functions of the
  recorded work: the analytic two-bound estimate reads only the ledger
  delta, and the event-driven replay (:mod:`repro.sim.scheduler`)
  processes the recorded :class:`~repro.sim.ledger.ClientOpTrace` streams
  through an explicitly ordered event loop with deterministic
  tie-breaking.  Same run, same seeds → bit-identical estimates; this is
  what makes the committed ``BENCH_*.json`` baselines gateable in CI.
* **Ledger completeness** — every simulated component charges *all* of
  its work (counters and resource busy time) before its call returns;
  snapshots/diffs of the ledger therefore bracket a run exactly.
* **Fresh state per replay** — a replay's queues accumulate state, so
  every entry point (:func:`simulate_client_ops`, :func:`simulate_fleet`)
  builds its event machine anew on each call.
* **Trace hygiene** — op traces are only recorded while
  ``ledger.trace_ops`` is on; unsealed traces must be either sealed by
  ``finish_op`` or dropped with ``discard_open_traces`` before the next
  run on the same cluster.
"""

from .compact import CompactStream, encode_stream, encode_streams, tile_stream
from .costparams import CostParameters, EVENT_ENGINES, SIM_MODES
from .fleet import (fleet_streams_from_template, simulate_closed_loop,
                    simulate_fleet)
from .ledger import ClientOpTrace, CostLedger, OpReceipt, OpTrace, OsdVisit
from .perfmodel import PerformanceModel, PerformanceEstimate
from .reservoir import LatencyReservoir, merge_reservoirs
from .scheduler import (EventSimResult, ServiceQueue, simulate_client_ops,
                        simulate_open_loop)

__all__ = [
    "CostParameters", "SIM_MODES", "EVENT_ENGINES", "CostLedger",
    "OpReceipt", "OpTrace", "OsdVisit", "ClientOpTrace", "ServiceQueue",
    "EventSimResult", "simulate_client_ops", "simulate_open_loop",
    "simulate_closed_loop", "simulate_fleet", "CompactStream",
    "encode_stream", "encode_streams", "tile_stream",
    "fleet_streams_from_template", "LatencyReservoir", "merge_reservoirs",
    "PerformanceModel", "PerformanceEstimate",
]
