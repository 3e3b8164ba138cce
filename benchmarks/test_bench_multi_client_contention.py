"""Experiment E7 — multi-client contention through the event-driven engine.

The paper's testbed runs many fio clients against one replicated cluster;
this benchmark reproduces that regime with the discrete-event simulator:
1, 4 and 16 independent client streams (64 KiB random writes, QD 8 each,
object-end layout) contend for one fixed 3-OSD cluster.  It checks the two
signatures of real contention:

* **sub-linear aggregate bandwidth** — the cluster saturates, so 4 clients
  deliver far less than 4x one client's throughput;
* **monotonically rising p99** — queue waiting concentrates in the tail.

It also anchors the event engine to the analytic model: the single-client
event-mode result must stay within 15% of the analytic estimate (the same
band the regression suite enforces across the Fig. 3 sweeps).
"""

from __future__ import annotations

from bench_common import sweep_config

from repro.analysis.overhead import LayoutSweep
from repro.sim.costparams import default_cost_parameters

CLIENT_COUNTS = (1, 4, 16)
IO_SIZE = 64 * 1024
QUEUE_DEPTH = 8


def _config(sim_mode, num_clients):
    params = default_cost_parameters().with_overrides(osd_shards=2,
                                                      sim_mode=sim_mode)
    return sweep_config(io_sizes=(IO_SIZE,), layouts=("object-end",),
                        image_size=32 * 1024 * 1024,
                        object_size=512 * 1024,
                        bytes_per_point=4 * 1024 * 1024,
                        queue_depth=QUEUE_DEPTH,
                        num_clients=num_clients, params=params)


def _run_point(sim_mode, num_clients):
    results = LayoutSweep(_config(sim_mode, num_clients)).run("write")
    return results.result("object-end", IO_SIZE)


def test_multi_client_contention(benchmark):
    points = {}

    def sweep():
        for clients in CLIENT_COUNTS:
            points[clients] = _run_point("events", clients)
        return points

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    print()
    print("event-driven randwrite 64 KiB, object-end layout, QD 8/client:")
    for clients in CLIENT_COUNTS:
        result = points[clients]
        print(f"  clients={clients:3d}  agg {result.bandwidth_mbps:8.1f} MiB/s"
              f"  per-client {result.bandwidth_mbps / clients:7.1f}"
              f"  p50={result.percentile('p50'):8.1f}"
              f"  p99={result.percentile('p99'):9.1f} us"
              f"  bound={result.estimate.bounding_resource}")
        benchmark.extra_info[f"agg_mbps[n={clients}]"] = round(
            result.bandwidth_mbps, 1)
        benchmark.extra_info[f"p99_us[n={clients}]"] = round(
            result.percentile("p99"), 1)

    # Contention signature 1: sub-linear aggregate bandwidth.
    for few, many in zip(CLIENT_COUNTS, CLIENT_COUNTS[1:]):
        scale = many / few
        assert (points[many].bandwidth_mbps
                < 0.75 * scale * points[few].bandwidth_mbps), (
            f"{many} clients should aggregate clearly sub-linearly "
            f"vs {few}")
    # Contention signature 2: the tail grows monotonically.
    for few, many in zip(CLIENT_COUNTS, CLIENT_COUNTS[1:]):
        assert (points[many].percentile("p99")
                > points[few].percentile("p99")), (
            f"p99 must rise from {few} to {many} clients")


def test_single_client_events_anchor_analytic(benchmark):
    def run_both():
        return _run_point("analytic", 1), _run_point("events", 1)

    analytic, events = benchmark.pedantic(run_both, rounds=1, iterations=1)
    benchmark.extra_info["analytic_mbps"] = round(analytic.bandwidth_mbps, 1)
    benchmark.extra_info["events_mbps"] = round(events.bandwidth_mbps, 1)
    deviation = abs(events.bandwidth_mbps - analytic.bandwidth_mbps)
    assert deviation <= 0.15 * analytic.bandwidth_mbps, (
        f"single-client event mode ({events.bandwidth_mbps:.1f} MiB/s) "
        f"deviates more than 15% from analytic "
        f"({analytic.bandwidth_mbps:.1f} MiB/s)")
