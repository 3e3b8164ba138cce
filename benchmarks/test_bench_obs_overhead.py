"""Observability overhead gate: metrics on a 1M-request fleet replay.

The metrics registry is *pull-model*: nothing on the replay hot path
writes a metric — the run finishes, and the registry is built once from
the result the engine already produced (counters, latency reservoir,
queue waits), then rendered to the Prometheus text exposition.  So the
replay with metrics on *is* the bare ``simulate_fleet`` call, and what
observability adds is exactly ``registry_from_sim`` + ``to_prometheus``
on the finished result.  This benchmark times that added work itself
(min of 5, on a held result) against the min bare replay and pins the
ratio at **5%**.

It deliberately does not difference two replay timings: holding a
1M-request result while the next replay allocates moves the wall time
by tens of percent either way (allocator and GC state, not
observability), which is what the previous form of this gate measured.

Wall times are attached as strings (runner noise, ignored by the drift
gate); the deterministic signature — request count, exposition sample
count, series counts — is numeric and drift-gated via the committed
``BENCH_obs.json``.
"""

from __future__ import annotations

import time

from repro.obs import registry_from_sim, to_prometheus
from repro.sim.fleet import fleet_streams_from_template, simulate_fleet
from repro.workload.arrival import PoissonArrivals, arrival_schedule

from test_bench_fleet_scale import (ARRIVAL_RATE, NUM_CLIENTS, OPS_PER_CLIENT,
                                    OSD_COUNT, _capture_template)

#: ceiling on the export work relative to the replay it observes
MAX_OVERHEAD = 0.05
BARE_RUNS = 3
EXPORT_RUNS = 5


def test_obs_overhead_on_fleet_replay(benchmark):
    params, template = _capture_template()
    streams = fleet_streams_from_template(template, NUM_CLIENTS,
                                          OPS_PER_CLIENT,
                                          osd_count=OSD_COUNT)
    arrivals = arrival_schedule(
        PoissonArrivals(rate_per_client=ARRIVAL_RATE, seed=1234),
        [stream.num_ops for stream in streams])

    # warm-up pass: page in the numpy columns so no timed replay pays
    # first-touch costs
    result = simulate_fleet(params, streams, arrivals)
    bare_runs = []
    for _ in range(BARE_RUNS):
        started = time.perf_counter()
        result = simulate_fleet(params, streams, arrivals)
        bare_runs.append(time.perf_counter() - started)

    export_runs, expositions = [], set()

    def export():
        started = time.perf_counter()
        text = to_prometheus(registry_from_sim(result, kind="write"))
        export_runs.append(time.perf_counter() - started)
        expositions.add(text)
        return text

    exposition = benchmark.pedantic(export, rounds=EXPORT_RUNS, iterations=1)
    bare_s = min(bare_runs)
    export_s = min(export_runs)
    overhead = export_s / bare_s

    samples = [line for line in exposition.splitlines()
               if line and not line.startswith("#")]
    histogram_samples = [line for line in samples if "_bucket" in line]

    print()
    print(f"obs overhead: {result.requests} requests, engine={result.engine}")
    print(f"  bare replay  {bare_s:8.2f} s   (min of {len(bare_runs)})")
    print(f"  export       {1e3 * export_s:8.2f} ms  (min of "
          f"{len(export_runs)}, {len(samples)} exposition samples)")
    print(f"  overhead     {overhead:8.2%}  (ceiling {MAX_OVERHEAD:.0%})")

    assert result.requests >= 1_000_000
    assert result.engine == "vectorized"
    assert len(samples) > 30, "the exposition must carry the full signature"
    assert len(expositions) == 1, (
        "exporting must be a pure function of the finished result")
    assert overhead <= MAX_OVERHEAD, (
        f"building and rendering the registry cost {overhead:.1%} of the "
        f"replay it observes (ceiling {MAX_OVERHEAD:.0%})")

    benchmark.extra_info["requests"] = result.requests
    benchmark.extra_info["exposition_samples"] = len(samples)
    benchmark.extra_info["histogram_samples"] = len(histogram_samples)
    benchmark.extra_info["simulated_s"] = round(result.elapsed_us / 1e6, 3)
    # wall-clock numbers stay strings so the drift gate skips them
    benchmark.extra_info["bare_wall_s"] = f"{bare_s:.2f}"
    benchmark.extra_info["export_wall_ms"] = f"{1e3 * export_s:.2f}"
    benchmark.extra_info["overhead_pct"] = f"{100 * overhead:.2f}"
