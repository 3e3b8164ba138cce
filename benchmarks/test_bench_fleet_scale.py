"""Fleet-scale replay benchmark: 1,000 open-loop clients, >= 1M requests.

The paper's testbed tops out at a handful of fio clients; a cloud
operator cares about the *fleet* regime — a thousand encrypted virtual
disks issuing on independent Poisson schedules against one large
replicated cluster.  This benchmark pins that regime end to end:

1. a short **real** trace is captured through the actual data path
   (encryption layout, crypto, object placement) on a 64-OSD cluster;
2. the trace is tiled out to 1,000 clients x 1,000 ops (placement
   rotated per client) in compact numpy columns — one million client
   ops, at least one million simulated requests, no per-op objects;
3. the vectorized open-loop engine replays the whole fleet.

The assertions are the PR's contract: the replay must finish within a
hard wall-clock ceiling (it runs in a few seconds on one core — the old
per-op scheduler took minutes and gigabytes), and the reported
percentiles/moments must be bit-stable run to run, which is what lets
CI drift-gate them via the committed ``BENCH_fleet.json``.
"""

from __future__ import annotations

import time

from repro.api import create_encrypted_image, make_cluster
from repro.crypto.suite import SIMULATION_SUITE
from repro.sim.compact import encode_stream
from repro.sim.costparams import default_cost_parameters
from repro.sim.fleet import fleet_streams_from_template, simulate_fleet
from repro.util import KIB, MIB
from repro.workload.arrival import PoissonArrivals, arrival_schedule
from repro.workload.runner import capture_template_stream
from repro.workload.spec import WorkloadSpec

NUM_CLIENTS = 1000
OPS_PER_CLIENT = 1000
ARRIVAL_RATE = 200.0          # ops/s per client -> 200k IOPS offered load
OSD_COUNT = 64
TEMPLATE_OPS = 32
#: hard ceiling on replaying the million-request fleet (measured ~6 s on
#: one core; the ceiling leaves ~10x headroom for slow CI runners)
WALL_CEILING_S = 60.0


def _capture_template():
    """One short real run through the encrypted data path."""
    params = default_cost_parameters().with_overrides(
        sim_mode="events", osd_count=OSD_COUNT, replica_count=3)
    cluster = make_cluster(osd_count=OSD_COUNT, replica_count=3,
                           params=params)
    image, _info = create_encrypted_image(
        cluster, "fleet-template", 32 * MIB, passphrase=b"fleet-template",
        encryption_format="object-end", cipher_suite=SIMULATION_SUITE)
    spec = WorkloadSpec(name="fleet-template", rw="randwrite",
                        io_size=4 * KIB, queue_depth=1,
                        io_count=TEMPLATE_OPS, seed=1234)
    template = encode_stream(capture_template_stream(cluster, image, spec))
    return params, template


def test_fleet_scale_replay(benchmark):
    params, template = _capture_template()
    streams = fleet_streams_from_template(template, NUM_CLIENTS,
                                          OPS_PER_CLIENT,
                                          osd_count=OSD_COUNT)
    arrivals = arrival_schedule(
        PoissonArrivals(rate_per_client=ARRIVAL_RATE, seed=1234),
        [stream.num_ops for stream in streams])
    timing = {}

    def replay():
        started = time.perf_counter()
        result = simulate_fleet(params, streams, arrivals)
        timing["wall_s"] = time.perf_counter() - started
        return result

    result = benchmark.pedantic(replay, rounds=1, iterations=1)
    stats = result.request_stats
    pcts = stats.percentiles()
    elapsed_s = result.elapsed_us / 1e6
    wall_s = timing["wall_s"]

    print()
    print(f"fleet replay: {NUM_CLIENTS} clients x {OPS_PER_CLIENT} ops, "
          f"{OSD_COUNT} OSDs, engine={result.engine}")
    print(f"  requests  {result.requests:>12d}  "
          f"({result.events_processed} simulated events)")
    print(f"  simulated {elapsed_s:>12.2f} s  "
          f"({result.requests / elapsed_s:,.0f} IOPS, "
          f"bound={result.bounding_resource})")
    print(f"  latency   mean={stats.mean_us:.1f} "
          f"p50={pcts['p50']:.1f} p95={pcts['p95']:.1f} "
          f"p99={pcts['p99']:.1f} us")
    print(f"  wall      {wall_s:>12.2f} s  "
          f"({result.requests / max(wall_s, 1e-9):,.0f} requests/s replayed)")

    # -- scale contract ------------------------------------------------------
    assert result.requests >= 1_000_000, "the fleet run must replay >= 1M requests"
    assert result.engine == "vectorized"
    assert wall_s < WALL_CEILING_S, (
        f"million-request replay took {wall_s:.1f} s "
        f"(ceiling {WALL_CEILING_S:.0f} s)")
    # The offered load is below cluster saturation: latency is paced by
    # the arrival process, not by a saturated resource.
    assert result.bounding_resource == "arrival(open-loop)"

    # -- deterministic signature gated by CI (wall time stays a string so
    # the drift gate skips it — it is runner noise, not a model output) --
    benchmark.extra_info["num_clients"] = NUM_CLIENTS
    benchmark.extra_info["requests"] = result.requests
    benchmark.extra_info["events"] = result.events_processed
    benchmark.extra_info["simulated_s"] = round(elapsed_s, 3)
    benchmark.extra_info["mean_us"] = round(stats.mean_us, 1)
    benchmark.extra_info["p50_us"] = round(pcts["p50"], 1)
    benchmark.extra_info["p95_us"] = round(pcts["p95"], 1)
    benchmark.extra_info["p99_us"] = round(pcts["p99"], 1)
    benchmark.extra_info["bound"] = result.bounding_resource
    benchmark.extra_info["wall_s"] = f"{wall_s:.2f}"


def test_fleet_sharded_replay_matches_single_shard(benchmark):
    """The sharded path (4 contention domains, process-parallel merge)
    must reproduce its own deterministic signature at fleet scale; a
    reduced fleet keeps this second full replay cheap."""
    params, template = _capture_template()
    streams = fleet_streams_from_template(template, 200, 250,
                                          osd_count=OSD_COUNT)
    arrivals = arrival_schedule(
        PoissonArrivals(rate_per_client=ARRIVAL_RATE, seed=1234),
        [stream.num_ops for stream in streams])
    sharded = params.with_overrides(sim_shards=4, sim_jobs=2)

    def replay():
        return simulate_fleet(sharded, streams, arrivals)

    result = benchmark.pedantic(replay, rounds=1, iterations=1)
    again = simulate_fleet(sharded, streams, arrivals)
    assert result.elapsed_us == again.elapsed_us
    assert result.request_stats.summary() == again.request_stats.summary()
    pcts = result.request_stats.percentiles()
    benchmark.extra_info["requests"] = result.requests
    benchmark.extra_info["simulated_s"] = round(result.elapsed_us / 1e6, 3)
    benchmark.extra_info["mean_us"] = round(result.request_stats.mean_us, 1)
    benchmark.extra_info["p99_us"] = round(pcts["p99"], 1)
