"""Command-line interface: run the paper's experiments from a shell.

Usage (module form, no install step needed beyond ``pip install -e .``)::

    python -m repro.cli sweep --kind write --sizes 4K,64K,1M
    python -m repro.cli sweep --kind read  --layouts luks-baseline,object-end
    python -m repro.cli sectors --sizes 4K,32K,256K,4M
    python -m repro.cli demo

Subcommands
-----------
``sweep``
    Run the Fig. 3 / Fig. 4 layout comparison for a chosen IO-size sweep and
    print the bandwidth and overhead tables (optionally CSV).
``sectors``
    Print the §3.3 analytic sector-access table.
``fleet``
    Fleet-scale open-loop simulation: capture a short real trace, tile it
    out to ``--num-clients`` streams, and replay millions of requests
    through the vectorized event engine in seconds, e.g.::

        python -m repro.cli fleet --arrival-rate 200 \
            --num-clients 1000 --ops-per-client 1000
``crash``
    Crash/fault-injection harness: kill the client at a named pipeline
    stage (or all of them), recover from the surviving durable state and
    check prefix-consistent recovery of every acked write, e.g.::

        python -m repro.cli crash --fault-stage post-ack-pre-drain \
            --fault-seed 12345

    The seed defaults to the ``FAULT_SEED`` environment variable (or a
    fresh random one) and is always printed, so any failing run can be
    replayed exactly.
``failure-drill``
    OSD failure lifecycle: kill storage daemons mid-workload (primary or
    replica mid-transaction, or during backfill), serve degraded I/O
    through retry/failover, rebuild, and check that no acked write was
    lost and every replica set ends consistent, e.g.::

        python -m repro.cli failure-drill --fault-stage kill-primary-mid-txn \
            --osds 100 --fault-seed 12345
``demo``
    A tiny end-to-end demonstration (create an encrypted image, write, read,
    snapshot) printing the cluster's cost-ledger highlights.

The global ``--profile`` flag (before the subcommand) runs any of the above
under :mod:`cProfile` and prints the top-20 cumulative-time functions, so
performance work starts from measured hot spots rather than guesses.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from . import api
from .analysis.overhead import LayoutSweep, PAPER_LAYOUTS, SweepConfig
from .analysis.report import (format_bandwidth_table, format_cache_table,
                              format_latency_table, format_metrics_table,
                              format_overhead_table, format_pwl_table, to_csv)
from .analysis.sectors import SectorAccessModel, theoretical_overhead_table
from .cache.config import (CACHE_MODES, CACHE_POLICIES, DEFAULT_CACHE_SIZE,
                           CacheConfig)
from .errors import ReproError
from .sim.costparams import SIM_MODES, default_cost_parameters
from .util import MIB, format_size, parse_size
from .workload.spec import PAPER_IO_SIZES


def _parse_sizes(text: Optional[str]) -> Sequence[int]:
    if not text:
        return PAPER_IO_SIZES
    return tuple(parse_size(part) for part in text.split(",") if part)


def _parse_layouts(text: Optional[str]) -> Sequence[str]:
    if not text:
        return PAPER_LAYOUTS
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _make_tracer(args: argparse.Namespace):
    """A SpanTracer when ``--trace-out`` was passed, else None."""
    if not getattr(args, "trace_out", None):
        return None
    from .obs import SpanTracer
    return SpanTracer()


def _write_trace(args: argparse.Namespace, tracer) -> None:
    """Write the Perfetto-loadable Chrome trace next to the run output."""
    if tracer is None:
        return
    from .obs import write_chrome_trace
    write_chrome_trace(args.trace_out, tracer)
    note = (f" ({tracer.dropped} spans dropped past the retention cap)"
            if tracer.dropped else "")
    print(f"trace: {len(tracer.spans)} spans -> {args.trace_out} "
          f"(load in https://ui.perfetto.dev){note}")


def _write_metrics(args: argparse.Namespace, registry) -> None:
    """Write the Prometheus exposition and print the drill-down table."""
    if registry is None or not getattr(args, "metrics_out", None):
        return
    from .obs import write_prometheus
    write_prometheus(args.metrics_out, registry)
    print()
    print(format_metrics_table(registry, limit=40))
    print(f"metrics: Prometheus exposition -> {args.metrics_out}")


def _usage_error(args: argparse.Namespace, message: object) -> SystemExit:
    """A one-line exit naming the subcommand, instead of a traceback."""
    return SystemExit(f"repro {args.command}: {message}")


def _fault_seed(args: argparse.Namespace) -> int:
    """``--fault-seed``, else ``FAULT_SEED`` from the environment, else a
    fresh random seed (printed by the caller for exact replay)."""
    if args.fault_seed is not None:
        return args.fault_seed
    env_seed = os.environ.get("FAULT_SEED", "").strip()
    return int(env_seed) if env_seed else random.SystemRandom().randrange(2 ** 32)


def _pool_ec(args: argparse.Namespace) -> Optional[Tuple[int, int]]:
    """``--pool-ec K,M`` as a ``(k, m)`` pair (None when not given)."""
    if not args.pool_ec:
        return None
    from .rados.ec import EcProfile
    profile = EcProfile.parse(args.pool_ec)
    return profile.k, profile.m


def _sweep_config(args: argparse.Namespace) -> SweepConfig:
    """Build the whole sweep before anything runs.  Every rule the
    constructors check is theirs alone; only rules about how the flags
    combine are checked here."""
    if args.cache_mode is None and (args.cache_size or args.readahead
                                    or args.cache_policy != "lru"):
        raise _usage_error(args, "--cache-size/--readahead/--cache-policy "
                           "only take effect with --cache-mode")
    clone_depth = args.clone_depth
    if clone_depth is None:
        clone_depth = 1 if args.clone_of else 0
    if args.clone_of and clone_depth == 0:
        raise _usage_error(args, "--clone-of requires --clone-depth >= 1")
    if args.flatten and clone_depth == 0:
        raise _usage_error(args, "--flatten only takes effect with "
                           "--clone-of/--clone-depth")
    pool_ec = _pool_ec(args)
    cache = None
    if args.cache_mode is not None:
        cache = CacheConfig(mode=args.cache_mode,
                            size=args.cache_size or DEFAULT_CACHE_SIZE,
                            policy=args.cache_policy,
                            readahead_blocks=args.readahead)
    job = replace(
        SweepConfig().job, queue_depth=args.queue_depth,
        batched=args.batched, batch_size=args.batch_size,
        num_clients=args.num_clients, cache=cache,
        arrival_rate=args.arrival_rate,
        parent_image=(args.clone_of or "golden") if clone_depth else None,
        clone_depth=clone_depth)
    params = default_cost_parameters().with_overrides(sim_mode=args.sim_mode)
    return SweepConfig(
        io_sizes=_parse_sizes(args.sizes),
        layouts=_parse_layouts(args.layouts),
        image_size=parse_size(args.image_size),
        bytes_per_point=parse_size(args.bytes_per_point),
        osd_count=args.osds, replica_count=args.replicas,
        journaled=args.journaled, job=job, flatten=args.flatten,
        pool_ec=pool_ec, params=params)


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _sweep_config(args)
    tracer = _make_tracer(args)
    results = LayoutSweep(config, tracer=tracer).run(args.kind)
    print(format_bandwidth_table(results))
    print()
    if "luks-baseline" in results.layouts():
        print(format_overhead_table(results))
    latency_table = format_latency_table(results)
    if latency_table:
        print()
        print(latency_table)
    cache_table = format_cache_table(results)
    if cache_table:
        print()
        print(cache_table)
    pwl_table = format_pwl_table(results)
    if pwl_table:
        print()
        print(pwl_table)
    if args.csv:
        print()
        print(to_csv(results))
    _write_trace(args, tracer)
    if args.metrics_out:
        from .obs import registry_from_counters
        registry = None
        for layout in results.layouts():
            for io_size in results.io_sizes():
                point = results.result(layout, io_size)
                registry = registry_from_counters(
                    point.counters, registry,
                    layout=layout, io_size=format_size(io_size))
                registry.gauge(
                    "sweep_bandwidth_mibps",
                    "simulated bandwidth of one sweep point").labels(
                        layout=layout,
                        io_size=format_size(io_size)).set(
                            point.bandwidth_mbps)
        _write_metrics(args, registry)
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import time

    from .crypto.suite import SIMULATION_SUITE
    from .sim.compact import encode_stream
    from .sim.fleet import fleet_streams_from_template, simulate_fleet
    from .workload.arrival import PoissonArrivals, arrival_schedule
    from .workload.runner import capture_template_stream, prefill_image
    from .workload.spec import WorkloadSpec

    if args.num_clients < 1 or args.ops_per_client < 1:
        raise SystemExit("--num-clients/--ops-per-client must be positive")
    if args.arrival_rate <= 0:
        raise SystemExit("--arrival-rate must be positive")
    params = default_cost_parameters().with_overrides(
        sim_mode="events", osd_count=args.osds, replica_count=args.replicas)

    # Capture a short real trace: actual data path, crypto and placement.
    cluster = api.make_cluster(osd_count=args.osds,
                               replica_count=args.replicas, params=params)
    image, info = api.create_encrypted_image(
        cluster, "fleet-template", 32 * MIB, passphrase=b"fleet-template",
        encryption_format=args.layout, cipher_suite=SIMULATION_SUITE)
    spec = WorkloadSpec(
        name="fleet-template",
        rw="randread" if args.kind == "read" else "randwrite",
        io_size=parse_size(args.io_size), queue_depth=1,
        io_count=args.template_ops, seed=args.seed)
    if args.kind == "read":
        prefill_image(image)
    template = encode_stream(capture_template_stream(cluster, image, spec))

    # Tile it out to the fleet and replay open-loop.
    streams = fleet_streams_from_template(
        template, args.num_clients, args.ops_per_client,
        osd_count=args.osds)
    arrivals = arrival_schedule(
        PoissonArrivals(rate_per_client=args.arrival_rate, seed=args.seed),
        [stream.num_ops for stream in streams])
    tracer = _make_tracer(args)
    started = time.perf_counter()
    result = simulate_fleet(params, streams, arrivals, tracer=tracer)
    wall_s = time.perf_counter() - started

    stats = result.request_stats
    elapsed_s = result.elapsed_us / 1e6
    pcts = stats.percentiles()
    print(f"fleet: {args.num_clients} clients x {args.ops_per_client} ops "
          f"({args.kind} {format_size(spec.io_size)}, layout={info.layout}, "
          f"{args.osds} OSDs, engine={result.engine})")
    print(f"  requests    {result.requests:>12d} "
          f"({result.events_processed} simulated events)")
    print(f"  simulated   {elapsed_s:>12.2f} s   "
          f"({result.requests / elapsed_s:,.0f} IOPS aggregate, "
          f"bound={result.bounding_resource})")
    print(f"  latency     mean={stats.mean_us:.0f} us  "
          f"p50={pcts['p50']:.0f}  p95={pcts['p95']:.0f}  "
          f"p99={pcts['p99']:.0f} us"
          f"{'  (sampled)' if stats.sampled else ''}")
    print(f"  wall clock  {wall_s:>12.2f} s   "
          f"({result.requests / max(wall_s, 1e-9):,.0f} requests/s replayed)")
    _write_trace(args, tracer)
    if args.metrics_out:
        from .obs import registry_from_sim
        registry = registry_from_sim(result, kind=args.kind)
        _write_metrics(args, registry)
    return 0


def _cmd_crash(args: argparse.Namespace) -> int:
    from .faults.plan import ALL_STAGES
    from .faults.scenarios import run_crash_scenario

    if args.io_count < 1:
        raise SystemExit("--io-count must be positive")
    seed = _fault_seed(args)
    stages = ALL_STAGES if args.fault_stage == "all" else (args.fault_stage,)
    print(f"FAULT_SEED={seed}  "
          f"(rerun: repro crash --fault-seed {seed}"
          + (f" --fault-stage {args.fault_stage}"
             if args.fault_stage != "all" else "") + ")")
    failures = 0
    registry = None
    for stage in stages:
        result = run_crash_scenario(stage, seed, io_count=args.io_count)
        print(f"  {stage:24s} {result.summary()}")
        failures += 0 if result.ok else 1
        if args.metrics_out:
            from .obs import registry_from_counters
            registry = registry_from_counters(result.counters, registry,
                                              stage=stage)
    _write_metrics(args, registry)
    if failures:
        print(f"{failures} of {len(stages)} crash stage(s) FAILED "
              f"(seed {seed})")
        return 1
    print(f"all {len(stages)} crash stage(s) recovered prefix-consistently")
    return 0


def _cmd_failure_drill(args: argparse.Namespace) -> int:
    from .faults.drill import run_failure_drill
    from .faults.plan import EC_KILL_STAGES, REPLICATED_KILL_STAGES

    if args.osds < 3:
        raise SystemExit("--osds must be >= 3 (three-way replication)")
    pool_ec = _pool_ec(args)
    seed = _fault_seed(args)
    if args.fault_stage == "all":
        stages = EC_KILL_STAGES if pool_ec else REPLICATED_KILL_STAGES
    else:
        stages = (args.fault_stage,)
    print(f"FAULT_SEED={seed}  "
          f"(rerun: repro failure-drill --fault-seed {seed}"
          + (f" --fault-stage {args.fault_stage}"
             if args.fault_stage != "all" else "")
          + (f" --pool-ec {args.pool_ec}" if args.pool_ec else "")
          + f" --osds {args.osds})")
    failures = 0
    registry = None
    tracer = _make_tracer(args)
    for stage in stages:
        if tracer is not None:
            tracer.begin_process(stage)
        result = run_failure_drill(stage, seed, osd_count=args.osds,
                                   image_size=parse_size(args.image_size),
                                   pool_ec=pool_ec, tracer=tracer)
        print(f"  {stage:24s} {result.summary()}")
        failures += 0 if result.ok else 1
        if args.metrics_out:
            from .obs import registry_from_counters
            registry = registry_from_counters(result.counters, registry,
                                              stage=stage)
    _write_trace(args, tracer)
    _write_metrics(args, registry)
    if failures:
        print(f"{failures} of {len(stages)} failure stage(s) FAILED "
              f"(seed {seed})")
        return 1
    print(f"all {len(stages)} failure stage(s) recovered: no acked write "
          f"lost, replicas consistent")
    return 0


def _cmd_sectors(args: argparse.Namespace) -> int:
    model = SectorAccessModel(block_size=parse_size(args.block_size),
                              metadata_size=args.metadata_size)
    rows = theoretical_overhead_table(_parse_sizes(args.sizes), model)
    print("theoretical minimum sector accesses per IO (paper §3.3):")
    for row in rows:
        print(f"  {format_size(int(row['io_size'])):>9s}: baseline "
              f"{row['baseline_sectors']:>5.0f}  object-end "
              f"{row['object_end_sectors']:>5.0f} "
              f"(+{row['object_end_overhead_pct']:.1f}%)  unaligned "
              f"{row['unaligned_sectors']:>5.0f} "
              f"(+{row['unaligned_overhead_pct']:.1f}%)  omap-keys "
              f"{row['omap_keys']:.0f}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    cluster = api.make_cluster(osd_count=args.osds, replica_count=args.replicas)
    image, info = api.create_encrypted_image(
        cluster, "cli-demo", 32 * MIB, passphrase=b"cli-demo",
        encryption_format=args.layout, cipher_suite="blake2-xts-sim")
    image.write(0, b"written through the CLI demo")
    image.create_snapshot("before")
    image.write(0, b"WRITTEN THROUGH THE CLI DEMO")
    image.set_read_snapshot("before")
    snapshot_view = image.read(0, 28)
    image.set_read_snapshot(None)
    print(f"image: {image.name} ({format_size(image.size)}), layout={info.layout}, "
          f"codec={info.codec}, iv={info.iv_policy}")
    print(f"head     reads: {image.read(0, 28)!r}")
    print(f"snapshot reads: {snapshot_view!r}")
    print("ledger highlights:")
    for counter in ("device.ops", "device.sectors_written", "omap.keys_written",
                    "rados.transactions", "crypto.blocks"):
        print(f"  {counter:26s} {cluster.ledger.counter(counter):10.0f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Reproduction of 'Rethinking Block Storage "
        "Encryption with Virtual Disks' (HotStorage'22)")
    parser.add_argument("--profile", action="store_true",
                        help="run the command under cProfile and print the "
                        "top-20 cumulative-time functions (place before the "
                        "subcommand, e.g. 'repro --profile sweep ...')")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run the Fig.3/Fig.4 layout comparison")
    sweep.add_argument("--kind", choices=("read", "write"), default="write")
    sweep.add_argument("--sizes", help="comma-separated IO sizes (e.g. 4K,64K,1M)")
    sweep.add_argument("--layouts", help="comma-separated layouts "
                       f"(default: {','.join(PAPER_LAYOUTS)})")
    sweep.add_argument("--image-size", default="32M")
    sweep.add_argument("--bytes-per-point", default="8M")
    sweep.add_argument("--queue-depth", type=int, default=32)
    sweep.add_argument("--osds", type=int, default=3)
    sweep.add_argument("--replicas", type=int, default=3)
    sweep.add_argument("--journaled", action="store_true",
                       help="use journal-based consistency (ablation A1)")
    sweep.add_argument("--batched", action="store_true",
                       help="drive IO through the batched engine: up to "
                       "--queue-depth requests coalesce into one RADOS "
                       "transaction per object")
    sweep.add_argument("--batch-size", type=int, default=None,
                       help="cap on blocks per object per engine window")
    sweep.add_argument("--sim-mode", choices=SIM_MODES, default="analytic",
                       help="performance model: 'analytic' is the closed-"
                       "form two-bound fast path; 'events' replays the run "
                       "through the discrete-event engine (per-OSD FIFO "
                       "queues, replication fan-out, real queue waiting)")
    sweep.add_argument("--num-clients", type=int, default=1,
                       help="independent client streams per point, all "
                       "contending for one cluster (contention needs "
                       "--sim-mode events to be visible)")
    sweep.add_argument("--arrival-rate", type=float, default=None,
                       metavar="OPS_PER_SEC",
                       help="issue operations open-loop at this per-client "
                       "Poisson arrival rate (ops/s) instead of the closed "
                       "queue-depth loop; needs --sim-mode events")
    sweep.add_argument("--cache-mode", choices=CACHE_MODES, default=None,
                       help="client-side cache: 'writethrough' keeps the "
                       "RADOS write stream identical and absorbs reads; "
                       "'writeback' also coalesces dirty blocks into the "
                       "multi-block transaction path; 'pwl' acks writes "
                       "after a crash-safe persistent-log append and drains "
                       "in order")
    sweep.add_argument("--cache-size", default=None,
                       help="cache capacity per client (e.g. 8M; default "
                       "from repro.cache)")
    sweep.add_argument("--readahead", type=int, default=0,
                       help="max blocks of sequential-read prefetch "
                       "(0 = off)")
    sweep.add_argument("--cache-policy", choices=CACHE_POLICIES,
                       default="lru", help="cache eviction policy")
    sweep.add_argument("--clone-of", default=None, metavar="NAME",
                       help="run every sweep image as a COW clone of one "
                       "prefilled golden image of this name (implies "
                       "--clone-depth 1): reads descend the layered chain, "
                       "first writes pay librbd-style copyup, and every "
                       "layer carries its own encryption key")
    sweep.add_argument("--clone-depth", type=int, default=None,
                       help="layers between each image and the golden "
                       "parent (>= 1; requires or implies --clone-of)")
    sweep.add_argument("--flatten", action="store_true",
                       help="flatten every clone before measuring (control "
                       "run: a flattened clone performs like a standalone "
                       "image)")
    sweep.add_argument("--pool-ec", default=None, metavar="K,M",
                       help="store image data in an erasure-coded pool of "
                       "K data + M parity chunks (e.g. 4,2) instead of "
                       "3-way replication; needs --osds >= K+M")
    sweep.add_argument("--csv", action="store_true")
    sweep.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write a Prometheus text exposition of the "
                       "sweep's ledger counters (labeled by layout and "
                       "io_size) and print the metrics drill-down table")
    sweep.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a Perfetto-loadable Chrome trace of "
                       "per-op spans (client op -> RADOS op -> crypto/"
                       "dispatch -> per-OSD visit); open at "
                       "https://ui.perfetto.dev")
    sweep.set_defaults(func=_cmd_sweep)

    fleet = sub.add_parser(
        "fleet", help="fleet-scale open-loop simulation (capture a short "
        "real trace, tile it to --num-clients streams, replay vectorized)")
    fleet.add_argument("--num-clients", type=int, default=1000)
    fleet.add_argument("--ops-per-client", type=int, default=1000)
    fleet.add_argument("--arrival-rate", type=float, default=200.0,
                       metavar="OPS_PER_SEC",
                       help="per-client Poisson arrival rate (ops/s)")
    fleet.add_argument("--kind", choices=("read", "write"), default="write")
    fleet.add_argument("--io-size", default="4K")
    fleet.add_argument("--layout", default="object-end")
    fleet.add_argument("--osds", type=int, default=64,
                       help="cluster size the fleet spreads over")
    fleet.add_argument("--replicas", type=int, default=3)
    fleet.add_argument("--template-ops", type=int, default=32,
                       help="length of the captured template trace that is "
                       "tiled out to every client")
    fleet.add_argument("--seed", type=int, default=1234)
    fleet.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write a Prometheus text exposition of the "
                       "replay (elapsed, requests, latency histogram and "
                       "percentiles, queue waits)")
    fleet.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a Perfetto-loadable Chrome trace of "
                       "per-op spans; forces the exact index-machine "
                       "engine (spans carry every event's sim-clock "
                       "times)")
    fleet.set_defaults(func=_cmd_fleet)

    from .faults.plan import ALL_STAGES
    crash = sub.add_parser(
        "crash", help="kill the client at a named pipeline stage and check "
        "prefix-consistent crash recovery (the CI crash matrix entry point)")
    crash.add_argument("--fault-stage", choices=ALL_STAGES + ("all",),
                       default="all",
                       help="pipeline stage to kill at (default: all stages)")
    crash.add_argument("--fault-seed", type=int, default=None,
                       help="seed of the fault plan and workload; defaults "
                       "to the FAULT_SEED environment variable or a fresh "
                       "random seed — always printed for exact replay")
    crash.add_argument("--io-count", type=int, default=24,
                       help="writes issued before/while the fault fires")
    crash.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write a Prometheus text exposition of each "
                       "scenario's ledger counters, labeled by stage")
    crash.set_defaults(func=_cmd_crash)

    from .faults.plan import OSD_KILL_STAGES
    drill = sub.add_parser(
        "failure-drill", help="kill OSD daemons mid-workload and check the "
        "failure lifecycle: degraded I/O, retry/failover, backfill back to "
        "healthy (the CI failure matrix entry point)")
    drill.add_argument("--fault-stage", choices=OSD_KILL_STAGES + ("all",),
                       default="all",
                       help="where the daemon kill lands (default: all)")
    drill.add_argument("--fault-seed", type=int, default=None,
                       help="seed of the kill plan and workload; defaults "
                       "to the FAULT_SEED environment variable or a fresh "
                       "random seed — always printed for exact replay")
    drill.add_argument("--osds", type=int, default=100,
                       help="cluster size of the drill (host failure "
                       "domains, four OSDs per host)")
    drill.add_argument("--image-size", default="8M",
                       help="size of the encrypted drill image")
    drill.add_argument("--pool-ec", default=None, metavar="K,M",
                       help="run the drill against an erasure-coded pool "
                       "of K data + M parity chunks (e.g. 4,2) instead of "
                       "the replicated pool; '--fault-stage all' then "
                       "covers the EC kill stages")
    drill.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write a Prometheus text exposition of each "
                       "drill's ledger counters, labeled by stage")
    drill.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a Perfetto-loadable Chrome trace of "
                       "the rebuild-storm replay: degraded client ops, "
                       "backoff retries and backfill/ec-repair pushes on "
                       "distinct tracks, one process group per stage")
    drill.set_defaults(func=_cmd_failure_drill)

    sectors = sub.add_parser("sectors", help="print the analytic sector table")
    sectors.add_argument("--sizes")
    sectors.add_argument("--block-size", default="4K")
    sectors.add_argument("--metadata-size", type=int, default=16)
    sectors.set_defaults(func=_cmd_sectors)

    demo = sub.add_parser("demo", help="tiny end-to-end demonstration")
    demo.add_argument("--layout", default="object-end")
    demo.add_argument("--osds", type=int, default=3)
    demo.add_argument("--replicas", type=int, default=3)
    demo.set_defaults(func=_cmd_demo)
    return parser


def _run_profiled(args: argparse.Namespace) -> int:
    """Run the selected subcommand under cProfile and print a hot-spot
    summary (top-20 by cumulative time) so perf work starts from data."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    exit_code = profiler.runcall(args.func, args)
    print()
    print("profile (top 20 by cumulative time):")
    pstats.Stats(profiler, stream=sys.stdout) \
        .strip_dirs().sort_stats("cumulative").print_stats(20)
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.profile:
            return _run_profiled(args)
        return args.func(args)
    except ReproError as exc:
        raise _usage_error(args, exc) from None


if __name__ == "__main__":
    sys.exit(main())
