"""Experiment E10 — persistent write log: ack latency vs drain cost.

libRBD's persistent write-back cache (pwl) acks a write as soon as it is
durable in a local log, then drains to the cluster in order.  In the cost
model this trades the full encrypted round trip (client CPU + network +
replicated OSD transaction) on the ack path for a local append at PMEM-ish
latency, while the cluster still absorbs every byte on the drain path.

This benchmark pins that trade on two axes:

* **acked write latency** — p50 of 4 KiB random writes must collapse when
  acks come from the log instead of the cluster round trip, on every
  metadata layout.  Acceptance: **>= 5x lower p50** than the uncached
  engine (gated as a ``speedup_*`` floor in CI).
* **conservation of drain work** — every acked byte must still reach the
  cluster: after the run flushes, ``pwl.drained_records`` equals
  ``pwl.appends`` and RADOS still sees the writes.

All numbers are deterministic (seeded workloads, simulated time), so the
committed ``BENCH_pwl.json`` baseline is gated in CI: ``speedup_*`` keys
as floors, everything else at ±10% drift.
"""

from __future__ import annotations

from repro import api
from repro.cache import CacheConfig
from repro.util import KIB, MIB
from repro.workload.runner import WorkloadRunner
from repro.workload.spec import WorkloadSpec

LAYOUTS = ("luks-baseline", "object-end", "omap")
IMAGE_SIZE = 4 * MIB
OBJECT_SIZE = 1 * MIB
TOTAL_BYTES = 4 * MIB
QUEUE_DEPTH = 1              # latency benchmark: no queueing on the ack path


def _run(layout, label, spec):
    cluster = api.make_cluster(osd_count=3, replica_count=3)
    image, _info = api.create_encrypted_image(
        cluster, f"pwl-bench-{label}", IMAGE_SIZE,
        passphrase=b"benchmark-passphrase", encryption_format=layout,
        cipher_suite="blake2-xts-sim", object_size=OBJECT_SIZE,
        random_seed=f"pwl-bench-{label}".encode("utf-8"))
    return WorkloadRunner(cluster).run(image, spec, layout_name=layout)


def _write_spec(**overrides):
    base = dict(name="pwl-randwrite", rw="randwrite", io_size=4 * KIB,
                queue_depth=QUEUE_DEPTH, total_bytes=TOTAL_BYTES, seed=1717)
    base.update(overrides)
    return WorkloadSpec(**base)


def test_pwl_ack_latency_vs_uncached(benchmark):
    """Log-acked writes must cut p50 latency >= 5x on every layout."""
    points = {}

    def sweep():
        for layout in LAYOUTS:
            uncached = _run(layout, f"un-{layout}", _write_spec())
            pwl = _run(layout, f"pwl-{layout}", _write_spec(
                cache=CacheConfig(mode="pwl", size=8 * MIB)))
            points[layout] = (uncached, pwl)
        return points

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    print()
    print("4 KiB randwrite QD1: cluster-acked vs log-acked p50 latency:")
    for layout in LAYOUTS:
        uncached, pwl = points[layout]
        un_p50 = uncached.percentile("p50")
        pwl_p50 = pwl.percentile("p50")
        speedup = un_p50 / max(pwl_p50, 1e-9)
        print(f"  {layout:14s} p50 {un_p50:8.1f} -> {pwl_p50:6.1f} us "
              f"({speedup:5.1f}x)  bw {uncached.bandwidth_mbps:7.1f} -> "
              f"{pwl.bandwidth_mbps:7.1f} MiB/s")
        benchmark.extra_info[f"speedup_p50[{layout}]"] = round(speedup, 1)
        benchmark.extra_info[f"pwl_p50_us[{layout}]"] = round(pwl_p50, 1)
        benchmark.extra_info[f"pwl_mbps[{layout}]"] = round(
            pwl.bandwidth_mbps, 1)
        assert speedup >= 5.0, (
            f"{layout}: log ack must be >= 5x faster than the round trip "
            f"({un_p50:.1f} vs {pwl_p50:.1f} us)")


def test_pwl_drain_conserves_every_acked_write(benchmark):
    """Acked bytes are a debt: the drain path must pay all of them."""
    points = {}

    def sweep():
        for layout in LAYOUTS:
            points[layout] = _run(layout, f"drain-{layout}", _write_spec(
                cache=CacheConfig(mode="pwl", size=1 * MIB)))
        return points

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    print()
    print("pwl drain conservation (1 MiB log, 4 MiB written):")
    for layout in LAYOUTS:
        result = points[layout]
        appends = result.counter("pwl.appends")
        drained = result.counter("pwl.drained_records")
        txns = result.counter("rados.transactions")
        print(f"  {layout:14s} appends {appends:5.0f}  drained {drained:5.0f}"
              f"  rados txns {txns:6.0f}  checkpoints "
              f"{result.counter('pwl.checkpoints'):4.0f}")
        benchmark.extra_info[f"appends[{layout}]"] = round(appends)
        benchmark.extra_info[f"drained[{layout}]"] = round(drained)
        benchmark.extra_info[f"rados_txns[{layout}]"] = round(txns)
        assert appends == drained, (
            f"{layout}: {appends - drained:.0f} acked records never drained")
        assert txns >= appends, (
            f"{layout}: drain must issue one transaction per record")
