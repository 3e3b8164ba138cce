"""Experiment E9 — boot-storm fan-out over one encrypted golden image.

The killer production deployment of client-side encrypted virtual disks:
one protected golden snapshot, N per-client COW clones, each clone under
its own LUKS key (librbd layered encryption, the authors' upstream Ceph
contribution).  Two phases bound the scenario:

* **read-mostly boot storm** — every client random-reads its freshly
  cloned (empty) image, so *all* data is served by descending the chain
  into the shared parent: the clone tax on reads is the per-object
  existence discovery plus the parent-layer decryption.  A flattened
  control run on the same cluster shows the tax directly.
* **write-heavy copyup phase** — every client random-writes its clone,
  so first touches pay librbd-style copyup (full backing object read
  from the parent + one atomic child transaction re-encrypted under the
  child's key); re-touching warm objects costs nothing extra.

All numbers are simulated and deterministic (seeded workloads, seeded
IVs), so the committed ``BENCH_clone.json`` baseline is gated at ±10%
drift in CI next to the other baselines.
"""

from __future__ import annotations

from repro import api
from repro.clone import clone_fanout
from repro.util import KIB, MIB
from repro.workload.runner import WorkloadRunner, prefill_image
from repro.workload.spec import WorkloadSpec

LAYOUT = "object-end"
IMAGE_SIZE = 4 * MIB
OBJECT_SIZE = 512 * KIB
NUM_CLIENTS = 8
QUEUE_DEPTH = 8
PHASE_BYTES = 2 * MIB       # per client, per phase


def _golden_cluster(label):
    cluster = api.make_cluster(osd_count=3, replica_count=3)
    golden, _info = api.create_encrypted_image(
        cluster, "golden", IMAGE_SIZE, b"golden-passphrase",
        encryption_format=LAYOUT, cipher_suite="blake2-xts-sim",
        object_size=OBJECT_SIZE,
        random_seed=f"clone-bench-{label}".encode("utf-8"))
    prefill_image(golden)
    golden.create_snapshot("base")
    golden.protect_snapshot("base")
    return cluster


def _fanout(cluster, label, flatten=False):
    clones = clone_fanout(
        cluster, "golden", "base", count=NUM_CLIENTS,
        passphrase_for=lambda i, d: f"clone-{i}-{d}".encode("utf-8"),
        parent_passphrase=b"golden-passphrase",
        name_format="{parent}-" + label + "{i}",
        random_seed_prefix=f"clone-bench-{label}".encode("utf-8"))
    if flatten:
        for clone in clones:
            clone.flatten()
    return clones


def _spec(name, rw, seed):
    return WorkloadSpec(name=name, rw=rw, io_size=4 * KIB,
                        queue_depth=QUEUE_DEPTH,
                        total_bytes=PHASE_BYTES, seed=seed,
                        num_clients=NUM_CLIENTS, parent_image="golden")


def test_clone_fanout_boot_storm(benchmark):
    """Read-mostly phase: N clients booting off one golden image, layered
    vs flattened control on identical clusters."""
    points = {}

    def storm():
        cluster = _golden_cluster("read")
        layered = WorkloadRunner(cluster).run_streams(
            _fanout(cluster, "vm"), _spec("boot-storm", "randread", 71),
            layout_name=LAYOUT)
        control_cluster = _golden_cluster("read-flat")
        flattened = WorkloadRunner(control_cluster).run_streams(
            _fanout(control_cluster, "flat", flatten=True),
            _spec("boot-storm-flat", "randread", 71), layout_name=LAYOUT)
        points["layered"], points["flattened"] = layered, flattened
        return points

    benchmark.pedantic(storm, rounds=1, iterations=1)

    layered, flattened = points["layered"], points["flattened"]
    parent_reads = layered.counter("clone.parent_reads")
    print()
    print(f"boot storm: {NUM_CLIENTS} clients x {PHASE_BYTES // MIB} MiB "
          f"random 4 KiB reads off one golden image:")
    print(f"  layered   {layered.bandwidth_mbps:8.1f} MiB/s  "
          f"p99={layered.percentile('p99'):8.1f} us  "
          f"parent reads {parent_reads:6.0f}")
    print(f"  flattened {flattened.bandwidth_mbps:8.1f} MiB/s  "
          f"p99={flattened.percentile('p99'):8.1f} us")
    benchmark.extra_info["layered_read_mbps"] = round(layered.bandwidth_mbps, 1)
    benchmark.extra_info["flattened_read_mbps"] = round(
        flattened.bandwidth_mbps, 1)
    benchmark.extra_info["parent_reads"] = round(parent_reads)
    benchmark.extra_info["layered_p99_us"] = round(
        layered.percentile("p99"), 1)

    # Every read of a fresh clone must come through the chain.
    assert parent_reads > 0
    assert layered.counter("clone.copyups") == 0
    assert flattened.counter("clone.parent_reads") == 0
    # The chain-descent tax is real but must stay a tax, not a cliff.
    assert flattened.bandwidth_mbps >= layered.bandwidth_mbps
    assert layered.bandwidth_mbps * 5 >= flattened.bandwidth_mbps, (
        "layered reads fell more than 5x behind the flattened control")


def test_clone_fanout_copyup_storm(benchmark):
    """Write-heavy phase: first touches pay copyup, warm objects do not."""
    points = {}

    def storm():
        cluster = _golden_cluster("write")
        runner = WorkloadRunner(cluster)
        clones = _fanout(cluster, "vm")
        cold = runner.run_streams(
            clones, _spec("copyup-cold", "randwrite", 72), layout_name=LAYOUT)
        warm = runner.run_streams(
            clones, _spec("copyup-warm", "randwrite", 73), layout_name=LAYOUT)
        points["cold"], points["warm"] = cold, warm
        return points

    benchmark.pedantic(storm, rounds=1, iterations=1)

    cold, warm = points["cold"], points["warm"]
    objects_per_clone = IMAGE_SIZE // OBJECT_SIZE
    print()
    print(f"copyup storm: {NUM_CLIENTS} clients x {PHASE_BYTES // MIB} MiB "
          f"random 4 KiB writes on fresh clones:")
    print(f"  cold  {cold.bandwidth_mbps:8.1f} MiB/s  "
          f"copyups {cold.counter('clone.copyups'):5.0f}  "
          f"copyup bytes {cold.counter('clone.copyup_bytes') / MIB:7.1f} MiB")
    print(f"  warm  {warm.bandwidth_mbps:8.1f} MiB/s  "
          f"copyups {warm.counter('clone.copyups'):5.0f}")
    benchmark.extra_info["cold_write_mbps"] = round(cold.bandwidth_mbps, 1)
    benchmark.extra_info["warm_write_mbps"] = round(warm.bandwidth_mbps, 1)
    benchmark.extra_info["cold_copyups"] = round(cold.counter("clone.copyups"))
    benchmark.extra_info["cold_copyup_mib"] = round(
        cold.counter("clone.copyup_bytes") / MIB, 1)

    # Cold writes must copy up (and at most once per object per clone).
    assert cold.counter("clone.copyups") > 0
    assert (cold.counter("clone.copyups")
            <= NUM_CLIENTS * objects_per_clone)
    # Warm clones are fully materialized: no further copyups, faster writes.
    assert warm.counter("clone.copyups") == 0
    assert warm.bandwidth_mbps > cold.bandwidth_mbps
