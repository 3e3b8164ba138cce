#!/usr/bin/env python3
"""The OSD failure lifecycle, end to end.

Encrypted block storage only earns its keep if it survives the boring
disasters: a disk dies mid-write, clients fail over to replicas, and the
rebuild storm competes with live traffic.  This script walks the whole
lifecycle on a simulated 40-OSD cluster with host failure domains:

1. write an encrypted image and remember every byte (the oracle),
2. kill the primary OSD of a hot object *mid-transaction*,
3. keep reading degraded — every byte must still decrypt identically,
4. restart the dead OSD and backfill it back to byte-identical replicas,
5. run the packaged failure drill and report client p99 during rebuild.

Run with::

    python examples/osd_failure_drill.py
"""

from repro import api
from repro.faults import STAGE_KILL_PRIMARY_MID_TXN, FaultPlan, inject
from repro.faults.drill import run_failure_drill
from repro.rados import backfill, peer, verify_replica_consistency
from repro.rados.cluster import ClusterConfig
from repro.util import KIB, MIB

PASSPHRASE = b"failure-drill-demo"


def main() -> None:
    # 1. A fleet-shaped cluster: 40 OSDs on 10 hosts, 3-way replication,
    #    replicas never share a host.
    config = ClusterConfig(osd_count=40, replica_count=3, pg_count=128,
                           hosts=10, failure_domain="host")
    cluster = api.make_cluster(config=config)
    image, _info = api.create_encrypted_image(
        cluster, "vm-disk", 4 * MIB, passphrase=PASSPHRASE,
        encryption_format="object-end", cipher_suite="blake2-xts-sim",
        object_size=256 * KIB, random_seed=b"drill-demo")
    oracle = bytearray(image.size)
    for i in range(64):
        offset = (i * 61) % (image.size // (4 * KIB)) * 4 * KIB
        payload = bytes([i % 251 + 1]) * 4 * KIB
        image.write(offset, payload)
        oracle[offset:offset + len(payload)] = payload
    print(f"cluster: {cluster.health_summary()}")

    # 2. Arm a kill: the next replicated transaction loses its primary the
    #    instant after the primary applied (committed locally, never acked).
    plan = FaultPlan(stage=STAGE_KILL_PRIMARY_MID_TXN, hit=1)
    with inject(plan):
        image.write(0, b"\x42" * 8 * KIB)
        oracle[0:8 * KIB] = b"\x42" * 8 * KIB
    print(f"killed osd.{plan.victim} mid-transaction "
          f"(client retried transparently; "
          f"retries={cluster.ledger.counter('cluster.write_retries'):.0f})")
    print(f"cluster: {cluster.health_summary()}")

    # 3. Degraded reads: the dead primary's PGs fail over to replicas, and
    #    the decrypted bytes must be identical to the oracle.
    assert image.read(0, image.size) == bytes(oracle), "degraded read diverged!"
    print(f"degraded read of all {image.size // MIB} MiB is bit-identical "
          f"(served by replicas: "
          f"{cluster.ledger.counter('cluster.degraded_reads'):.0f} "
          f"failover reads)")

    # Keep writing while degraded: the dead OSD misses these entirely,
    # which is exactly the debt backfill must pay later.
    for i in range(16):
        offset = (i * 17) % (image.size // (8 * KIB)) * 8 * KIB
        payload = bytes([0x80 + i]) * 8 * KIB
        image.write(offset, payload)
        oracle[offset:offset + len(payload)] = payload

    # 4. Rebuild: restart the dead daemon (it rejoins stale, serving
    #    nothing), peer to find what it missed, backfill it back.
    cluster.restart_osd(plan.victim)
    report = peer(cluster, "rbd")
    print(f"peering: {report.degraded_objects} stale object replicas to push")
    recovery = backfill(cluster, "rbd")
    print(f"backfill: pushed {recovery.objects_pushed} objects / "
          f"{recovery.bytes_pushed} bytes in {recovery.passes} pass(es)")
    mismatches = verify_replica_consistency(cluster, "rbd")
    assert not mismatches, f"replicas diverged after rebuild: {mismatches}"
    assert image.read(0, image.size) == bytes(oracle)
    print(f"cluster: {cluster.health_summary()} — every replica byte-identical")

    # 5. The packaged drill at fleet scale: kill, stay degraded, rebuild,
    #    and replay client ops + backfill pushes through the event engine.
    print()
    print("packaged failure drill (100 OSDs, seed 7):")
    for stage in ("kill-primary-mid-txn", "kill-during-backfill"):
        result = run_failure_drill(stage, seed=7)
        pcts = result.storm_latency_us
        print(f"  {stage:24s} {result.summary()}")
        print(f"  {'':24s} client p50/p99 during rebuild: "
              f"{pcts['p50']:.0f}/{pcts['p99']:.0f} us")
        assert result.ok


if __name__ == "__main__":
    main()
