"""The OSD failure drill: kill -> degraded -> rebuild -> healthy.

One self-contained scenario per OSD-kill stage (the failure matrix),
shared by the CLI (``repro failure-drill``), the test suite and CI.  The
drill runs a seeded encrypted workload against a many-OSD cluster with
host failure domains, kills daemons mid-flight (via a
:class:`~repro.faults.plan.FaultPlan` armed at an OSD-kill stage, or an
explicit kill for the backfill stage), and checks the failure-equivalence
oracle:

* **no acked write is ever lost** — a shadow copy applies exactly the
  acknowledged writes, and the image must match it byte-for-byte both
  while degraded and after recovery;
* **degraded reads are bit-identical** — a read served by a surviving
  replica decrypts to the same plaintext as the healthy path;
* **replica sets end fully consistent** — a deep scrub
  (:func:`~repro.rados.recovery.verify_replica_consistency`) finds no
  mismatch after backfill, and the health summary shows no OSD down,
  recovering or out.

The drill also replays the captured traces — client ops as one stream,
backfill pushes as a second — through the event engine, so it reports
client latency percentiles *under the rebuild storm* (the recovery
traffic contends for the same OSDs and backend network).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .plan import (EC_KILL_STAGES, OSD_KILL_STAGES, REPLICATED_KILL_STAGES,
                   STAGE_KILL_DURING_BACKFILL, FaultPlan, inject)
from ..errors import ConfigurationError, DegradedClusterError
from ..util import KIB, MIB

#: restart/backfill rounds the rebuild phase may take; every round
#: revives every down OSD, so >1 round only happens when an armed
#: kill-during-backfill fault claims a fresh victim mid-rebuild.
MAX_REBUILD_ROUNDS = 4


@dataclass
class DrillResult:
    """Outcome of one failure drill."""

    stage: str
    seed: int
    hit: int
    fired: bool
    osd_count: int
    victims: List[int] = field(default_factory=list)
    ok: bool = False
    problems: List[str] = field(default_factory=list)
    acked_writes: int = 0
    degraded_reads: int = 0
    write_retries: int = 0
    dispatch_timeouts: int = 0
    objects_pushed: int = 0
    bytes_pushed: int = 0
    rebuild_rounds: int = 0
    #: EC drills: the pool's (k, m) profile, else None (replicated x3)
    pool_ec: Optional[Tuple[int, int]] = None
    #: reads that needed parity reconstruction (EC pools only)
    ec_degraded_reads: int = 0
    #: chunks rebuilt by the ec-repair backfill path (EC pools only)
    ec_repaired: int = 0
    health: Dict[str, int] = field(default_factory=dict)
    #: client-op latency percentiles from the event replay of the
    #: workload contending with the rebuild storm (µs).
    storm_latency_us: Dict[str, float] = field(default_factory=dict)
    #: final ledger counters of the drill cluster (for metrics export)
    counters: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAILED"
        fired = "fired" if self.fired else "did not fire"
        body = ("oracle held" if not self.problems
                else "; ".join(self.problems))
        p99 = self.storm_latency_us.get("p99", 0.0)
        return (f"{verdict} (hit={self.hit}, {fired}, "
                f"victims={self.victims}): {body}; "
                f"acked={self.acked_writes}, degraded_reads="
                f"{self.degraded_reads}, retries={self.write_retries}, "
                f"pushed={self.objects_pushed} objects/"
                f"{self.bytes_pushed} bytes, storm p99={p99:.0f}us")


def _drill_writes(rng: random.Random, image_size: int, object_size: int,
                  extra: int) -> List[Tuple[int, bytes]]:
    """A full-image sweep (every object touched once, shuffled) plus
    ``extra`` random overwrites — so every kill victim is guaranteed to
    miss writes it will need backfilled."""
    object_count = image_size // object_size
    order = list(range(object_count))
    rng.shuffle(order)
    writes: List[Tuple[int, bytes]] = []
    for object_no in order:
        length = rng.choice((2 * KIB, 4 * KIB, 8 * KIB))
        slack = object_size - length
        in_obj = rng.randrange(0, slack + 1) // 512 * 512
        writes.append((object_no * object_size + in_obj,
                       rng.randbytes(length)))
    for _ in range(extra):
        length = rng.choice((512, 4 * KIB))
        offset = rng.randrange(0, image_size - length) // 512 * 512
        writes.append((offset, rng.randbytes(length)))
    return writes


def run_failure_drill(stage: str, seed: int, osd_count: int = 100,
                      image_size: int = 8 * MIB,
                      object_size: int = 64 * KIB,
                      extra_ios: int = 64,
                      queue_depth: int = 8,
                      pool_ec: Optional[Tuple[int, int]] = None,
                      tracer=None) -> DrillResult:
    """Run the kill -> degraded -> rebuild -> healthy drill for one stage.

    ``pool_ec=(k, m)`` runs the drill against an erasure-coded pool
    instead of replica-3: the kill victims are chunk OSDs, degraded reads
    reconstruct through the codec, and the rebuild goes through the
    ec-repair backfill path.  Stage and pool type must match
    (``REPLICATED_KILL_STAGES`` vs ``EC_KILL_STAGES``).

    ``tracer`` (a :class:`repro.obs.SpanTracer`) records the storm
    replay's span timeline: degraded client ops, backoff retries and the
    backfill/ec-repair storm land on distinct tracks.
    """
    from ..api import create_encrypted_image, make_cluster
    from ..crypto.suite import SIMULATION_SUITE
    from ..rados.cluster import ClusterConfig
    from ..rados.recovery import backfill, peer, verify_replica_consistency
    from ..rbd.striping import object_name
    from ..sim.fleet import simulate_closed_loop
    from ..sim.ledger import ClientOpTrace

    if stage not in OSD_KILL_STAGES:
        raise ConfigurationError(
            f"unknown OSD kill stage {stage!r}; valid: {OSD_KILL_STAGES}")
    if pool_ec is None and stage not in REPLICATED_KILL_STAGES:
        raise ConfigurationError(
            f"stage {stage!r} needs an erasure-coded pool "
            f"(pass pool_ec=(k, m)); replicated stages: "
            f"{REPLICATED_KILL_STAGES}")
    if pool_ec is not None and stage not in EC_KILL_STAGES:
        raise ConfigurationError(
            f"stage {stage!r} does not apply to erasure-coded pools; "
            f"EC stages: {EC_KILL_STAGES}")
    rng = random.Random(f"{seed}/{stage}/drill")
    pool = "rbd"
    image_name = "drill-image"

    # A fleet-shaped cluster: host failure domains, four OSDs per host.
    config = ClusterConfig(osd_count=osd_count, replica_count=3,
                           pg_count=max(128, 2 * osd_count),
                           hosts=max(3, osd_count // 4),
                           failure_domain="host")
    cluster = make_cluster(config=config)
    if pool_ec is not None:
        # min_size=k: writes keep flowing with every one of the m parity
        # margins consumed, mirroring the replicated drill's
        # min_write_replicas=1 posture.
        pool = "rbd-ec"
        cluster.create_pool(pool, ec=pool_ec, min_size=pool_ec[0])
    ledger = cluster.ledger
    image, _info = create_encrypted_image(
        cluster, image_name, image_size, passphrase=b"drill",
        cipher_suite=SIMULATION_SUITE, random_seed=b"drill-drbg",
        object_size=object_size, pool=pool)
    shadow = bytearray(image.read(0, image_size))

    # Trace everything from here on: client ops feed the event replay.
    ledger.trace_ops = True
    ledger.trace_client = 0
    ledger.pop_client_ops()

    writes = _drill_writes(rng, image_size, object_size, extra_ios)
    healthy_cut = len(writes) // 3
    result = DrillResult(stage=stage, seed=seed, hit=0, fired=False,
                         osd_count=osd_count, pool_ec=pool_ec)

    def issue(batch: List[Tuple[int, bytes]]) -> None:
        for offset, data in batch:
            try:
                receipt = image.write(offset, data)
            except DegradedClusterError as exc:
                result.problems.append(f"write at {offset} failed: {exc}")
                ledger.discard_open_traces()
                return
            ledger.finish_op(receipt)
            shadow[offset:offset + len(data)] = data
            result.acked_writes += 1

    def read_image() -> bytes:
        view = image.read_with_receipt(0, image_size)
        ledger.finish_op(view.receipt)
        return view.data

    # -- phase 1: healthy traffic -------------------------------------------------
    issue(writes[:healthy_cut])

    # -- phase 2: the kill, then degraded traffic --------------------------------
    if stage == STAGE_KILL_DURING_BACKFILL:
        # The kill lands later, during rebuild.  Here: two explicit daemon
        # deaths (primaries of real data objects, so they hold replicas
        # the degraded phase will make stale).
        for object_no in (0, (image_size // object_size) // 2):
            up = cluster.up_set(pool, object_name(image_name, object_no))
            victim = up[0]
            if victim not in result.victims:
                cluster.mark_osd_down(victim)
                result.victims.append(victim)
        plan = FaultPlan(stage=stage, hit=1, seed=seed)
        issue(writes[healthy_cut:])
    else:
        plan = FaultPlan.random_plan(stage, seed,
                                     max_hit=min(8, len(writes)
                                                 - healthy_cut))
        with inject(plan):
            issue(writes[healthy_cut:])
        result.fired = plan.fired
        if plan.victim is not None:
            result.victims.append(plan.victim)
        if not plan.fired:
            result.problems.append(
                f"fault did not fire (hit={plan.hit} never arrived)")
    result.hit = plan.hit

    # -- oracle: degraded reads are bit-identical through the crypto path --------
    degraded_view = read_image()
    if degraded_view != bytes(shadow):
        result.problems.append("degraded read differs from acked history")

    # -- phase 3: rebuild ---------------------------------------------------------
    for _ in range(MAX_REBUILD_ROUNDS):
        downed = [osd.osd_id for osd in cluster.osds if not osd.up]
        if not downed and peer(cluster, pool).clean:
            break
        result.rebuild_rounds += 1
        for osd_id in downed:
            cluster.restart_osd(osd_id)
        if stage == STAGE_KILL_DURING_BACKFILL and not plan.fired:
            # Arm the kill against the pushes this round will perform;
            # drawing the hit from the actual work size guarantees the
            # fault fires while staying seed-reproducible.
            work = sum(len(item.targets) for item in peer(cluster, pool).work)
            if work:
                plan.hit = rng.randint(1, work)
                result.hit = plan.hit
                with inject(plan):
                    backfill(cluster, pool)
                result.fired = plan.fired
                if plan.victim is not None and plan.victim not in result.victims:
                    result.victims.append(plan.victim)
                continue
        backfill(cluster, pool)
    if stage == STAGE_KILL_DURING_BACKFILL and not result.fired:
        result.problems.append("kill-during-backfill never fired "
                               "(no backfill work reached the fault)")
    # Claim the rebuild pushes now — they are their own traffic stream,
    # not part of whatever client op runs next.
    backfill_traces = ledger.take_open_traces()

    # -- phase 4: healthy again ---------------------------------------------------
    result.health = cluster.health_summary()
    if result.health["down"] or result.health["recovering"]:
        result.problems.append(f"cluster not healthy: {result.health}")
    mismatches = verify_replica_consistency(cluster, pool)
    if mismatches:
        first = mismatches[0]
        result.problems.append(
            f"{len(mismatches)} replica mismatches after recovery "
            f"(first: {first.name} on osd.{first.osd_id}: {first.reason})")
    final_view = read_image()
    if final_view != bytes(shadow):
        result.problems.append(
            "recovered read differs from acked history (acked write lost)")

    # -- the rebuild storm, replayed through the event engine ---------------------
    client_stream = ledger.pop_client_ops()
    storm_stream = [ClientOpTrace(client=1, requests=1, traces=[trace])
                    for trace in backfill_traces]
    if client_stream:
        sim = simulate_closed_loop(cluster.params,
                                   [client_stream, storm_stream]
                                   if storm_stream else [client_stream],
                                   queue_depth=queue_depth, tracer=tracer)
        # Percentiles of the *client* stream only: the drill reports what
        # applications see while recovery traffic contends underneath.
        result.storm_latency_us = (
            sim.client_request_stats[0].percentiles((50.0, 95.0, 99.0))
            if sim.client_request_stats else {})
    ledger.trace_ops = False

    result.degraded_reads = int(ledger.counter("cluster.degraded_reads")
                                + ledger.counter("cluster.ec_degraded_reads"))
    result.ec_degraded_reads = int(ledger.counter("cluster.ec_degraded_reads"))
    result.ec_repaired = int(ledger.counter("recovery.ec_objects_repaired"))
    result.write_retries = int(ledger.counter("cluster.write_retries"))
    result.dispatch_timeouts = int(
        ledger.counter("cluster.osd_dispatch_timeouts"))
    result.objects_pushed = int(ledger.counter("recovery.objects_pushed"))
    result.bytes_pushed = int(ledger.counter("recovery.bytes_pushed"))
    result.counters = dict(ledger.counters)
    result.ok = not result.problems
    return result
