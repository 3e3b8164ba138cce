"""Peering and backfill: bringing replica sets back to full redundancy.

After an OSD dies, restarts, or is marked out, replica sets are stale:
some up-set members miss objects (or hold old versions) written while
they were absent or before the remap.  Recovery runs in two steps, the
simulated analogue of Ceph's peering + backfill:

* :func:`peer` scans a pool and compares per-replica object **versions**
  (bumped on every committed transaction) across each object's up set.
  The highest version among live holders is authoritative; up-set
  members below it (or missing the object entirely) become backfill
  targets.  Objects whose every holder is down are *unfound* — reported,
  never guessed at.
* :func:`backfill` replays the missing state as **real traffic**: the
  authoritative replica serves a real read (device time, CPU, a trace
  visit), the payload crosses the backend network at the throttled
  ``recovery_bandwidth_mbps``, and the target commits a real write
  transaction — so a rebuild storm contends with client I/O in both the
  analytic and the event-replay performance models
  (``OpTrace(kind=KIND_BACKFILL)``).  Snapshot clones and the replica
  version are carried over as bookkeeping (BlueStore clones move by
  reference).

Once no backfill work remains, every up OSD is consistent and any
``recovering`` flags are cleared — the cluster is healthy again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .backend import BackfillItem, ReplicaMismatch, pool_object_names
from .cluster import Cluster
from .osd import OSD
from ..faults.plan import STAGE_KILL_DURING_BACKFILL, osd_kill_due

#: upper bound on peer/push passes one :func:`backfill` call runs; each
#: pass handles everything the previous one exposed, so two passes
#: suffice unless faults keep killing OSDs mid-push.
MAX_BACKFILL_PASSES = 8


@dataclass
class PeeringReport:
    """Result of comparing replica versions across a pool's up sets."""

    pool: str
    objects_examined: int = 0
    degraded_objects: int = 0
    unfound_objects: int = 0
    work: List[BackfillItem] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no backfill work (and nothing unfound) remains."""
        return not self.work and self.unfound_objects == 0


@dataclass
class RecoveryReport:
    """What one :func:`backfill` call moved."""

    pool: str
    passes: int = 0
    objects_pushed: int = 0
    bytes_pushed: int = 0
    removes_propagated: int = 0
    unfound_objects: int = 0
    #: simulated time the pushes occupied on the critical path, summed.
    push_latency_us: float = 0.0

    @property
    def clean(self) -> bool:
        """True when the pool ended the call fully recovered."""
        return self.unfound_objects == 0


def _replica_state(osd: OSD, pool: str,
                   name: str) -> Optional[Tuple[int, bool]]:
    """(version, exists) of the replica on ``osd`` or None if never held."""
    obj = osd.objects.get((pool, name))
    if obj is None:
        return None
    return obj.version, obj.exists


def peer(cluster: Cluster, pool: str) -> PeeringReport:
    """Compute the backfill work needed to make ``pool`` consistent.

    Authority is the highest replica version among *up* holders (a
    recovering OSD may be a source for objects it is not stale on).
    Down OSDs can be neither sources nor targets.
    """
    pool_obj = cluster.get_pool(pool)
    report = PeeringReport(pool=pool)
    for name in pool_object_names(cluster, pool):
        report.objects_examined += 1
        up_set = cluster.up_set(pool, name)
        # Find the authoritative copy among live holders anywhere (an
        # out-but-up OSD still serves as a source for data it holds).
        best_version = -1
        best_osd: Optional[int] = None
        best_exists = True
        holders_alive = False
        for osd in cluster.osds:
            state = _replica_state(osd, pool, name)
            if state is None:
                continue
            if not osd.up:
                continue
            holders_alive = True
            if state[0] > best_version:
                best_version, best_osd = state[0], osd.osd_id
                best_exists = state[1]
        if not holders_alive or best_osd is None:
            report.unfound_objects += 1
            continue
        targets = []
        live_copies = 0
        for osd_id in up_set:
            osd = cluster.osd_by_id(osd_id)
            state = _replica_state(osd, pool, name)
            if state is not None and state[0] == best_version:
                if osd.up:
                    live_copies += 1
                continue
            if not best_exists and (state is None or not state[1]):
                # The authoritative copy is a tombstone and this replica
                # holds nothing live: already consistent, nothing to push.
                continue
            if osd.up and osd_id != best_osd:
                targets.append(osd_id)
        if live_copies < pool_obj.replica_count:
            report.degraded_objects += 1
        if targets:
            report.work.append(BackfillItem(
                name=name, source_osd=best_osd, version=best_version,
                targets=targets))
    return report


def backfill(cluster: Cluster, pool: str) -> RecoveryReport:
    """Drive ``pool`` back to full redundancy; returns what moved.

    Runs peer/push passes until a pass finds no work (or every remaining
    target is dead).  An armed ``kill-during-backfill`` fault fires here:
    the target of a push dies mid-rebuild, the push is abandoned, and
    the pass simply routes around the corpse — the next :func:`backfill`
    call (after the victim restarts) finishes the job.
    """
    ledger = cluster.ledger
    backend = cluster.get_pool(pool).backend(cluster)
    report = RecoveryReport(pool=pool)
    for _ in range(MAX_BACKFILL_PASSES):
        peering = peer(cluster, pool)
        report.unfound_objects = peering.unfound_objects
        work = [(item, target_id)
                for item in peering.work
                for target_id in item.targets
                if cluster.osd_by_id(target_id).up]
        if not work:
            break
        report.passes += 1
        for item, target_id in work:
            if osd_kill_due(STAGE_KILL_DURING_BACKFILL, target_id):
                cluster.mark_osd_down(target_id)
            target = cluster.osd_by_id(target_id)
            source = cluster.osd_by_id(item.source_osd)
            if not target.up or not source.up:
                continue
            pushed = backend.push(item, target_id)
            if pushed is None:
                # Too few survivors to rebuild this member this pass.
                continue
            payload, latency = pushed
            report.objects_pushed += 1
            report.bytes_pushed += payload
            report.push_latency_us += latency
            if payload == 0:
                report.removes_propagated += 1
            ledger.count("recovery.objects_pushed")
            ledger.count("recovery.bytes_pushed", payload)
    else:
        # Pass budget exhausted with work remaining — only possible when
        # faults keep depleting the cluster; report it, don't loop forever.
        ledger.count("recovery.incomplete_passes")

    # Nothing left to push onto any up OSD: every up replica is
    # consistent, so recovering daemons may rejoin the acting sets.
    final = peer(cluster, pool)
    if not [t for item in final.work for t in item.targets
            if cluster.osd_by_id(t).up]:
        for osd in cluster.osds:
            if osd.up and osd.recovering:
                osd.recovering = False
                ledger.count("cluster.osd_recovered_events")
        cluster._bump_epoch()
    report.unfound_objects = final.unfound_objects
    return report


def verify_replica_consistency(cluster: Cluster,
                               pool: str) -> List[ReplicaMismatch]:
    """Deep-scrub every object: compare bytes, OMAP, xattrs and version
    across the up set.  Returns every mismatch (empty list = consistent).

    This is the failure-equivalence oracle's final check: after the
    drill's recovery, no replica may disagree with the authoritative
    copy in any observable way.  What "agree" means is the pool
    backend's: replicas compare raw bytes, erasure-coded shards hold
    *different* bytes by design and are checked by decoding the stripe
    and re-encoding every held chunk.
    """
    return cluster.get_pool(pool).backend(cluster).scrub()
