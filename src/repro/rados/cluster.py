"""Cluster assembly: OSDs, pools, health state and the shared cost ledger.

A :class:`Cluster` is the top-level simulated deployment (the paper's
3-node Ceph cluster with 3-way replication).  It owns the cost ledger and
the cost parameters, creates OSDs, places them in a CRUSH failure-domain
tree, tracks pools (replica count, snapshot sequence) and hands out
:class:`~repro.rados.client.RadosClient` handles.

Failure lifecycle
-----------------
The cluster keeps Ceph's two orthogonal health axes per OSD:

* **up/down** — process liveness.  :meth:`Cluster.mark_osd_down` kills a
  daemon: placement is untouched (its PGs are *degraded*), the client
  fails over / retries around it.  :meth:`Cluster.restart_osd` brings it
  back in ``recovering`` state — it serves nothing until backfill
  (:mod:`repro.rados.recovery`) has made it consistent again.
* **in/out** — placement membership.  :meth:`Cluster.mark_osd_out`
  removes the OSD from the CRUSH draw: only the PGs it hosted remap
  (~1/N of the data), and backfill re-replicates them onto the new set.

Every transition bumps :attr:`Cluster.osd_map_epoch`, the generation
counter clients use to notice that acting sets must be recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from .ec import EcProfile
from .osd import OSD
from .placement import PlacementMap, uniform_topology
from ..errors import ConfigurationError, PoolNotFoundError
from ..sim.costparams import CostParameters, default_cost_parameters
from ..sim.ledger import CostLedger
from ..util import GIB

if TYPE_CHECKING:
    from .backend import PoolBackend


@dataclass
class ClusterConfig:
    """Shape of the simulated cluster."""

    osd_count: int = 3
    replica_count: int = 3
    pg_count: int = 128
    osd_data_capacity: int = 64 * GIB
    osd_metadata_capacity: int = 8 * GIB
    #: device bytes reserved per object beyond the nominal object size so
    #: that per-sector metadata appended by the encryption layouts fits.
    object_region_reserve: int = 64 * 1024
    #: hosts the OSDs are spread over (round-robin).  0 means one host per
    #: OSD — the paper's testbed shape, where "distinct hosts" and
    #: "distinct OSDs" coincide.
    hosts: int = 0
    #: racks the hosts are spread over.
    racks: int = 1
    #: CRUSH failure domain of the replication rule: replicas are placed
    #: in distinct domains ("osd", "host" or "rack").
    failure_domain: str = "osd"
    #: fewest acting replicas a write may succeed against (Ceph's pool
    #: ``min_size``); below it the client raises ``DegradedClusterError``.
    min_write_replicas: int = 1

    def __post_init__(self) -> None:
        if self.osd_count <= 0:
            raise ConfigurationError("osd_count must be positive")
        if not 1 <= self.replica_count <= self.osd_count:
            raise ConfigurationError(
                "replica_count must be between 1 and osd_count")
        if self.hosts < 0:
            raise ConfigurationError("hosts must be >= 0 (0 = one per OSD)")
        if not 1 <= self.min_write_replicas <= self.replica_count:
            raise ConfigurationError(
                "min_write_replicas must be between 1 and replica_count")
        effective_hosts = self.hosts or self.osd_count
        if self.failure_domain == "host" and effective_hosts < self.replica_count:
            raise ConfigurationError(
                f"failure_domain='host' cannot place {self.replica_count} "
                f"replicas on {effective_hosts} hosts")
        if self.failure_domain == "rack" and self.racks < self.replica_count:
            raise ConfigurationError(
                f"failure_domain='rack' cannot place {self.replica_count} "
                f"replicas on {self.racks} racks")


@dataclass
class Pool:
    """A named pool with its replica policy and snapshot sequencer."""

    name: str
    replica_count: int
    #: fewest acting replicas a write may succeed against.
    min_size: int = 1
    snap_seq: int = 0
    removed_snaps: List[int] = field(default_factory=list)

    @property
    def is_ec(self) -> bool:
        """True for erasure-coded pools (:class:`EcPool`)."""
        return False

    def shape(self) -> str:
        """Human-readable pool shape (used by mismatch errors)."""
        return f"replicated x{self.replica_count}"

    def backend(self, cluster: "Cluster") -> "PoolBackend":
        """The object-layout backend of this pool type — the one place a
        pool's kind selects behaviour (see :mod:`repro.rados.backend`)."""
        from .backend import ReplicatedBackend
        return ReplicatedBackend(cluster, self)

    def new_snapshot_id(self) -> int:
        """Allocate a new self-managed snapshot id."""
        self.snap_seq += 1
        return self.snap_seq

    def remove_snapshot_id(self, snap_id: int) -> None:
        """Mark a snapshot id as removed (clones are trimmed lazily)."""
        if snap_id not in self.removed_snaps:
            self.removed_snaps.append(snap_id)


@dataclass
class EcPool(Pool):
    """An erasure-coded pool: objects stripe into ``k`` data + ``m`` parity
    chunks on ``k + m`` distinct failure domains.

    ``replica_count`` is ``k + m`` (one chunk per up-set member, so the
    CRUSH machinery is shared with replicated pools unchanged);
    ``min_size`` defaults to ``k + 1`` — reads survive any ``m`` chunk
    losses, writes need at least ``min_size`` serving shards.
    """

    k: int = 0
    m: int = 0

    @property
    def is_ec(self) -> bool:
        return True

    @property
    def total_chunks(self) -> int:
        """Chunks per stripe (``k + m``)."""
        return self.k + self.m

    def shape(self) -> str:
        return f"ec {self.k}+{self.m} (min_size={self.min_size})"

    def backend(self, cluster: "Cluster") -> "PoolBackend":
        from .ec_backend import EcBackend
        return EcBackend(cluster, self)


class Cluster:
    """The simulated Ceph-like cluster."""

    def __init__(self, config: Optional[ClusterConfig] = None,
                 params: Optional[CostParameters] = None,
                 ledger: Optional[CostLedger] = None) -> None:
        self.config = config or ClusterConfig()
        self.params = params or default_cost_parameters()
        # Keep the cost parameters' idea of the cluster shape in sync with
        # the actual cluster so the performance model divides busy time by
        # the right number of OSDs.
        self.params.osd_count = self.config.osd_count
        self.params.replica_count = self.config.replica_count
        self.ledger = ledger or CostLedger()
        self.osds: List[OSD] = [
            OSD(osd_id=i, params=self.params, ledger=self.ledger,
                data_capacity=self.config.osd_data_capacity,
                metadata_capacity=self.config.osd_metadata_capacity,
                object_region_reserve=self.config.object_region_reserve)
            for i in range(self.config.osd_count)
        ]
        self._osd_index: Dict[int, OSD] = {osd.osd_id: osd for osd in self.osds}
        osd_ids = [osd.osd_id for osd in self.osds]
        locations = (uniform_topology(osd_ids, self.config.hosts,
                                      self.config.racks)
                     if self.config.hosts else None)
        self.placement = PlacementMap(osd_ids,
                                      pg_count=self.config.pg_count,
                                      locations=locations,
                                      failure_domain=self.config.failure_domain)
        #: generation counter of the health/placement state; bumped on
        #: every mark-down/up/out/in so clients know to recompute acting
        #: sets (the simulated analogue of the Ceph osdmap epoch).
        self.osd_map_epoch = 0
        self.pools: Dict[str, Pool] = {}
        self.create_pool("rbd", replica_count=self.config.replica_count)

    # -- pools -----------------------------------------------------------------

    def create_pool(self, name: str, replica_count: Optional[int] = None,
                    ec: Optional[object] = None,
                    min_size: Optional[int] = None) -> Pool:
        """Create a pool (idempotent only for an identical shape).

        ``ec`` makes the pool erasure-coded: an :class:`EcProfile` or a
        ``(k, m)`` tuple.  Re-creating an existing pool with a *different*
        shape — replicated vs EC, different replica count or ``k+m``, or
        an explicit conflicting ``min_size`` — raises
        :class:`~repro.errors.ConfigurationError` rather than silently
        handing back the old pool.
        """
        profile: Optional[EcProfile] = None
        if ec is not None:
            profile = ec if isinstance(ec, EcProfile) else EcProfile(*ec)
            replica = profile.total
            if replica_count is not None and replica_count != replica:
                raise ConfigurationError(
                    f"pool {name!r}: replica_count={replica_count} conflicts "
                    f"with EC profile {profile.k}+{profile.m} "
                    f"(k+m={replica})")
        else:
            replica = replica_count or self.config.replica_count
        if replica > len(self.osds):
            raise ConfigurationError(
                f"pool {name!r} wants {replica} replicas but the cluster has "
                f"{len(self.osds)} OSDs")
        if profile is not None:
            domains = self.placement.domain_count
            if replica > domains:
                raise ConfigurationError(
                    f"pool {name!r}: EC {profile.k}+{profile.m} needs "
                    f"{replica} distinct {self.config.failure_domain} "
                    f"failure domains, the map has {domains}")
        existing = self.pools.get(name)
        if existing is not None:
            same_shape = (existing.replica_count == replica
                          and existing.is_ec == (profile is not None)
                          and (profile is None
                               or (existing.k, existing.m)  # type: ignore[attr-defined]
                               == (profile.k, profile.m))
                          and (min_size is None
                               or existing.min_size == min_size))
            if not same_shape:
                wanted = (f"ec {profile.k}+{profile.m}" if profile is not None
                          else f"replicated x{replica}")
                if min_size is not None:
                    wanted += f" (min_size={min_size})"
                raise ConfigurationError(
                    f"pool {name!r} already exists with shape "
                    f"{existing.shape()}, requested {wanted}")
            return existing
        if profile is not None:
            chosen_min = min_size if min_size is not None \
                else min(profile.k + 1, replica)
            if not profile.k <= chosen_min <= replica:
                raise ConfigurationError(
                    f"pool {name!r}: EC min_size must be within "
                    f"[k={profile.k}, k+m={replica}], got {chosen_min}")
            pool: Pool = EcPool(name=name, replica_count=replica,
                                min_size=chosen_min, k=profile.k,
                                m=profile.m)
        else:
            chosen_min = min_size if min_size is not None \
                else min(self.config.min_write_replicas, replica)
            if not 1 <= chosen_min <= replica:
                raise ConfigurationError(
                    f"pool {name!r}: min_size must be within "
                    f"[1, {replica}], got {chosen_min}")
            pool = Pool(name=name, replica_count=replica,
                        min_size=chosen_min)
        self.pools[name] = pool
        return pool

    def get_pool(self, name: str) -> Pool:
        """Look up a pool by name."""
        try:
            return self.pools[name]
        except KeyError:
            raise PoolNotFoundError(f"pool {name!r} does not exist") from None

    # -- clients ----------------------------------------------------------------

    def client(self) -> "RadosClient":
        """Create a client handle bound to this cluster."""
        from .client import RadosClient
        return RadosClient(self)

    def osd_by_id(self, osd_id: int) -> OSD:
        """Return the OSD with the given id (typed error for unknown ids)."""
        try:
            return self._osd_index[osd_id]
        except KeyError:
            raise ConfigurationError(
                f"no OSD with id {osd_id} (cluster has ids "
                f"{sorted(self._osd_index)})") from None

    # -- health state -------------------------------------------------------------

    def _bump_epoch(self) -> None:
        self.osd_map_epoch += 1

    def mark_osd_down(self, osd_id: int) -> None:
        """Kill an OSD daemon.  Placement is untouched: its PGs run
        degraded until it restarts (and recovers) or is marked out."""
        osd = self.osd_by_id(osd_id)
        if osd.up:
            osd.crash()
            self.ledger.count("cluster.osd_down_events")
            self._bump_epoch()

    def restart_osd(self, osd_id: int) -> None:
        """Bring a down OSD back up, in ``recovering`` state.

        The daemon rejoins with whatever its devices hold — possibly stale
        replicas — so it serves nothing until
        :func:`repro.rados.recovery.backfill` has made it consistent.
        """
        osd = self.osd_by_id(osd_id)
        if not osd.up:
            osd.restart()
            osd.recovering = True
            self.ledger.count("cluster.osd_restart_events")
            self._bump_epoch()

    def mark_osd_out(self, osd_id: int) -> None:
        """Remove an OSD from placement; only the PGs it hosted remap."""
        osd = self.osd_by_id(osd_id)   # typed error for unknown ids
        if not self.placement.is_out(osd.osd_id):
            self.placement.mark_out(osd.osd_id)
            self.ledger.count("cluster.osd_out_events")
            self._bump_epoch()

    def mark_osd_in(self, osd_id: int) -> None:
        """Return an out OSD to placement (its PGs remap back)."""
        osd = self.osd_by_id(osd_id)
        if self.placement.is_out(osd.osd_id):
            self.placement.mark_in(osd.osd_id)
            self._bump_epoch()

    def osd_is_serving(self, osd_id: int) -> bool:
        """True when the OSD can take client traffic (up, not recovering)."""
        return self.osd_by_id(osd_id).serving

    def up_set(self, pool: str, name: str) -> List[int]:
        """CRUSH placement of an object on the current map (out excluded)."""
        pool_obj = self.get_pool(pool)
        return self.placement.osds_for_object(pool, name,
                                              pool_obj.replica_count)

    def acting_set(self, pool: str, name: str) -> List[int]:
        """The up-set members that can actually serve (up, recovered)."""
        return [osd_id for osd_id in self.up_set(pool, name)
                if self.osd_by_id(osd_id).serving]

    def health_summary(self) -> Dict[str, int]:
        """Counts of OSDs per health state (the ``ceph -s`` one-liner)."""
        up = sum(1 for osd in self.osds if osd.up)
        recovering = sum(1 for osd in self.osds if osd.up and osd.recovering)
        out = len(self.placement.out_osds)
        return {"osds": len(self.osds), "up": up, "down": len(self.osds) - up,
                "recovering": recovering, "out": out,
                "epoch": self.osd_map_epoch}

    # -- reporting ---------------------------------------------------------------

    def total_objects(self) -> int:
        """Number of live object replicas across all OSDs."""
        return sum(osd.object_count() for osd in self.osds)

    def total_used_bytes(self) -> int:
        """Backing bytes allocated across all OSD data devices."""
        return sum(osd.used_bytes() for osd in self.osds)

    def describe(self) -> str:
        """One-paragraph human-readable description of the deployment."""
        health = self.health_summary()
        return (f"Cluster: {len(self.osds)} OSDs "
                f"({health['up']} up, {health['out']} out), pools="
                f"{sorted(self.pools)}, replica={self.config.replica_count}, "
                f"objects={self.total_objects()}, "
                f"used={self.total_used_bytes()} bytes")
