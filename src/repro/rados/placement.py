"""CRUSH-style pseudo-random object placement over a failure-domain tree.

Real Ceph hashes object names into placement groups and runs CRUSH over the
cluster map to pick an ordered set of OSDs.  The reproduction keeps the
properties that matter here:

* **deterministic placement** from the object name (stable across runs and
  independent of insertion order), via a straw2-like weighted draw seeded
  by a BLAKE2 hash of the object name;
* **failure-domain separation** — the map may carry a ``host``/``rack``
  topology (:class:`CrushLocation`); the placement rule then puts every
  replica in a distinct failure domain (straw2 descent: rank domains,
  then pick the best OSD inside each);
* **minimal remapping** — marking an OSD *out* (:meth:`PlacementMap.mark_out`)
  removes it from the draw without touching any other candidate's score,
  so only the placement groups the out OSD actually hosted move
  (~``weight/total`` of the data), exactly the straw2 stability argument.
  Domain ranks use the *nominal* topology weights (Ceph's crush-weight /
  reweight distinction), so an out OSD never shifts its host's rank.

Down-vs-out is the cluster's concern: a *down* OSD stays in the map (its
PGs are degraded, nothing moves); only *out* changes placement.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ConfigurationError

#: valid failure domains of a placement rule, from narrowest to widest.
FAILURE_DOMAINS = ("osd", "host", "rack")


@dataclass(frozen=True)
class CrushLocation:
    """Position of one OSD in the failure-domain tree."""

    host: str
    rack: str = "rack0"


class PlacementMap:
    """Maps object names to an ordered list of OSD ids (primary first)."""

    def __init__(self, osd_ids: Sequence[int], pg_count: int = 128,
                 weights: Optional[Dict[int, float]] = None,
                 locations: Optional[Dict[int, CrushLocation]] = None,
                 failure_domain: str = "osd") -> None:
        if not osd_ids:
            raise ConfigurationError("placement map needs at least one OSD")
        if len(set(osd_ids)) != len(osd_ids):
            raise ConfigurationError("duplicate OSD ids in placement map")
        if pg_count <= 0:
            raise ConfigurationError("pg_count must be positive")
        if failure_domain not in FAILURE_DOMAINS:
            raise ConfigurationError(
                f"failure_domain must be one of {FAILURE_DOMAINS}, "
                f"got {failure_domain!r}")
        self._osd_ids = list(osd_ids)
        self._pg_count = pg_count
        self._weights = dict(weights or {})
        for osd_id, weight in self._weights.items():
            if osd_id not in set(self._osd_ids):
                raise ConfigurationError(
                    f"weight given for unknown OSD id {osd_id}")
            if not math.isfinite(weight) or weight <= 0:
                raise ConfigurationError(
                    f"OSD weight must be a positive finite number, got "
                    f"{weight!r} for osd.{osd_id}")
        for osd_id in self._osd_ids:
            self._weights.setdefault(osd_id, 1.0)
        self.failure_domain = failure_domain
        self._locations = self._resolve_locations(locations)
        self._domains = self._build_domains()
        if failure_domain != "osd" and len(self._domains) < 2 \
                and len(self._osd_ids) > 1:
            raise ConfigurationError(
                f"failure_domain={failure_domain!r} needs at least two "
                f"{failure_domain}s, topology has {len(self._domains)}")
        self._out: Set[int] = set()
        # (pg, count) -> placement under the current out set.  Everything
        # else a draw reads is fixed at construction, so whatever mutates
        # ``_out`` clears this and nothing else has to.
        self._memo: Dict[Tuple[int, int], Tuple[int, ...]] = {}

    # -- topology -----------------------------------------------------------------

    def _resolve_locations(self, locations: Optional[Dict[int, CrushLocation]],
                           ) -> Dict[int, CrushLocation]:
        if locations is None:
            # Flat map: every OSD is its own host (the paper's 3-node
            # testbed — one OSD per machine).
            return {osd_id: CrushLocation(host=f"host{osd_id}")
                    for osd_id in self._osd_ids}
        missing = [osd_id for osd_id in self._osd_ids if osd_id not in locations]
        if missing:
            raise ConfigurationError(
                f"crush locations missing for OSD ids {missing}")
        return {osd_id: locations[osd_id] for osd_id in self._osd_ids}

    def _build_domains(self) -> Dict[str, List[int]]:
        """Failure-domain name -> member OSD ids (insertion-ordered)."""
        domains: Dict[str, List[int]] = {}
        for osd_id in self._osd_ids:
            loc = self._locations[osd_id]
            name = (str(osd_id) if self.failure_domain == "osd"
                    else loc.host if self.failure_domain == "host"
                    else loc.rack)
            domains.setdefault(name, []).append(osd_id)
        return domains

    @property
    def osd_ids(self) -> List[int]:
        """All OSD ids known to the map (in and out)."""
        return list(self._osd_ids)

    @property
    def pg_count(self) -> int:
        """Number of placement groups object names hash onto."""
        return self._pg_count

    @property
    def domain_count(self) -> int:
        """Number of distinct failure domains the rule can draw from
        (the ceiling on replicas — or EC chunks — per placement)."""
        return len(self._domains)

    def location_of(self, osd_id: int) -> CrushLocation:
        """The failure-domain position of one OSD."""
        try:
            return self._locations[osd_id]
        except KeyError:
            raise ConfigurationError(
                f"no OSD with id {osd_id} in the placement map") from None

    # -- in/out ----------------------------------------------------------------

    def mark_out(self, osd_id: int) -> None:
        """Remove an OSD from the draw (its PGs remap; nothing else moves)."""
        if osd_id not in self._locations:
            raise ConfigurationError(
                f"cannot mark unknown OSD id {osd_id} out")
        self._out.add(osd_id)
        self._memo.clear()

    def mark_in(self, osd_id: int) -> None:
        """Return a previously out OSD to the draw."""
        if osd_id not in self._locations:
            raise ConfigurationError(
                f"cannot mark unknown OSD id {osd_id} in")
        self._out.discard(osd_id)
        self._memo.clear()

    def is_out(self, osd_id: int) -> bool:
        """True when the OSD is excluded from placement."""
        return osd_id in self._out

    @property
    def out_osds(self) -> List[int]:
        """OSD ids currently marked out, sorted."""
        return sorted(self._out)

    # -- straw2 draws ------------------------------------------------------------

    def pg_for_object(self, pool: str, name: str) -> int:
        """Placement-group index for an object (stable hash of pool + name)."""
        digest = hashlib.blake2b(f"{pool}/{name}".encode("utf-8"),
                                 digest_size=8).digest()
        return int.from_bytes(digest, "big") % self._pg_count

    def _straw(self, pg: int, item: object, weight: float) -> float:
        """Weight-scaled straw2 draw for one candidate; larger wins.

        ``draw ** (1/weight)`` with ``draw`` uniform in (0, 1) is the
        exponential-order-statistics trick: each candidate's score depends
        only on its own identity and weight, so adding/removing/reweighting
        one candidate can move only the placements that candidate wins.
        """
        seed = f"{pg}/{item}".encode("utf-8")
        digest = hashlib.blake2b(seed, digest_size=8).digest()
        draw = (int.from_bytes(digest, "big") + 1) / float((1 << 64) + 1)
        return draw ** (1.0 / weight)

    def _domain_weight(self, members: Sequence[int]) -> float:
        """Nominal (topology) weight of a failure domain.

        Deliberately ignores the out set: marking an OSD out must not shift
        its domain's rank or every PG on sibling OSDs would move too.
        """
        return sum(self._weights[osd_id] for osd_id in members)

    def _rank_domains(self, pg: int) -> List[Tuple[str, List[int]]]:
        scored = sorted(
            self._domains.items(),
            key=lambda item: (self._straw(pg, f"dom/{item[0]}",
                                          self._domain_weight(item[1])),
                              item[0]),
            reverse=True)
        return scored

    def _best_in_domain(self, pg: int, members: Sequence[int]) -> Optional[int]:
        best_id: Optional[int] = None
        best_score = -1.0
        for osd_id in members:
            if osd_id in self._out:
                continue
            score = self._straw(pg, osd_id, self._weights[osd_id])
            if score > best_score:
                best_score = score
                best_id = osd_id
        return best_id

    # -- placement ----------------------------------------------------------------

    def osds_for_pg(self, pg: int, count: int) -> List[int]:
        """Ordered OSD ids (primary first) for one placement group.

        Straw2 descent: rank failure domains by their nominal weight, then
        pick the best *in* OSD inside each until ``count`` replicas are
        placed.  Domains whose OSDs are all out are skipped, so the up set
        may be shorter than ``count`` on a heavily degraded map — the
        client's quorum check decides whether that is fatal.

        The descent runs once per ``(pg, count)`` and in/out set (real
        clients likewise recompute PG -> OSD only on a map change); every
        call validates its arguments and gets a list of its own.
        """
        if count <= 0:
            raise ConfigurationError("replica count must be positive")
        if count > len(self._osd_ids):
            raise ConfigurationError(
                f"cannot place {count} replicas on {len(self._osd_ids)} OSDs")
        # Exactly ``int``: ``True`` and ``3.0`` hash like 1 and 3 but draw
        # different straws, so they must never reach the memo.
        if type(pg) is not int or not 0 <= pg < self._pg_count:
            raise ConfigurationError(
                f"pg must be an int in [0, {self._pg_count}), got {pg!r}")
        placed = self._memo.get((pg, count))
        if placed is None:
            chosen: List[int] = []
            for _name, members in self._rank_domains(pg):
                osd_id = self._best_in_domain(pg, members)
                if osd_id is None:
                    continue
                chosen.append(osd_id)
                if len(chosen) == count:
                    break
            placed = self._memo[(pg, count)] = tuple(chosen)
        return list(placed)

    def osds_for_object(self, pool: str, name: str, count: int) -> List[int]:
        """Ordered OSD ids (primary first) for ``count`` replicas."""
        return self.osds_for_pg(self.pg_for_object(pool, name), count)

    def primary_for_object(self, pool: str, name: str) -> int:
        """The primary OSD id for an object."""
        osds = self.osds_for_object(pool, name, 1)
        if not osds:
            raise ConfigurationError(
                "no in OSDs available for placement (all marked out)")
        return osds[0]

    def distribution(self, pool: str, names: Sequence[str]) -> Dict[int, int]:
        """Histogram of primary assignments (used by balance tests)."""
        counts: Dict[int, int] = {osd_id: 0 for osd_id in self._osd_ids}
        for name in names:
            counts[self.primary_for_object(pool, name)] += 1
        return counts

    def pg_map(self, count: int) -> Dict[int, List[int]]:
        """Placement of every PG at ``count`` replicas (remap analysis)."""
        return {pg: self.osds_for_pg(pg, count)
                for pg in range(self._pg_count)}


def uniform_topology(osd_ids: Sequence[int], hosts: int,
                     racks: int = 1) -> Dict[int, CrushLocation]:
    """Spread OSDs round-robin over ``hosts`` hosts and hosts over racks.

    The shape a real deployment tool would generate for a homogeneous
    fleet; used by :class:`~repro.rados.cluster.ClusterConfig` to build
    the failure-domain tree from two integers.
    """
    if hosts <= 0:
        raise ConfigurationError("hosts must be positive")
    if racks <= 0:
        raise ConfigurationError("racks must be positive")
    if racks > hosts:
        raise ConfigurationError(
            f"cannot spread {hosts} hosts over {racks} racks")
    locations: Dict[int, CrushLocation] = {}
    for index, osd_id in enumerate(osd_ids):
        host = index % hosts
        locations[osd_id] = CrushLocation(
            host=f"host{host}", rack=f"rack{host % racks}")
    return locations
