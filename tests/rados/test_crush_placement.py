"""Property tests of the hierarchical CRUSH map.

The two properties the failure lifecycle stands on, checked with
Hypothesis over random topologies:

* **minimal remapping** — marking one OSD out moves *only* the placement
  groups that OSD hosted (~1/N of them); every other PG's up set is
  bit-identical, and surviving members keep their order;
* **failure-domain separation** — with a host (or rack) failure domain,
  every replica of every PG lands on a distinct host (rack), for every
  replica count the topology can satisfy.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.rados import placement as placement_module
from repro.rados.placement import (CrushLocation, PlacementMap,
                                   uniform_topology)


def _hosts_of(pmap, osds):
    return [pmap.location_of(osd_id).host for osd_id in osds]


class TestMinimalRemap:
    @given(osd_count=st.integers(min_value=4, max_value=32),
           victim_index=st.integers(min_value=0, max_value=31),
           replica=st.integers(min_value=1, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_mark_out_moves_only_hosted_pgs(self, osd_count, victim_index,
                                            replica):
        osd_ids = list(range(osd_count))
        victim = osd_ids[victim_index % osd_count]
        pmap = PlacementMap(osd_ids, pg_count=128)
        before = pmap.pg_map(replica)
        pmap.mark_out(victim)
        after = pmap.pg_map(replica)

        hosted = {pg for pg, osds in before.items() if victim in osds}
        for pg in before:
            if pg in hosted:
                # Survivors keep their relative order; the victim is
                # replaced by (at most) one newcomer at the tail.
                survivors = [o for o in before[pg] if o != victim]
                assert after[pg][:len(survivors)] == survivors
                assert victim not in after[pg]
            else:
                assert after[pg] == before[pg], \
                    f"pg {pg} moved but osd.{victim} never hosted it"

    @given(osd_count=st.integers(min_value=8, max_value=40),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_mark_out_moves_about_one_nth(self, osd_count, seed):
        """The moved fraction tracks replica/N (generous slack: pg draws
        are random, so small maps are noisy)."""
        del seed  # placement is deterministic; the parameter varies N only
        osd_ids = list(range(osd_count))
        pmap = PlacementMap(osd_ids, pg_count=256)
        replica = 3
        before = pmap.pg_map(replica)
        pmap.mark_out(osd_ids[0])
        after = pmap.pg_map(replica)
        moved = sum(1 for pg in before if before[pg] != after[pg])
        expected = 256 * replica / osd_count
        assert moved <= 3 * expected + 8

    def test_mark_in_restores_exact_placement(self):
        pmap = PlacementMap(list(range(12)), pg_count=128)
        before = pmap.pg_map(3)
        pmap.mark_out(5)
        assert pmap.pg_map(3) != before
        pmap.mark_in(5)
        assert pmap.pg_map(3) == before

    def test_out_osd_never_shifts_sibling_host_rank(self):
        """The crush-weight/reweight distinction: with multi-OSD hosts,
        marking one OSD out must not move PGs served entirely by *other*
        hosts (the domain rank uses nominal weights)."""
        osd_ids = list(range(16))
        pmap = PlacementMap(osd_ids, pg_count=256,
                            locations=uniform_topology(osd_ids, hosts=4),
                            failure_domain="host")
        before = pmap.pg_map(3)
        pmap.mark_out(0)
        after = pmap.pg_map(3)
        victim_host = pmap.location_of(0).host
        for pg, osds in before.items():
            if victim_host not in _hosts_of(pmap, osds):
                assert after[pg] == osds
            else:
                # The affected host is still represented (by a sibling
                # OSD) unless the victim was its only member.
                assert set(_hosts_of(pmap, after[pg])) == \
                    set(_hosts_of(pmap, osds))


class TestFailureDomains:
    @given(hosts=st.integers(min_value=3, max_value=10),
           per_host=st.integers(min_value=1, max_value=4),
           replica=st.integers(min_value=1, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_replicas_land_on_distinct_hosts(self, hosts, per_host, replica):
        osd_ids = list(range(hosts * per_host))
        pmap = PlacementMap(osd_ids, pg_count=64,
                            locations=uniform_topology(osd_ids, hosts),
                            failure_domain="host")
        for pg in range(64):
            osds = pmap.osds_for_pg(pg, replica)
            assert len(osds) == replica
            host_names = _hosts_of(pmap, osds)
            assert len(set(host_names)) == replica, \
                f"pg {pg}: replicas share a host ({host_names})"

    @given(racks=st.integers(min_value=2, max_value=4),
           replica=st.integers(min_value=1, max_value=2))
    @settings(max_examples=10, deadline=None)
    def test_rack_failure_domain(self, racks, replica):
        osd_ids = list(range(racks * 4))
        pmap = PlacementMap(osd_ids, pg_count=32,
                            locations=uniform_topology(osd_ids, racks * 2,
                                                       racks=racks),
                            failure_domain="rack")
        for pg in range(32):
            osds = pmap.osds_for_pg(pg, replica)
            rack_names = [pmap.location_of(o).rack for o in osds]
            assert len(set(rack_names)) == len(osds) == replica

    def test_distinct_hosts_survive_mark_out(self):
        osd_ids = list(range(12))
        pmap = PlacementMap(osd_ids, pg_count=64,
                            locations=uniform_topology(osd_ids, hosts=4),
                            failure_domain="host")
        pmap.mark_out(1)
        pmap.mark_out(6)
        for pg in range(64):
            osds = pmap.osds_for_pg(pg, 3)
            hosts = _hosts_of(pmap, osds)
            assert len(set(hosts)) == len(osds)

    def test_hierarchical_map_requires_two_domains(self):
        ids = [0, 1, 2]
        one_host = {i: CrushLocation(host="only") for i in ids}
        with pytest.raises(ConfigurationError):
            PlacementMap(ids, locations=one_host, failure_domain="host")


class TestWeightValidation:
    """Satellite: invalid weights are a typed error, never clamped."""

    @pytest.mark.parametrize("bad", [0.0, -1.0, -1e-9, float("nan"),
                                     float("inf")])
    def test_rejects_non_positive_or_non_finite(self, bad):
        with pytest.raises(ConfigurationError):
            PlacementMap([0, 1], weights={0: bad})

    def test_rejects_weight_for_unknown_osd(self):
        with pytest.raises(ConfigurationError):
            PlacementMap([0, 1], weights={7: 1.0})

    def test_weights_default_untouched(self):
        pmap = PlacementMap([0, 1], weights={0: 2.5})
        assert pmap.osds_for_object("rbd", "x", 2)

    @given(weight=st.floats(min_value=0.25, max_value=8.0,
                            allow_nan=False, allow_infinity=False))
    @settings(max_examples=10, deadline=None)
    def test_reweighting_one_osd_only_moves_its_wins_or_losses(self, weight):
        base = PlacementMap(list(range(8)), pg_count=128)
        skewed = PlacementMap(list(range(8)), pg_count=128,
                              weights={3: weight})
        for pg in range(128):
            before = base.osds_for_pg(pg, 3)
            after = skewed.osds_for_pg(pg, 3)
            if before != after:
                assert 3 in before or 3 in after


class TestTopologyBuilder:
    def test_round_robin_shape(self):
        locs = uniform_topology(list(range(8)), hosts=4, racks=2)
        assert locs[0].host == "host0" and locs[4].host == "host0"
        assert locs[1].rack == "rack1"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            uniform_topology([0], hosts=0)
        with pytest.raises(ConfigurationError):
            uniform_topology([0], hosts=1, racks=0)
        with pytest.raises(ConfigurationError):
            uniform_topology([0, 1], hosts=2, racks=3)

    def test_missing_locations_rejected(self):
        with pytest.raises(ConfigurationError):
            PlacementMap([0, 1], locations={0: CrushLocation(host="a")},
                         failure_domain="host")


class TestPgValidation:
    """``osds_for_pg`` used to place any ``pg`` it was handed; the range
    check is also what bounds the placement memo."""

    @pytest.mark.parametrize("bad", [-5, -1, 8, 10 ** 9, 3.5, 3.0, True,
                                     "3", None])
    def test_rejects_pg_outside_the_map(self, bad):
        pmap = PlacementMap([0, 1, 2], pg_count=8)
        for lookalike in (1, 3):  # what True and 3.0 would hit in the memo
            pmap.osds_for_pg(lookalike, 2)
        with pytest.raises(ConfigurationError):
            pmap.osds_for_pg(bad, 2)

    def test_every_pg_of_the_map_is_accepted(self):
        pmap = PlacementMap([0, 1, 2], pg_count=8)
        assert all(len(pmap.osds_for_pg(pg, 2)) == 2 for pg in range(8))

    @pytest.mark.parametrize("count", [0, -1, 4])
    def test_count_validation_fires_on_a_memo_hit(self, count):
        pmap = PlacementMap([0, 1, 2], pg_count=8)
        for valid in (1, 2, 3):
            pmap.pg_map(valid)
        for _ in range(2):  # invalid calls are never memoised either
            with pytest.raises(ConfigurationError):
                pmap.osds_for_pg(0, count)
            with pytest.raises(ConfigurationError):
                pmap.osds_for_object("rbd", "x", count)


_PG_COUNT = 16


@st.composite
def _topologies(draw):
    """Constructor arguments of a flat, host or rack map with drawn weights."""
    failure_domain = draw(st.sampled_from(["osd", "host", "rack"]))
    osd_ids = list(range(draw(st.integers(min_value=4, max_value=12))))
    kwargs = {"pg_count": _PG_COUNT, "failure_domain": failure_domain}
    if failure_domain != "osd":
        hosts = draw(st.integers(min_value=2, max_value=len(osd_ids)))
        racks = draw(st.integers(min_value=2, max_value=hosts)) \
            if failure_domain == "rack" else 1
        kwargs["locations"] = uniform_topology(osd_ids, hosts, racks=racks)
    kwargs["weights"] = draw(st.dictionaries(
        st.sampled_from(osd_ids),
        st.floats(min_value=0.25, max_value=8.0, allow_nan=False)))
    return osd_ids, kwargs


_OPS = st.one_of(
    st.tuples(st.sampled_from(["mark_out", "mark_in"]),
              st.integers(min_value=0, max_value=11)),
    st.tuples(st.just("osds_for_pg"),
              st.integers(min_value=0, max_value=_PG_COUNT - 1),
              st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("osds_for_object"),
              st.sampled_from(["rbd", "ec"]),
              st.sampled_from(["a", "b", "rbd_data.img.0000000000000007"]),
              st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("pg_map"), st.integers(min_value=1, max_value=3)))


class TestPlacementMemo:
    """The ``(pg, count)`` memo inside ``PlacementMap`` is invisible."""

    @given(topology=_topologies(), ops=st.lists(_OPS, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_any_interleaving_answers_like_a_fresh_map(self, topology, ops):
        osd_ids, kwargs = topology
        pmap = PlacementMap(osd_ids, **kwargs)
        for name, *args in ops:
            if name in ("mark_out", "mark_in"):
                getattr(pmap, name)(args[0] % len(osd_ids))
                continue
            fresh = PlacementMap(osd_ids, **kwargs)
            for osd_id in pmap.out_osds:
                fresh.mark_out(osd_id)
            answer = getattr(pmap, name)(*args)
            assert answer == getattr(fresh, name)(*args), (name, args)
            # The caller owns what it was handed: wrecking it changes
            # no later answer.
            for osds in (answer.values() if name == "pg_map" else [answer]):
                assert type(osds) is list
                osds.append(-1)
                osds.reverse()
            assert getattr(pmap, name)(*args) == getattr(fresh, name)(*args)

    def test_memo_is_bounded_by_pgs_times_counts(self):
        pmap = PlacementMap(list(range(6)), pg_count=8)
        for round_ in range(3):
            for index in range(200):
                pmap.osds_for_object("rbd", f"obj{round_}.{index}", 3)
                pmap.osds_for_object("rbd", f"obj{round_}.{index}", 1)
        assert len(pmap._memo) <= 8 * 2


PLACEMENT_SOURCE = Path(placement_module.__file__).read_text()

# What a ``set`` can do that a ``frozenset`` cannot: exactly its mutators.
_SET_MUTATORS = set(dir(set)) - set(dir(frozenset))


def _is_self_attr(node, attr):
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def out_mutators_that_keep_the_memo(source):
    """``PlacementMap`` methods that change ``self._out`` (a mutating set
    call, any kind of assignment, a ``del``) without ``self._memo.clear()``."""
    cls = next(node for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef) and node.name == "PlacementMap")
    forgetful = []
    for func in cls.body:
        # __init__ creates both attributes; there is nothing to clear yet.
        if not isinstance(func, ast.FunctionDef) or func.name == "__init__":
            continue
        mutates = clears = False
        for node in ast.walk(func):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute):
                if _is_self_attr(node.func.value, "_out") \
                        and node.func.attr in _SET_MUTATORS:
                    mutates = True
                if _is_self_attr(node.func.value, "_memo") \
                        and node.func.attr == "clear":
                    clears = True
            elif _is_self_attr(node, "_out") \
                    and isinstance(node.ctx, (ast.Store, ast.Del)):
                mutates = True
        if mutates and not clears:
            forgetful.append(func.name)
    return forgetful


class TestMemoSeam:
    def test_every_out_set_mutator_clears_the_memo(self):
        assert out_mutators_that_keep_the_memo(PLACEMENT_SOURCE) == []

    def test_the_check_catches_a_third_mutator_that_forgets(self):
        """The check is live: a new way to change the out set, a dropped
        ``clear()`` and a rebinding all trip it."""
        pasted = PLACEMENT_SOURCE.replace(
            "    def is_out(self",
            "    def mark_all_in(self) -> None:\n"
            "        self._out.clear()\n\n"
            "    def swap_out(self, osds) -> None:\n"
            "        self._out |= set(osds)\n\n"
            "    def is_out(self", 1)
        assert pasted != PLACEMENT_SOURCE
        assert out_mutators_that_keep_the_memo(pasted) == ["mark_all_in",
                                                           "swap_out"]
        dropped = PLACEMENT_SOURCE.replace(
            "        self._out.discard(osd_id)\n        self._memo.clear()\n",
            "        self._out.discard(osd_id)\n", 1)
        assert out_mutators_that_keep_the_memo(dropped) == ["mark_in"]
