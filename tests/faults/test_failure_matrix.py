"""The OSD failure matrix: kill a daemon at every stage, prove recovery.

This is the suite the CI ``failure-matrix`` job runs, one stage per matrix
leg.  Seeds are randomized but printed, exactly like the crash matrix: a
failing leg is reproduced with ``FAULT_SEED=<printed> FAULT_STAGE=<stage>
pytest tests/faults/test_failure_matrix.py``.

Each drill runs an encrypted workload, kills an OSD at the armed stage
(primary mid-transaction, replica mid-transaction, a chunk OSD
mid-stripe-transaction on an erasure-coded pool, or a backfill target
mid-recovery), keeps I/O flowing degraded, rebuilds, and asserts the two
headline claims: no acked write is ever lost, and degraded reads are
bit-identical to the healthy image.

EC legs run the same oracle against an erasure-coded 4+2 pool; select one
explicitly with ``POOL_EC=4,2 FAULT_STAGE=kill-ec-shard-mid-txn``.
"""

import os
import random

import pytest

from repro.errors import ConfigurationError
from repro.faults import (ALL_STAGES, EC_KILL_STAGES, OSD_KILL_STAGES,
                          REPLICATED_KILL_STAGES, STAGE_MID_DRAIN, FaultPlan,
                          active_plan, crash_point, inject, osd_kill_due)
from repro.faults.drill import run_failure_drill

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0") or "0")
FAULT_STAGE = os.environ.get("FAULT_STAGE", "").strip()
_POOL_EC_ENV = os.environ.get("POOL_EC", "").strip()
POOL_EC = (tuple(int(part) for part in _POOL_EC_ENV.split(","))
           if _POOL_EC_ENV else None)

if FAULT_STAGE:
    # One CI matrix leg: the env selects stage (and pool type).
    _LEGS = [(FAULT_STAGE, POOL_EC)]
elif POOL_EC:
    _LEGS = [(stage, POOL_EC) for stage in EC_KILL_STAGES]
else:
    # Full local run: every replicated stage plus the EC legs at 4+2.
    _LEGS = [(stage, None) for stage in REPLICATED_KILL_STAGES]
    _LEGS += [(stage, (4, 2)) for stage in EC_KILL_STAGES]

_LEG_IDS = [f"{stage}-ec{ec[0]}+{ec[1]}" if ec else stage
            for stage, ec in _LEGS]


def _osd_count(pool_ec):
    # 4+2 stripes need six host failure domains with headroom for the
    # kills; the replicated drill keeps its original (faster) size.
    return 48 if pool_ec else 24


def _seed_banner(stage, seed, pool_ec=None):
    env = f"FAULT_SEED={seed} FAULT_STAGE={stage}"
    if pool_ec:
        env += f" POOL_EC={pool_ec[0]},{pool_ec[1]}"
    return (f"stage={stage} FAULT_SEED={seed} "
            f"(rerun: {env} pytest tests/faults/test_failure_matrix.py)")


@pytest.mark.parametrize("stage,pool_ec", _LEGS, ids=_LEG_IDS)
def test_failure_drill_recovers(stage, pool_ec):
    """The headline property: kill -> degraded -> rebuild -> healthy, with
    no acked write lost and all replicas byte-identical."""
    print(_seed_banner(stage, FAULT_SEED, pool_ec))
    result = run_failure_drill(stage, FAULT_SEED,
                               osd_count=_osd_count(pool_ec),
                               image_size=1024 * 1024, extra_ios=12,
                               queue_depth=4, pool_ec=pool_ec)
    assert result.fired, \
        _seed_banner(stage, FAULT_SEED, pool_ec) + ": fault never fired"
    assert result.ok, \
        _seed_banner(stage, FAULT_SEED, pool_ec) + ": " + result.summary()
    assert result.health["down"] == 0 and result.health["recovering"] == 0


@pytest.mark.parametrize("stage,pool_ec", _LEGS, ids=_LEG_IDS)
def test_failure_drill_randomized_seeds(stage, pool_ec):
    """Two derived seeds per stage so the kill point and workload move."""
    base = random.Random(f"{FAULT_SEED}/failure-matrix").randrange(2 ** 31)
    for round_no in range(2):
        seed = base + 7919 * round_no
        result = run_failure_drill(stage, seed,
                                   osd_count=_osd_count(pool_ec),
                                   image_size=1024 * 1024, extra_ios=12,
                                   queue_depth=4, pool_ec=pool_ec)
        assert result.ok, \
            _seed_banner(stage, seed, pool_ec) + ": " + result.summary()


def test_drill_exercises_degraded_path():
    """The drill is only meaningful if it actually went degraded: reads
    served by non-primaries, retries, and recovery pushes all observed."""
    result = run_failure_drill("kill-primary-mid-txn", FAULT_SEED,
                               osd_count=24, image_size=1024 * 1024,
                               extra_ios=12, queue_depth=4)
    assert result.acked_writes > 0
    assert result.degraded_reads > 0
    assert result.storm_latency_us, "rebuild-storm replay produced no stats"
    p50, p95, p99 = (result.storm_latency_us[k] for k in ("p50", "p95", "p99"))
    assert 0 < p50 <= p95 <= p99


class TestOsdKillPlans:
    """An OSD kill is a :class:`FaultPlan` armed at an OSD-kill stage."""

    def test_unknown_stage_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(stage="kill-the-moon")

    def test_every_stage_of_both_vocabularies_arms(self):
        for stage in ALL_STAGES + OSD_KILL_STAGES:
            assert FaultPlan(stage=stage).stage == stage

    def test_hit_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(stage="kill-primary-mid-txn", hit=0)

    def test_fires_once_at_the_armed_hit(self):
        plan = FaultPlan(stage="kill-replica-mid-txn", hit=3)
        with inject(plan):
            assert not osd_kill_due("kill-replica-mid-txn", 7)
            assert not osd_kill_due("kill-primary-mid-txn", 7)  # other stage
            assert not osd_kill_due("kill-replica-mid-txn", 7)
            assert osd_kill_due("kill-replica-mid-txn", 9)
            assert plan.fired and plan.victim == 9
            assert not osd_kill_due("kill-replica-mid-txn", 9), \
                "a fired plan must never fire again"

    def test_inject_nesting_restores_previous(self):
        outer = FaultPlan(stage="kill-primary-mid-txn")
        inner = FaultPlan(stage="kill-during-backfill")
        with inject(outer):
            with inject(inner):
                assert active_plan() is inner
            assert active_plan() is outer
        assert active_plan() is None

    def test_a_kill_plan_and_a_crash_plan_ignore_each_others_sites(self):
        kill = FaultPlan(stage="kill-primary-mid-txn")
        with inject(kill):
            crash_point(STAGE_MID_DRAIN)            # no ClientCrash
        assert kill.hits_seen == 0 and not kill.fired
        crash = FaultPlan(stage=STAGE_MID_DRAIN)
        with inject(crash):
            assert not osd_kill_due("kill-primary-mid-txn", 3)
        assert crash.hits_seen == 0 and crash.victim is None

    def test_no_plan_means_no_kill(self):
        assert not osd_kill_due("kill-primary-mid-txn", 0)

    def test_random_plan_is_seed_deterministic(self):
        a = FaultPlan.random_plan("kill-primary-mid-txn", 42)
        b = FaultPlan.random_plan("kill-primary-mid-txn", 42)
        assert a.hit == b.hit
        assert 1 <= a.hit <= 8
