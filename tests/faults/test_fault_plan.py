"""Unit tests of the fault-plan machinery (repro.faults.plan)."""

import dataclasses

import pytest

from repro import faults
from repro.errors import ConfigurationError
from repro.faults import (ALL_STAGES, CRASH_STAGES, ClientCrash, FaultPlan,
                          STAGE_MID_DRAIN, STAGE_PRE_LOG_APPEND,
                          STAGE_TORN_LOG_TAIL, STAGE_TORN_OSD_WRITE,
                          active_plan, crash_point, inject, torn_op_count,
                          torn_tail_bytes)


def test_stage_vocabulary_is_closed():
    assert set(CRASH_STAGES) <= set(ALL_STAGES)
    assert STAGE_TORN_OSD_WRITE in ALL_STAGES
    assert STAGE_TORN_LOG_TAIL in ALL_STAGES
    assert len(ALL_STAGES) == len(set(ALL_STAGES))


def test_unknown_stage_rejected():
    with pytest.raises(ConfigurationError):
        FaultPlan(stage="no-such-stage")


def test_hit_must_be_positive():
    with pytest.raises(ConfigurationError):
        FaultPlan(stage=STAGE_MID_DRAIN, hit=0)


def test_one_plan_class_with_four_settable_values():
    """Client crashes and OSD kills share the plan; its firing state is
    the plan's own."""
    assert [field.name for field in dataclasses.fields(FaultPlan)
            if field.init] == ["stage", "hit", "torn_keep", "seed"]
    assert not {"OsdFaultPlan", "inject_osd_fault",
                "active_osd_fault"} & set(dir(faults))


def test_no_active_plan_outside_inject():
    assert active_plan() is None
    crash_point(STAGE_PRE_LOG_APPEND)   # must be a no-op
    assert torn_op_count(5) is None
    assert torn_tail_bytes(100) is None


def test_crash_point_fires_on_the_configured_hit():
    plan = FaultPlan(stage=STAGE_MID_DRAIN, hit=3)
    with inject(plan):
        crash_point(STAGE_MID_DRAIN)
        crash_point(STAGE_MID_DRAIN)
        with pytest.raises(ClientCrash) as excinfo:
            crash_point(STAGE_MID_DRAIN)
    assert excinfo.value.stage == STAGE_MID_DRAIN
    assert plan.fired


def test_crash_fires_exactly_once():
    plan = FaultPlan(stage=STAGE_MID_DRAIN, hit=1)
    with inject(plan):
        with pytest.raises(ClientCrash):
            crash_point(STAGE_MID_DRAIN)
        crash_point(STAGE_MID_DRAIN)   # already fired: no-op


def test_other_stages_do_not_count_arrivals():
    plan = FaultPlan(stage=STAGE_MID_DRAIN, hit=1)
    with inject(plan):
        crash_point(STAGE_PRE_LOG_APPEND)
        assert not plan.fired
        assert plan.hits_seen == 0


def test_inject_restores_previous_plan():
    outer = FaultPlan(stage=STAGE_MID_DRAIN, hit=99)
    inner = FaultPlan(stage=STAGE_PRE_LOG_APPEND, hit=99)
    with inject(outer):
        with inject(inner):
            assert active_plan() is inner
        assert active_plan() is outer
    assert active_plan() is None


def test_client_crash_is_not_an_exception():
    # A library-level `except Exception` must never absorb the crash.
    assert not issubclass(ClientCrash, Exception)
    assert issubclass(ClientCrash, BaseException)
    with pytest.raises(ClientCrash):
        try:
            raise ClientCrash(STAGE_MID_DRAIN)
        except Exception:   # pragma: no cover - must not be reached
            pytest.fail("ClientCrash was caught by `except Exception`")


def test_tear_point_is_a_strict_prefix():
    plan = FaultPlan(stage=STAGE_TORN_OSD_WRITE, seed=3)
    for total in (1, 2, 5, 100):
        assert 0 <= plan.tear_point(total) < total


def test_tear_point_honours_torn_keep():
    plan = FaultPlan(stage=STAGE_TORN_OSD_WRITE, torn_keep=2)
    assert plan.tear_point(5) == 2
    assert plan.tear_point(2) == 1    # clamped to a strict prefix
    assert plan.tear_point(1) == 0


def test_torn_op_count_fires_with_prefix():
    plan = FaultPlan(stage=STAGE_TORN_OSD_WRITE, hit=2, torn_keep=1)
    with inject(plan):
        assert torn_op_count(4) is None        # first arrival: not yet
        assert torn_op_count(4) == 1           # second arrival: tear
        assert torn_op_count(4) is None        # fired: back to normal


def test_random_plan_is_deterministic_per_seed_and_stage():
    one = FaultPlan.random_plan(STAGE_MID_DRAIN, seed=42)
    two = FaultPlan.random_plan(STAGE_MID_DRAIN, seed=42)
    other_stage = FaultPlan.random_plan(STAGE_PRE_LOG_APPEND, seed=42)
    assert one.hit == two.hit
    assert 1 <= one.hit <= 8
    # different stages draw independent hits (not necessarily different,
    # but the draw must not crash and must stay in range)
    assert 1 <= other_stage.hit <= 8
