"""Event-driven vs analytic model agreement on the paper's Fig. 3 workloads.

The event engine must reduce to the analytic two-bound estimate when there
is nothing for it to add: a single closed-loop client.  The acceptance
band is 15% on the fig3a (random read) and fig3b (random write) workload
shapes.

The comparison cluster uses ``osd_shards=2`` (real OSDs run several
transaction shards; Ceph's default is 8).  With exactly three
single-shard OSDs the event engine correctly charges the busiest primary
for placement imbalance — behaviour the analytic model's uniform division
idealizes away — which is accuracy, not disagreement, but it would make
the band test about placement luck rather than about the models.
"""

from dataclasses import fields, replace

import pytest

from repro.analysis.overhead import LayoutSweep, SweepConfig
from repro.sim.costparams import default_cost_parameters
from repro.util import KIB, MIB

MATCH_TOLERANCE = 0.15
IO_SIZES = (4 * KIB, 64 * KIB, 1024 * KIB)
LAYOUTS = ("luks-baseline", "object-end")


def _sweep(sim_mode: str, kind: str):
    params = default_cost_parameters().with_overrides(osd_shards=2,
                                                      sim_mode=sim_mode)
    config = SweepConfig(io_sizes=IO_SIZES, layouts=LAYOUTS,
                         image_size=32 * MIB, object_size=512 * KIB,
                         bytes_per_point=16 * MIB, min_ios=16, max_ios=128,
                         job=replace(SweepConfig().job, queue_depth=32),
                         params=params)
    return LayoutSweep(config).run(kind)


def test_sweep_config_sim_mode_is_validated():
    """The sim mode lives in the cost parameters alone: a typo is refused
    where they are built, before any sweep exists."""
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError, match="sim_mode"):
        default_cost_parameters().with_overrides(sim_mode="event")  # typo
    assert "sim_mode" not in {field.name for field in fields(SweepConfig)}


def test_sweep_inherits_sim_mode_from_params():
    params = default_cost_parameters()
    params.sim_mode = "events"
    config = SweepConfig(io_sizes=(4096,), layouts=("luks-baseline",),
                         image_size=16 * MIB, bytes_per_point=256 * KIB,
                         max_ios=16, params=params)
    results = LayoutSweep(config).run("write")
    assert results.result("luks-baseline", 4096).estimate.sim_mode == "events"


@pytest.mark.parametrize("kind", ["read", "write"])
def test_single_client_events_match_analytic(kind):
    analytic = _sweep("analytic", kind)
    events = _sweep("events", kind)
    for layout in LAYOUTS:
        for io_size in IO_SIZES:
            base = analytic.bandwidth(layout, io_size)
            value = events.bandwidth(layout, io_size)
            assert value == pytest.approx(base, rel=MATCH_TOLERANCE), (
                f"{kind} {layout} {io_size}: events {value:.1f} MiB/s "
                f"vs analytic {base:.1f} MiB/s")
            # The event estimate carries real percentiles.
            result = events.result(layout, io_size)
            assert result.estimate.sim_mode == "events"
            assert result.percentile("p99") >= result.percentile("p50") > 0


def test_crypto_bound_workloads_stay_in_band():
    """Client-side crypto CPU must reach the event replay's client queue:
    with an expensive (no-AES-NI) cipher calibration the client CPU is the
    bottleneck, and both models must agree there too."""
    def point(sim_mode):
        params = default_cost_parameters().with_overrides(
            osd_shards=2, crypto_block_cost_us=50.0, sim_mode=sim_mode)
        config = SweepConfig(io_sizes=(64 * KIB,), layouts=("object-end",),
                             image_size=32 * MIB, object_size=512 * KIB,
                             bytes_per_point=8 * MIB, max_ios=128,
                             job=replace(SweepConfig().job, queue_depth=32),
                             params=params)
        return LayoutSweep(config).run("write").result("object-end", 64 * KIB)

    analytic, events = point("analytic"), point("events")
    assert analytic.estimate.bounding_resource == "client.cpu"
    assert events.bandwidth_mbps == pytest.approx(analytic.bandwidth_mbps,
                                                  rel=MATCH_TOLERANCE)


def test_event_mode_is_never_faster_than_both_bounds():
    """The analytic estimate is a lower bound on elapsed time; the replay
    may only add queueing on top of it."""
    analytic = _sweep("analytic", "write")
    events = _sweep("events", "write")
    for layout in LAYOUTS:
        for io_size in IO_SIZES:
            a = analytic.result(layout, io_size).estimate
            e = events.result(layout, io_size).estimate
            # Allow a tiny numeric slack: the event replay can pipeline a
            # final op's latency into the drain that the Little's-law
            # bound charges in full.
            assert e.elapsed_us >= 0.85 * a.elapsed_us
