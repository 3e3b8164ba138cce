"""Pin the floor-vs-drift semantics of tools/check_bench_drift.py."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from check_bench_drift import (DriftError, compare_baseline, compare_metric,
                               main, relative_drift, speedup_floor)


def test_speedup_floor_never_below_asserted_minimum():
    assert speedup_floor(6.0) == 5.0      # half of 6 is below the 5x minimum
    assert speedup_floor(20.0) == 10.0    # half the committed baseline
    assert speedup_floor(0.5) == 5.0


def test_relative_drift_is_symmetric_and_zero_safe():
    assert relative_drift(100.0, 110.0) == pytest.approx(0.10)
    assert relative_drift(100.0, 90.0) == pytest.approx(0.10)
    assert relative_drift(0.0, 0.0) == 0.0
    assert relative_drift(0.0, 1.0) == 1.0


def test_speedup_metric_is_a_floor_not_a_band():
    log = []
    # tripling a speedup is fine (a +-10% band would reject it)
    compare_metric("bench", "speedup_xts", 10.0, 30.0, log)
    # dropping to just over half the baseline is fine
    compare_metric("bench", "speedup_xts", 20.0, 10.0, log)
    # falling below half the baseline fails
    with pytest.raises(DriftError, match="fell to"):
        compare_metric("bench", "speedup_xts", 20.0, 9.9, log)
    # falling below the asserted 5x minimum fails even if baseline is low
    with pytest.raises(DriftError, match="fell to"):
        compare_metric("bench", "speedup_xts", 6.0, 4.9, log)


def test_plain_metric_is_a_drift_band_not_a_floor():
    log = []
    compare_metric("bench", "sectors_written", 100.0, 109.0, log)
    compare_metric("bench", "sectors_written", 100.0, 91.0, log)
    # improving beyond the band still fails: deterministic model outputs
    # must not move silently in either direction
    with pytest.raises(DriftError, match="drifted"):
        compare_metric("bench", "sectors_written", 100.0, 89.0, log)
    with pytest.raises(DriftError, match="drifted"):
        compare_metric("bench", "sectors_written", 100.0, 111.0, log)


def test_disappearing_benchmark_or_metric_fails():
    baseline = {"b1": {"iops": 10.0}}
    with pytest.raises(DriftError, match="disappeared"):
        compare_baseline(baseline, {}, [])
    with pytest.raises(DriftError, match="metric iops disappeared"):
        compare_baseline(baseline, {"b1": {"other": 1.0}}, [])


def test_non_numeric_and_bool_metrics_are_ignored():
    baseline = {"b1": {"label": "omap", "flag": True, "iops": 10.0}}
    current = {"b1": {"iops": 10.0}}
    compare_baseline(baseline, current, [])   # must not raise


def _write(path, benchmarks):
    path.write_text(json.dumps({"benchmarks": benchmarks}))
    return str(path)


def test_main_end_to_end(tmp_path, capsys):
    results = _write(tmp_path / "bench-results.json", [
        {"name": "b1", "extra_info": {"iops": 102.0, "speedup_x": 12.0}},
    ])
    good = _write(tmp_path / "BENCH_good.json", [
        {"name": "b1", "extra_info": {"iops": 100.0, "speedup_x": 20.0}},
    ])
    assert main([results, good]) == 0
    assert "trajectory OK" in capsys.readouterr().out

    bad = _write(tmp_path / "BENCH_bad.json", [
        {"name": "b1", "extra_info": {"iops": 200.0}},
    ])
    assert main([results, bad]) == 1
    assert "FAIL" in capsys.readouterr().err


def test_last_line_names_what_moved_inside_the_band(tmp_path, capsys):
    """+-10% hides a stale baseline; the summary does not."""
    results = _write(tmp_path / "bench-results.json", [
        {"name": "b1", "extra_info": {"iops": 100.0, "p99_us": 347.3,
                                      "speedup_x": 12.0, "label": "omap"}},
        {"name": "b2", "extra_info": {"reads": 4}},
    ])
    first = _write(tmp_path / "BENCH_1.json", [
        {"name": "b1", "extra_info": {"iops": 100.0, "p99_us": 348.7,
                                      "speedup_x": 20.0, "label": "omap"}},
    ])
    second = _write(tmp_path / "BENCH_2.json", [
        {"name": "b2", "extra_info": {"reads": 4}},
    ])
    assert main([results, first, second]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "summary: 2 of 3 modelled values bit-equal to their baselines, "
        "1 moved inside the +-10% band: b1:p99_us 348.7 -> 347.3")
    assert main([results, second]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "summary: 1 of 1 modelled values bit-equal to their baselines, "
        "0 moved inside the +-10% band")


def test_newly_added_baseline_file_joins_the_gate(tmp_path, capsys):
    """Adding a baseline for a brand-new benchmark (the BENCH_ec.json
    pattern): the new file gates its own benchmark without disturbing the
    existing baselines, and a run missing the new benchmark fails."""
    results = _write(tmp_path / "bench-results.json", [
        {"name": "old_bench", "extra_info": {"iops": 100.0}},
        {"name": "test_ec_overhead",
         "extra_info": {"wa_fullobj_ec": 1.506, "read_p99_us": 238.4}},
    ])
    old = _write(tmp_path / "BENCH_old.json", [
        {"name": "old_bench", "extra_info": {"iops": 100.0}},
    ])
    new = _write(tmp_path / "BENCH_ec.json", [
        {"name": "test_ec_overhead",
         "extra_info": {"wa_fullobj_ec": 1.506, "read_p99_us": 238.4}},
    ])
    assert main([results, old, new]) == 0
    out = capsys.readouterr().out
    assert out.count("trajectory OK") == 2

    # A results file that predates the new benchmark must fail the gate:
    # the baseline list is the source of truth for what CI must produce.
    stale = _write(tmp_path / "stale-results.json", [
        {"name": "old_bench", "extra_info": {"iops": 100.0}},
    ])
    assert main([stale, old, new]) == 1
    assert "disappeared" in capsys.readouterr().err
