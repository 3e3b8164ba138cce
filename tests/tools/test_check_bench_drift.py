"""Pin the floor-vs-equality semantics of tools/check_bench_drift.py."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from check_bench_drift import (DriftError, compare_baseline,  # noqa: E402
                               main, speedup_floor)


def test_speedup_floor_never_below_asserted_minimum():
    assert speedup_floor(6.0) == 5.0      # half of 6 is below the 5x minimum
    assert speedup_floor(20.0) == 10.0    # half the committed baseline
    assert speedup_floor(0.5) == 5.0


@pytest.mark.parametrize("baseline, now, passes", [
    (10.0, 30.0, True),     # a speedup growing is never a failure
    (20.0, 10.0, True),     # just over half the baseline
    (20.0, 9.9, False),     # below half the baseline
    (6.0, 4.9, False),      # below the asserted 5x minimum
])
def test_speedup_metric_is_a_floor(baseline, now, passes):
    check = lambda: compare_baseline(
        {"b": {"speedup_xts": baseline}}, {"b": {"speedup_xts": now}}, [])
    if passes:
        assert check() == []            # speedups are not model outputs
    else:
        with pytest.raises(DriftError, match="fell to"):
            check()


def test_disappearing_benchmark_or_metric_fails():
    baseline = {"b1": {"iops": 10.0}}
    with pytest.raises(DriftError, match="disappeared"):
        compare_baseline(baseline, {}, [])
    with pytest.raises(DriftError, match="metric iops disappeared"):
        compare_baseline(baseline, {"b1": {"other": 1.0}}, [])


def test_non_numeric_and_bool_metrics_are_ignored():
    baseline = {"b1": {"label": "omap", "flag": True, "wall_s": "1.18",
                       "iops": 10.0}}
    assert compare_baseline(baseline, {"b1": {"iops": 10.0}}, []) == [
        ("b1:iops", 10.0, 10.0)]


def _write(path, benchmarks):
    path.write_text(json.dumps({"benchmarks": benchmarks}))
    return str(path)


def test_every_moved_model_output_fails_by_name(tmp_path, capsys):
    """No band: the smallest move in either direction fails, and the last
    line names every moved value, not just the first."""
    results = _write(tmp_path / "bench-results.json", [
        {"name": "b1", "extra_info": {"iops": 100.0, "p99_us": 347.3,
                                      "speedup_x": 12.0, "label": "omap"}},
        {"name": "b2", "extra_info": {"reads": 5}},
    ])
    first = _write(tmp_path / "BENCH_1.json", [
        {"name": "b1", "extra_info": {"iops": 100.0, "p99_us": 347.4,
                                      "speedup_x": 20.0, "label": "omap"}},
    ])
    second = _write(tmp_path / "BENCH_2.json", [
        {"name": "b2", "extra_info": {"reads": 4}},
    ])
    assert main([results, first, second]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == (
        "summary: 1 of 3 modelled values equal to their baselines, 2 moved: "
        "b1:p99_us 347.4 -> 347.3; b2:reads 4 -> 5")
    assert "FAIL" in captured.err


def test_main_passes_when_every_model_output_is_equal(tmp_path, capsys):
    results = _write(tmp_path / "bench-results.json", [
        {"name": "b1", "extra_info": {"iops": 100.0, "speedup_x": 12.0}},
        {"name": "test_ec_overhead",
         "extra_info": {"wa_fullobj_ec": 1.506, "read_p99_us": 238.4}},
    ])
    old = _write(tmp_path / "BENCH_old.json", [
        {"name": "b1", "extra_info": {"iops": 100.0, "speedup_x": 20.0}},
    ])
    new = _write(tmp_path / "BENCH_ec.json", [
        {"name": "test_ec_overhead",
         "extra_info": {"wa_fullobj_ec": 1.506, "read_p99_us": 238.4}},
    ])
    assert main([results, old, new]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "summary: 3 of 3 modelled values equal to their baselines")

    # A results file that predates a baseline's benchmark fails the gate:
    # the baseline list is the source of truth for what CI must produce.
    stale = _write(tmp_path / "stale-results.json", [
        {"name": "b1", "extra_info": {"iops": 100.0, "speedup_x": 12.0}},
    ])
    assert main([stale, old, new]) == 1
    assert "disappeared" in capsys.readouterr().err
