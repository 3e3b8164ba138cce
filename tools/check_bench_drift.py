#!/usr/bin/env python3
"""Gate benchmark results against the committed baselines.

Extracted from the inline CI step so the floor-vs-drift semantics are
importable and unit-testable (``tests/tools/test_check_bench_drift.py``).

Two kinds of numeric ``extra_info`` metrics, two gates:

* ``speedup_*`` keys are measured timing ratios.  They are gated as a
  **floor**, not a drift band: fail only when the advantage falls below
  the asserted 5x minimum or halves versus the committed baseline
  (robust to runner noise -- a speedup growing is never a failure).
* Every other numeric key is a deterministic model output (counters,
  modelled latencies) and must stay within **+-10% drift** of the
  baseline.

Non-numeric values are ignored.  A benchmark or metric disappearing is
always a failure: renames must update the committed baseline.

The band hides small moves, so the last line printed is a summary: how
many model outputs are bit-equal to their baselines and, by name with
baseline -> now, which moved inside the band.  A PR that claims "one
number moved" is checked against that line.

Usage::

    python tools/check_bench_drift.py bench-results.json \
        BENCH_multi_client.json BENCH_crypto.json ...
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Iterable, List, Tuple

#: drift tolerance for deterministic model metrics
DRIFT_TOLERANCE = 0.10
#: asserted minimum for measured ``speedup_*`` ratios
SPEEDUP_FLOOR = 5.0


class DriftError(AssertionError):
    """A benchmark metric fell outside its gate."""


def speedup_floor(baseline_value: float) -> float:
    """The pass floor for a measured speedup ratio.

    The larger of the asserted 5x minimum and half the committed
    baseline, so a regression to "still fast but half as fast" fails
    while runner noise does not.
    """
    return max(SPEEDUP_FLOOR, baseline_value / 2)


def relative_drift(baseline_value: float, current_value: float) -> float:
    """Symmetric relative drift; a zero baseline only matches zero."""
    if baseline_value:
        return abs(current_value - baseline_value) / abs(baseline_value)
    return 1.0 if current_value else 0.0


def load_extra_info(path: str) -> Dict[str, Dict[str, object]]:
    """Map benchmark name -> extra_info from a pytest-benchmark JSON file."""
    with open(path) as handle:
        data = json.load(handle)
    return {b["name"]: b["extra_info"] for b in data["benchmarks"]}


def compare_metric(name: str, key: str, baseline_value: float,
                   current_value: float, log: List[str]) -> None:
    """Gate one numeric metric; raises :class:`DriftError` on failure."""
    if key.startswith("speedup_"):
        floor = speedup_floor(baseline_value)
        log.append(f"{name}:{key}: baseline {baseline_value} now "
                   f"{current_value} (floor {floor})")
        if current_value < floor:
            raise DriftError(
                f"{name}:{key} fell to {current_value} (< {floor})")
        return
    drift = relative_drift(baseline_value, current_value)
    log.append(f"{name}:{key}: baseline {baseline_value} now "
               f"{current_value} (drift {drift:.1%})")
    if drift >= DRIFT_TOLERANCE:
        raise DriftError(f"{name}:{key} drifted {drift:.1%}")


#: one model output: its ``benchmark:key`` label, baseline value, value now
Modelled = Tuple[str, float, float]


def compare_baseline(baseline: Dict[str, Dict[str, object]],
                     current: Dict[str, Dict[str, object]],
                     log: List[str]) -> List[Modelled]:
    """Gate every numeric metric of one baseline file against ``current``;
    returns the model outputs compared (measured speedups are not)."""
    modelled: List[Modelled] = []
    for name, info in baseline.items():
        now = current.get(name)
        if now is None:
            raise DriftError(f"benchmark {name} disappeared")
        for key, value in info.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            if key not in now:
                raise DriftError(f"{name}: metric {key} disappeared")
            compare_metric(name, key, value, now[key], log)
            if not key.startswith("speedup_"):
                modelled.append((f"{name}:{key}", value, now[key]))
    return modelled


def drift_summary(modelled: List[Modelled]) -> str:
    """One line: how many model outputs are bit-equal to their baselines
    and which moved inside the band (baseline -> now)."""
    moved = [f"{label} {before} -> {now}"
             for label, before, now in modelled if before != now]
    line = (f"summary: {len(modelled) - len(moved)} of {len(modelled)} "
            f"modelled values bit-equal to their baselines, {len(moved)} "
            f"moved inside the +-{DRIFT_TOLERANCE:.0%} band")
    return line + (": " + "; ".join(moved) if moved else "")


def main(argv: Iterable[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", help="bench-results.json from the CI run")
    parser.add_argument("baselines", nargs="+",
                        help="committed BENCH_*.json baseline files")
    args = parser.parse_args(None if argv is None else list(argv))

    current = load_extra_info(args.results)
    log: List[str] = []
    modelled: List[Modelled] = []
    try:
        for baseline_file in args.baselines:
            modelled += compare_baseline(load_extra_info(baseline_file),
                                         current, log)
            log.append(f"{baseline_file}: benchmark trajectory OK")
    except DriftError as exc:
        print("\n".join(log))
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print("\n".join(log + [drift_summary(modelled)]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
