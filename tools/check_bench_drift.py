#!/usr/bin/env python3
"""Gate benchmark results against the committed baselines.

Extracted from the inline CI step so the gate semantics are importable
and unit-testable (``tests/tools/test_check_bench_drift.py``).

Two kinds of numeric ``extra_info`` metrics, two gates:

* ``speedup_*`` keys are measured timing ratios.  They are gated as a
  **floor**: fail only when the advantage falls below the asserted 5x
  minimum or halves versus the committed baseline (robust to runner
  noise -- a speedup growing is never a failure).
* Every other numeric key is a deterministic model output (counters,
  modelled latencies, rounded where the benchmark records it) and must
  **equal** its baseline.

Non-numeric values are ignored (wall-clock readings are recorded as
strings).  A benchmark or metric disappearing is always a failure:
renames must update the committed baseline.

The last line printed is a summary: how many model outputs equal their
baselines and, by name with baseline -> now, every one that moved.

Usage::

    python tools/check_bench_drift.py bench-results.json \
        BENCH_multi_client.json BENCH_crypto.json ...
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Iterable, List, Tuple

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


def load_extra_info(path: str) -> Dict[str, Dict[str, object]]:
    """Map benchmark name -> extra_info from a pytest-benchmark JSON file."""
    with open(path) as handle:
        data = json.load(handle)
    return {b["name"]: b["extra_info"] for b in data["benchmarks"]}


#: one model output: its ``benchmark:key`` label, baseline value, value now
Modelled = Tuple[str, float, float]


def compare_baseline(baseline: Dict[str, Dict[str, object]],
                     current: Dict[str, Dict[str, object]],
                     log: List[str]) -> List[Modelled]:
    """Check every numeric metric of one baseline file against
    ``current``; returns the model outputs to compare for equality.

    Raises :class:`DriftError` for a missing benchmark or metric and for
    a measured speedup below its floor.
    """
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
            log.append(f"{name}:{key}: baseline {value} now {now[key]}")
            if not key.startswith("speedup_"):
                modelled.append((f"{name}:{key}", value, now[key]))
            elif now[key] < speedup_floor(value):
                raise DriftError(f"{name}:{key} fell to {now[key]} "
                                 f"(< {speedup_floor(value)})")
    return modelled


def moved_values(modelled: List[Modelled]) -> List[str]:
    """``label baseline -> now`` for every model output that moved."""
    return [f"{label} {before} -> {now}"
            for label, before, now in modelled if before != now]


def drift_summary(modelled: List[Modelled]) -> str:
    """One line: how many model outputs equal their baselines, and every
    one that moved (baseline -> now)."""
    moved = moved_values(modelled)
    line = (f"summary: {len(modelled) - len(moved)} of {len(modelled)} "
            f"modelled values equal to their baselines")
    return line + (f", {len(moved)} moved: " + "; ".join(moved)
                   if moved else "")


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
    except DriftError as exc:
        print("\n".join(log))
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print("\n".join(log + [drift_summary(modelled)]))
    if moved_values(modelled):
        print("FAIL: modelled values moved from their baselines",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
