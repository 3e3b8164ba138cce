#!/usr/bin/env python3
"""Compare two sets of benchmark results under the benchmark's own rules.

    python3 perf/compare.py --base out/parent --change out/pr \\
        [--claim ops_per_s@small_rw]
    python3 perf/compare.py --aa [--runs 10] [--seed 1]

Inputs are the result JSONs ``perf/run.py --out DIR`` writes (files or
directories; two or more runs per side and workload).  For every
end-to-end metric x workload the change's median is held against the
parent's median and the bound fixed in ``BENCHMARK.json``:

``ok``          no worse than the parent by more than the bound
``regressed``   worse by more than the bound
``unresolved``  the parent's own run-to-run spread (inter-quartile distance
                over median) is wider than the bound, unless every run of
                the change reads better than every run of the parent

A ``--claim metric@workload`` is met only if the change wins at least
nine tenths of the pairs (runs are paired by seed; ties count for
neither) *and* the medians differ by more than the parent's
inter-quartile distance.  Exact metrics (counts and modelled values of
the traced runs) must be bit-identical between runs of one seed; one that
moved means the model changed, not the speed.  Every ratio is printed
with its base.  The exit code is non-zero on a regression, a moved exact
metric, an incorrect run or an unmet claim.

``--aa`` runs this tree against itself — ``--runs`` interleaved pairs of
untraced runs per workload plus one traced pair — and must pass.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)     # see run.py: keep trace.py from shadowing stdlib

from perf import harness  # noqa: E402

Results = Dict[Tuple[str, int], List[dict]]     # (workload, trace) -> runs


def load(paths: Sequence[str]) -> Results:
    """Result records grouped by (workload, trace), sorted by seed."""
    files: List[Path] = []
    for path in map(Path, paths):
        files += sorted(path.glob("*.json")) if path.is_dir() else [path]
    grouped: Results = {}
    for file in files:
        if file.name.endswith(".trace.json"):
            continue                    # a wall-clock trace, not a result
        record = json.loads(file.read_text())
        grouped.setdefault((record["workload"], record["trace"]), []) \
            .append(record)
    for runs in grouped.values():
        runs.sort(key=lambda record: record["seed"])
    return grouped


def _values(runs: Sequence[dict], metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs]


def _by_seed(runs: Sequence[dict]) -> Dict[int, dict]:
    return {run["seed"]: run for run in runs}


def judge(base: Sequence[float], change: Sequence[float], better: str,
          bound: float) -> Tuple[str, float, float]:
    """(status, how much worse as a share of the base median, base spread)."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    worse_by = sign * (statistics.median(change) - base_median) / base_median
    spread = harness.iqr(base) / base_median
    every_run_better = (max(change) < min(base) if better == "lower"
                        else min(change) > max(base))
    if spread > bound and not every_run_better:
        return "unresolved", worse_by, spread
    return ("regressed" if worse_by > bound else "ok"), worse_by, spread


def claim_met(base_runs: Sequence[dict], change_runs: Sequence[dict],
              metric: str, better: str) -> Tuple[bool, str]:
    """The pairing rule of the choosing-metrics guide, section 8."""
    base, change = _by_seed(base_runs), _by_seed(change_runs)
    seeds = sorted(set(base) & set(change))
    if not seeds:
        return False, "no runs share a seed, so nothing pairs"
    wins = losses = 0
    for seed in seeds:
        b = base[seed]["metrics"][metric]["value"]
        c = change[seed]["metrics"][metric]["value"]
        if c != b:
            if (c < b) == (better == "lower"):
                wins += 1
            else:
                losses += 1
    base_values = _values(base_runs, metric)
    gap = abs(statistics.median(_values(change_runs, metric))
              - statistics.median(base_values))
    distance = harness.iqr(base_values)
    met = wins >= 0.9 * len(seeds) and gap > distance and wins > losses
    return met, (f"won {wins}/{len(seeds)} pairs (lost {losses}); medians "
                 f"differ by {gap:.6g}, parent's inter-quartile distance "
                 f"{distance:.6g}")


def compare(base: Results, change: Results, spec: dict,
            claim: Optional[str] = None) -> int:
    """Print the verdict table; return the exit code."""
    status = 0
    print(f"{'workload':16s} {'metric':14s} {'base median':>14s} "
          f"{'change median':>14s} {'change/base':>11s} {'base IQR/med':>12s} "
          f"{'bound':>6s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        base_runs = base.get((workload, 0), [])
        change_runs = change.get((workload, 0), [])
        if len(base_runs) < 2 or len(change_runs) < 2:
            print(f"{workload:16s} needs two or more untraced runs per side "
                  f"(base {len(base_runs)}, change {len(change_runs)})")
            status = 1
            continue
        for run in list(base_runs) + list(change_runs):
            if not run["correct"]:
                print(f"{workload:16s} seed {run['seed']}: INCORRECT run "
                      f"({run['failed']}/{run['attempted']} failed)")
                status = 1
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, c = _values(base_runs, name), _values(change_runs, name)
            verdict, _worse, spread = judge(b, c, metric["better"],
                                            metric["bound"])
            mb, mc = statistics.median(b), statistics.median(c)
            print(f"{workload:16s} {name:14s} {mb:14.6g} {mc:14.6g} "
                  f"{mc / mb:11.4f} {spread:12.4f} {metric['bound']:6.2f}  "
                  f"{verdict}")
            if verdict == "regressed":
                status = 1

    moved = 0
    for (workload, traced), base_runs in sorted(base.items()):
        if not traced:
            continue
        others = _by_seed(change.get((workload, 1), []))
        for run in base_runs:
            other = others.get(run["seed"])
            if other is None:
                continue
            for name in sorted(harness.EXACT_METRICS):
                b = run["metrics"][name]["value"]
                c = other["metrics"][name]["value"]
                if b != c:
                    print(f"exact metric moved: {name} on {workload} "
                          f"(seed {run['seed']}): {b!r} -> {c!r}")
                    moved += 1
    print(f"exact metrics: {moved} moved" if moved else
          "exact metrics: identical wherever a seed was traced on both sides")
    status |= bool(moved)

    if claim:
        metric_name, _, workload = claim.partition("@")
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        if metric_name not in better or (workload, 0) not in base:
            print(f"claim {claim}: unknown metric or workload")
            return 1
        met, why = claim_met(base[(workload, 0)],
                             change.get((workload, 0), []), metric_name,
                             better[metric_name])
        print(f"claim {claim}: {'MET' if met else 'NOT MET'} — {why}")
        status |= not met
    return status


def run_aa(args: argparse.Namespace, spec: dict) -> int:
    """The same tree twice, interleaved; every verdict must be ``ok``."""
    out = Path(args.out or Path(__file__).resolve().parent / "out"
               / f"aa-seed{args.seed}")
    sides = [out / "a", out / "b"]
    runner = str(Path(__file__).resolve().parent / "run.py")
    plan = [(pair, 0) for pair in range(args.runs)] + [(0, 1)]
    for pair, traced in plan:
        order = sides if pair % 2 == 0 else sides[::-1]
        for workload in (w["name"] for w in spec["workloads"]):
            for side in order:
                done = subprocess.run(
                    [sys.executable, runner, "--workload", workload,
                     "--seed", str(args.seed + pair), "--trace", str(traced),
                     "--seconds", str(args.seconds), "--out", str(side)],
                    capture_output=True, text=True)
                if done.returncode:
                    sys.stderr.write(done.stderr)
                    print(f"A/A run failed: {workload} seed "
                          f"{args.seed + pair} trace {traced}")
                    return 1
    print(f"A/A results under {out}")
    return compare(load([str(sides[0])]), load([str(sides[1])]), spec)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", metavar="PATH")
    parser.add_argument("--change", nargs="+", metavar="PATH")
    parser.add_argument("--claim", metavar="METRIC@WORKLOAD")
    parser.add_argument("--aa", action="store_true",
                        help="run this tree against itself and compare")
    parser.add_argument("--runs", type=int, default=10,
                        help="--aa: interleaved pairs per workload")
    parser.add_argument("--seed", type=int, default=1,
                        help="--aa: seed of the first pair")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="--aa: budget of one run")
    parser.add_argument("--out", metavar="DIR",
                        help="--aa: where the result JSONs go")
    args = parser.parse_args(argv)
    if args.aa:
        return run_aa(args, spec)
    if not args.base or not args.change:
        parser.error("--base and --change are required (or use --aa)")
    return compare(load(args.base), load(args.change), spec, args.claim)


if __name__ == "__main__":
    sys.exit(main())
