#!/usr/bin/env python3
"""Entry point of the host-time benchmark.

    python3 perf/run.py --workload small_rw --seed 1 --seconds 10 --trace 0
    python3 perf/run.py                       # every workload, both passes

With ``--workload`` the run happens in this process (the caller already
started a fresh one) and the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without it, every workload runs in its own subprocess
(so ``peak_rss_mib`` and allocator state are per workload), untraced and
then traced, and a table is printed.  The exit code is non-zero on any
correctness failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The script directory holds trace.py, which must not shadow the standard
# library's ``trace`` for anything imported later; import via the package.
sys.path[0] = str(ROOT)

from perf import harness  # noqa: E402


def _parse(argv=None) -> argparse.Namespace:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="budget of timed rounds in one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 = end-to-end metrics, 1 = per-layer metrics "
                             "(default: 0 for one workload, both for all)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op lists and two rounds (self-test scale)")
    parser.add_argument("--out", metavar="DIR",
                        help="write result JSONs (and the wall-clock trace "
                             "of a traced run) into DIR")
    return parser.parse_args(argv)


def _stem(args: argparse.Namespace, traced: int) -> str:
    return f"{args.workload}.seed{args.seed}.trace{traced}"


def run_one(args: argparse.Namespace) -> int:
    traced = args.trace or 0
    out = Path(args.out) if args.out else None
    trace_path = None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        if traced:
            trace_path = str(out / f"{_stem(args, traced)}.trace.json")
    result = harness.run_workload(args.workload, args.seed, args.seconds,
                                  bool(traced), smoke=args.smoke,
                                  trace_path=trace_path)
    if out is not None:
        record = dict(result, git_sha=harness.git_sha(ROOT),
                      host=harness.host_info())
        (out / f"{_stem(args, traced)}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n")
    for problem in result["problems"]:
        print(f"exact metric moved between rounds: {problem}", file=sys.stderr)
    samples = result["samples"]
    print(f"# {args.workload} seed={args.seed} trace={traced}: "
          f"setups={samples['setups']} timed_rounds={samples['timed_rounds']} "
          f"traced_rounds={samples['traced_rounds']} "
          f"per round: ops={samples['ops_per_round']} "
          f"writes={samples['writes_per_round']} "
          f"reads={samples['reads_per_round']}; "
          f"host speed factor {result['speed_factor']['median']:.3f}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    passes = (0, 1) if args.trace is None else (args.trace,)
    status = 0
    for name in harness.WORKLOADS:
        for traced in passes:
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(traced)]
            if args.smoke:
                command.append("--smoke")
            if args.out:
                command += ["--out", args.out]
            done = subprocess.run(command, capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            if not done.stdout.strip():
                print(f"{name} trace={traced}: no result "
                      f"(exit {done.returncode})")
                status = 1
                continue
            *notes, last = done.stdout.strip().splitlines()
            result = json.loads(last)
            status |= done.returncode
            print("\n".join(notes))
            verdict = "ok" if result["correct"] else "INCORRECT"
            print(f"{name} trace={traced} seed={args.seed}: {verdict}, "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"fail_ratio={result['failed'] / result['attempted']:.6f}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:40s} {entry['value']:16.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
