"""Run protocol, estimators and metric assembly.

Two clocks, named.  *Host time* is what the interpreter takes
(``time.perf_counter``); *sim time* is what the modelled cluster would
take (receipts, ledger, ``EventSimResult``).  Host-time metrics are what
this benchmark adds; the sim-time and count metrics ride along as
exact-repeat invariants so that "faster" can never mean "models
something else".

One run is one process and one workload: ``setup()`` (repeated, median
reported), one warm-up round, then timed rounds of the workload's fixed
op list until ``seconds`` of budget are spent.  Every host interval is
expressed at the reference host speed (:mod:`perf.speed`: this box's own
speed wanders +-25 % in multi-second phases, which neither a median nor
the quietest round of raw times survives), and every host-time value is
the **median over timed rounds** of the per-round rate or percentile.
The per-round values, raw and normalised, travel in the result beside it
as the recorded noise band.

End-to-end metrics come from an untraced run (zero wrappers installed).
A traced run spends half its budget untraced (client tails, modelled
invariants, the noise band) and then runs W=1 R=2 rounds with
``perf.trace`` interposed for the per-layer self times; the ratio of the
two rates is ``trace.overhead_ratio``.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import trace
from .speed import HostSpeed
from .workloads import WORKLOADS, Round, Workload

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPS = 3
#: timed rounds every run holds regardless of budget; the modelled
#: (exact) metrics are computed over exactly these, so they do not depend
#: on how many rounds a fast or slow host fits into the budget
MIN_ROUNDS = 3
#: timed rounds of the traced phase (after one traced warm-up)
TRACED_ROUNDS = 2
#: a per-round p99 needs ten samples beyond it
P99_MIN_SAMPLES = 1000

#: what a user of the system sees; bounds live in BENCHMARK.json
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "write_p50_us": "us",
    "read_p50_us": "us",
    "peak_rss_mib": "MiB",
}

#: layers whose share of traced self time is reported
SHARE_LAYERS = ("engine", "cache", "pwl", "clone", "rbd", "encryption",
                "crypto", "rados", "kvstore", "blockdev", "sim", "obs",
                trace.HARNESS_LAYER)

PER_LAYER: Dict[str, str] = {
    "engine.self_us_per_op": "us",
    "engine.requests_per_txn": "ratio",
    "cache.self_us_per_op": "us",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "cache.writeback_blocks_per_write": "ratio",
    "pwl.append_us_per_write": "us",
    "pwl.drain_us_per_record": "us",
    "pwl.appended_bytes_per_user_byte": "ratio",
    "clone.self_us_per_op": "us",
    "clone.copyups": "count",
    "clone.copyup_bytes_per_user_byte": "ratio",
    "clone.parent_reads_per_read": "ratio",
    "rbd.self_us_per_op": "us",
    "rbd.object_extents_per_op": "ratio",
    "encryption.self_us_per_op": "us",
    "encryption.blocks_per_op": "ratio",
    "crypto.cipher_us_per_block": "us",
    "crypto.iv_us_per_block": "us",
    "crypto.drbg_reads_per_write": "ratio",
    "crypto.blocks_encrypted": "count",
    "crypto.blocks_decrypted": "count",
    "rados.client_self_us_per_txn": "us",
    "rados.placement_us_per_txn": "us",
    "rados.placement_calls_per_txn": "ratio",
    "rados.osd_apply_us_per_txn": "us",
    "rados.txns_per_op": "ratio",
    "rados.retries": "count",
    "rados.ec_codec_us_per_op": "us",
    "rados.ec_rmw_reads_per_write": "ratio",
    "kvstore.self_us_per_batch": "us",
    "kvstore.keys_written": "count",
    "kvstore.wal_bytes_per_user_byte": "ratio",
    "kvstore.flushes": "count",
    "kvstore.compactions": "count",
    "blockdev.self_us_per_io": "us",
    "blockdev.write_ios_per_op": "ratio",
    "blockdev.rmw_sectors_read": "count",
    "blockdev.flushes": "count",
    "blockdev.bytes_written_per_user_byte": "ratio",
    "sim.ledger_self_us_per_op": "us",
    "sim.replay_warm_s": "s",
    "sim.replay_cold_s": "s",
    "sim.events_per_s": "1/s",
    "sim.encode_s": "s",
    "sim.tile_s": "s",
    "sim.p50_us": "us",
    "sim.p99_us": "us",
    "workload.capture_s": "s",
    "workload.arrivals_s": "s",
    "obs.registry_ms": "ms",
    "obs.prometheus_ms": "ms",
    "obs.export_share": "ratio",
    "client.write_p99_us": "us",
    "client.read_p99_us": "us",
    "model.sim_us_per_op": "us",
    "model.write_amp": "ratio",
    "model.space_amp": "ratio",
    "trace.overhead_ratio": "ratio",
    "host.round_iqr_ratio": "ratio",
    "host.speed_factor": "ratio",
    **{f"{layer}.self_share": "ratio" for layer in SHARE_LAYERS},
}

#: per-layer metrics that are counts or modelled values: two runs with
#: one seed must agree on them bit for bit (``perf/compare.py`` and the
#: self-test check it).  A change that moves one changed the model, not
#: the speed.
EXACT_METRICS = frozenset(
    name for name, unit in PER_LAYER.items()
    if unit == "count" or name.startswith("model.")
    or name in ("sim.p50_us", "sim.p99_us")
    or (unit == "ratio" and not name.endswith(".self_share")
        and name not in ("trace.overhead_ratio", "host.round_iqr_ratio",
                         "host.speed_factor", "obs.export_share")))

#: ``Round`` fields that must repeat exactly from one timed round to the
#: next (same op list => same receipts, same ledger diff, same device I/O)
EXACT_ROUND_FIELDS = ("ops", "sim_us", "user_bytes_written", "counters",
                      "device")


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile (0 below 2 samples)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _div(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def round_rates(rounds: Sequence[Round]) -> List[float]:
    return [r.ops / r.host_s for r in rounds]


def round_percentiles_us(rounds: Sequence[Round], field: str, q: float,
                         min_samples: int = 1) -> List[float]:
    """Per-round percentile of ``write_s``/``read_s`` in microseconds."""
    return [percentile(getattr(r, field), q) * 1e6 for r in rounds
            if len(getattr(r, field)) >= min_samples]


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process (KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def _timed_rounds(workload: Workload, speed: HostSpeed, budget_s: float,
                  at_least: int, at_most: Optional[int]) -> List[Round]:
    """Rounds until the budget is spent (``gc.collect()`` between them)."""
    rounds: List[Round] = []
    deadline = time.perf_counter() + budget_s
    while len(rounds) < at_least or (
            time.perf_counter() < deadline
            and (at_most is None or len(rounds) < at_most)):
        gc.collect()
        rounds.append(workload.run_round(speed, None))
    return rounds


def _exact_mismatches(rounds: Sequence[Round]) -> List[str]:
    """Exact fields that differ between the first and a later timed round."""
    first = rounds[0]
    return [f"round {index}: {name}"
            for index, other in enumerate(rounds[1:], start=1)
            for name in EXACT_ROUND_FIELDS
            if getattr(other, name) != getattr(first, name)]


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 smoke: bool = False, trace_path: Optional[str] = None
                 ) -> Dict[str, object]:
    """One run of one workload in this process; returns the result record."""
    workload = WORKLOADS[name](seed, smoke)
    speed = HostSpeed()
    setup_s: List[float] = []
    setup_factor = 1.0
    for _ in range(1 if (smoke or traced) else SETUP_REPS):
        gc.collect()
        speed.reset()
        began = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - began
        setup_factor = speed.factor()
        setup_s.append(elapsed / setup_factor)

    cold = workload.run_round(speed, None)
    if smoke:
        rounds = _timed_rounds(workload, speed, 0.0, 2, 2)
    else:
        rounds = _timed_rounds(workload, speed,
                               seconds * (0.5 if traced else 1.0),
                               workload.fixed_rounds or MIN_ROUNDS,
                               workload.fixed_rounds)

    traced_rounds: List[Round] = []
    spans_by_round: List[List[trace.SpanRecord]] = []
    if traced:
        tracer = trace.Tracer()
        tracer.install()
        try:
            workload.run_round(speed, tracer)       # traced warm-up
            tracer.take()
            for _ in range(TRACED_ROUNDS):
                gc.collect()
                traced_rounds.append(workload.run_round(speed, tracer))
                spans_by_round.append(tracer.take())
        finally:
            tracer.uninstall()
        if trace_path is not None:
            trace.write_wall_trace(trace_path, spans_by_round[-1])

    problems = _exact_mismatches(rounds + traced_rounds)
    final_attempted, final_failed = workload.finish()
    every = [cold] + rounds + traced_rounds
    attempted = sum(r.attempted for r in every) + final_attempted
    failed = sum(r.failed for r in every) + final_failed

    per_round = {
        "raw_host_s": [r.raw_host_s for r in rounds],
        "host_s": [r.host_s for r in rounds],
        "ops_per_s": round_rates(rounds),
        "write_p50_us": round_percentiles_us(rounds, "write_s", 0.5),
        "read_p50_us": round_percentiles_us(rounds, "read_s", 0.5),
    }
    if traced:
        metrics = _per_layer_metrics(workload, cold, rounds, traced_rounds,
                                     spans_by_round, setup_factor)
        metrics["host.speed_factor"] = statistics.median(speed.factors)
        units = PER_LAYER
    else:
        metrics = {"setup_s": statistics.median(setup_s),
                   "peak_rss_mib": peak_rss_mib(),
                   **{key: statistics.median(per_round[key])
                      for key in ("ops_per_s", "write_p50_us", "read_p50_us")}}
        units = END_TO_END
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(traced), "smoke": smoke,
        "correct": failed == 0 and not problems,
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": {key: {"value": float(metrics[key]), "unit": units[key]}
                    for key in units},
        "samples": {"setups": len(setup_s), "timed_rounds": len(rounds),
                    "traced_rounds": len(traced_rounds),
                    "ops_per_round": rounds[0].ops,
                    "writes_per_round": len(rounds[0].write_s),
                    "reads_per_round": len(rounds[0].read_s)},
        "setup_s": setup_s,
        "speed_factor": {"median": statistics.median(speed.factors),
                         "min": min(speed.factors),
                         "max": max(speed.factors)},
        "rounds": per_round,
        "noise": {key: {"median": statistics.median(values),
                        "iqr": iqr(values)}
                  for key, values in per_round.items() if values},
    }


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _sum_dicts(dicts: Sequence[Dict[str, float]]) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for one in dicts:
        for key, value in one.items():
            total[key] = total.get(key, 0) + value
    return total


def _per_layer_metrics(workload: Workload, cold: Round,
                       rounds: Sequence[Round], traced: Sequence[Round],
                       spans_by_round: Sequence[Sequence[trace.SpanRecord]],
                       setup_factor: float) -> Dict[str, float]:
    """Every name of :data:`PER_LAYER`; layers that did nothing read 0."""
    m: Dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)

    # -- spans of the traced rounds: self and inclusive host time, call
    # counts; each round's spans are scaled to the reference host speed by
    # the factor its op loop measured
    summary: Dict[str, trace.SpanSummary] = {}
    scales = [r.host_s / r.raw_host_s for r in traced]
    for spans, scale in zip(spans_by_round, scales):
        for span_name, one in trace.summarize(spans).items():
            prior = summary.get(span_name) or trace.SpanSummary(one.layer, 0,
                                                                0.0, 0.0)
            summary[span_name] = trace.SpanSummary(
                one.layer, prior.count + one.count,
                prior.total_us + one.total_us * scale,
                prior.self_us + one.self_us * scale)

    def layer_self(layer: str) -> float:
        return sum(s.self_us for s in summary.values() if s.layer == layer)

    def total(*names: str) -> float:
        return sum(summary[n].total_us for n in names if n in summary)

    def self_of(*names: str) -> float:
        return sum(summary[n].self_us for n in names if n in summary)

    def calls(*names: str) -> int:
        return sum(summary[n].count for n in names if n in summary)

    def calls_in(layer: str) -> int:
        return sum(s.count for s in summary.values() if s.layer == layer)

    # -- counts over the same rounds, from the program's public accounting
    counters = _sum_dicts([r.counters for r in traced])
    device = _sum_dicts([r.device for r in traced])

    def count(key: str) -> float:
        return counters.get(key, 0.0)

    n_rounds = len(traced)
    ops = sum(r.ops for r in traced)
    writes = sum(len(r.write_s) for r in traced)
    reads = sum(len(r.read_s) for r in traced)
    user_bytes = sum(r.user_bytes_written for r in traced)
    data_path = bool(counters)      # fleet rounds never touch the ledger

    for layer in ("engine", "cache", "clone", "rbd", "encryption"):
        m[f"{layer}.self_us_per_op"] = _div(layer_self(layer), ops)
    m["engine.requests_per_txn"] = _div(count("engine.batched_requests"),
                                        count("engine.batches"))
    cache_hits = count("cache.read_hits") + count("cache.write_hits")
    m["cache.hit_ratio"] = _div(
        cache_hits,
        cache_hits + count("cache.read_misses") + count("cache.write_misses"))
    m["cache.evictions"] = _div(count("cache.evictions"), n_rounds)
    m["cache.writeback_blocks_per_write"] = _div(
        count("cache.writeback_blocks"), writes)

    m["pwl.append_us_per_write"] = _div(total("PersistentWriteLog.append"),
                                        writes)
    drain_us = sum(scale * trace.inclusive_under_us(
        spans, "pwl", ("write", "write_extents"))
        for spans, scale in zip(spans_by_round, scales))
    m["pwl.drain_us_per_record"] = _div(drain_us,
                                        count("pwl.drained_records"))
    m["pwl.appended_bytes_per_user_byte"] = _div(count("pwl.appended_bytes"),
                                                 user_bytes)

    m["clone.copyups"] = _div(count("clone.copyups"), n_rounds)
    m["clone.copyup_bytes_per_user_byte"] = _div(count("clone.copyup_bytes"),
                                                 user_bytes)
    m["clone.parent_reads_per_read"] = _div(count("clone.parent_reads"), reads)

    dispatcher = [f"CryptoObjectDispatcher.{method}" for method in
                  ("write", "read", "write_extents", "read_extents")]
    m["rbd.object_extents_per_op"] = _div(calls(*dispatcher), ops)
    m["encryption.blocks_per_op"] = _div(count("crypto.blocks"), ops)

    ciphers = [f"{cls}.{method}" for cls in ("XTS", "Blake2Xts")
               for method in ("encrypt", "decrypt")]
    m["crypto.cipher_us_per_block"] = _div(total(*ciphers), calls(*ciphers))
    m["crypto.iv_us_per_block"] = _div(total("RandomIV.iv_for_write"),
                                       calls("RandomIV.iv_for_write"))
    m["crypto.drbg_reads_per_write"] = _div(calls("HmacDrbg.read"), writes)
    m["crypto.blocks_encrypted"] = _div(calls("XtsCodec.encrypt_sector"),
                                        n_rounds)
    m["crypto.blocks_decrypted"] = _div(calls("XtsCodec.decrypt_sector"),
                                        n_rounds)

    client = ("IoCtx.operate_write", "IoCtx.operate_read")
    osd = ("OSD.apply_transaction", "OSD.execute_read")
    codec = tuple(f"ReedSolomonCodec.{method}"
                  for method in ("encode", "decode", "reconstruct"))
    txns = calls(*client)
    m["rados.client_self_us_per_txn"] = _div(self_of(*client), txns)
    m["rados.placement_us_per_txn"] = _div(
        total("PlacementMap.osds_for_object"), txns)
    m["rados.placement_calls_per_txn"] = _div(
        calls("PlacementMap.osds_for_object"), txns)
    m["rados.osd_apply_us_per_txn"] = _div(self_of(*osd), txns)
    m["rados.txns_per_op"] = _div(txns, ops) if data_path else 0.0
    m["rados.retries"] = _div(count("cluster.write_retries")
                              + count("cluster.read_retries"), n_rounds)
    m["rados.ec_codec_us_per_op"] = _div(total(*codec), ops)
    m["rados.ec_rmw_reads_per_write"] = _div(count("cluster.ec_rmw_reads"),
                                             writes)

    m["kvstore.self_us_per_batch"] = _div(layer_self("kvstore"),
                                          calls_in("kvstore"))
    m["kvstore.keys_written"] = _div(count("omap.keys_written"), n_rounds)
    m["kvstore.wal_bytes_per_user_byte"] = _div(count("omap.wal_bytes"),
                                                user_bytes)
    m["kvstore.flushes"] = _div(count("omap.flushes"), n_rounds)
    m["kvstore.compactions"] = _div(count("omap.compactions"), n_rounds)

    m["blockdev.self_us_per_io"] = _div(layer_self("blockdev"),
                                        calls_in("blockdev"))
    m["blockdev.write_ios_per_op"] = _div(device.get("write_ops", 0), ops)
    m["blockdev.rmw_sectors_read"] = _div(device.get("rmw_sectors_read", 0),
                                          n_rounds)
    m["blockdev.flushes"] = _div(device.get("flushes", 0), n_rounds)
    m["blockdev.bytes_written_per_user_byte"] = _div(
        device.get("bytes_written", 0), user_bytes)

    ledger = tuple(f"CostLedger.{method}"
                   for method in ("finish_op", "busy", "count"))
    m["sim.ledger_self_us_per_op"] = _div(self_of(*ledger), ops)

    all_self = sum(s.self_us for s in summary.values())
    for layer in SHARE_LAYERS:
        m[f"{layer}.self_share"] = _div(layer_self(layer), all_self)

    # -- untraced rounds: client tails, the noise band, modelled invariants
    rates = round_rates(rounds)
    m["host.round_iqr_ratio"] = _div(iqr(rates), statistics.median(rates))
    m["trace.overhead_ratio"] = _div(
        statistics.median(round_rates(traced)), statistics.median(rates))
    for kind in ("write", "read"):
        tails = round_percentiles_us(rounds, f"{kind}_s", 0.99,
                                     P99_MIN_SAMPLES)
        m[f"client.{kind}_p99_us"] = statistics.median(tails) if tails else 0.0
    fixed = rounds[:MIN_ROUNDS]
    m["model.sim_us_per_op"] = _div(sum(r.sim_us for r in fixed),
                                    sum(r.ops for r in fixed))
    fixed_user_bytes = sum(r.user_bytes_written for r in fixed)
    m["model.write_amp"] = _div(
        sum(r.device.get("bytes_written", 0) for r in fixed), fixed_user_bytes)
    stored, written = workload.space()
    m["model.space_amp"] = _div(stored, written)

    # -- workload-specific host timings (the fleet path)
    m.update({key: value / setup_factor
              for key, value in workload.setup_phases().items()})
    if "sim.events" in rounds[0].extras:
        median = statistics.median
        m["sim.replay_cold_s"] = cold.host_s
        m["sim.replay_warm_s"] = median(r.host_s for r in rounds)
        m["sim.events_per_s"] = median(r.extras["sim.events"] / r.host_s
                                       for r in rounds)
        m["sim.p50_us"] = rounds[0].extras["sim.p50_us"]
        m["sim.p99_us"] = rounds[0].extras["sim.p99_us"]
        registry_s = median(r.extras["obs.registry_s"] for r in rounds)
        prometheus_s = median(r.extras["obs.prometheus_s"] for r in rounds)
        m["obs.registry_ms"] = registry_s * 1e3
        m["obs.prometheus_ms"] = prometheus_s * 1e3
        m["obs.export_share"] = _div(registry_s + prometheus_s,
                                     m["sim.replay_warm_s"])
    return m


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_sha(root: Path) -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_info() -> Dict[str, object]:
    """What the numbers were measured on."""
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "system": platform.system()}
