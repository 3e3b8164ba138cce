"""Self-test of the benchmark harness at ``--smoke`` scale.

Pins what later PRs rely on without re-measuring anything: the metric
vocabulary of ``BENCHMARK.json`` and of the code cannot drift apart,
exact metrics really are exact, the interposer leaves the program as it
found it, and the comparer's verdicts follow its stated rules.
"""

from __future__ import annotations

import importlib
import json
import re
from pathlib import Path

import pytest

from perf import compare, harness, trace
from perf.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: prefixes of per-layer metric names that are not program layers
HARNESS_PREFIXES = {"client", "model", "trace", "host"}


def _boundary_callables():
    for _layer, module_name, class_name, attributes in trace.BOUNDARIES:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        for attribute in attributes:
            yield owner, attribute, vars(owner)[attribute]


@pytest.fixture(scope="module")
def runs():
    """Every workload: untraced once, traced twice on seed 1, once on seed 2."""
    originals = list(_boundary_callables())
    out = {}
    for name in WORKLOADS:
        out[name] = {
            "e2e": harness.run_workload(name, 1, 0.0, False, smoke=True),
            "traced": [harness.run_workload(name, 1, 0.0, True, smoke=True)
                       for _ in range(2)],
            "other_seed": harness.run_workload(name, 2, 0.0, True, smoke=True),
        }
    out["originals"] = originals
    return out


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER
    assert SPEC["paths"] == ["perf"] and SPEC["command"][-1] == "perf/run.py"
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]) and UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    layers = {name.split(".", 1)[0] for name in harness.PER_LAYER}
    assert layers <= set(trace.LAYERS) | HARNESS_PREFIXES


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_exactly_the_declared_metrics(runs, name):
    e2e, traced = runs[name]["e2e"], runs[name]["traced"][0]
    assert e2e["correct"] and traced["correct"], (e2e["problems"],
                                                  traced["problems"])
    assert e2e["failed"] == traced["failed"] == 0 < e2e["attempted"]
    assert {k: v["unit"] for k, v in e2e["metrics"].items()} == harness.END_TO_END
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == harness.PER_LAYER
    assert all(v["value"] > 0 for v in e2e["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_exact_metrics_repeat_and_follow_the_seed(runs, name):
    first, again = (run["metrics"] for run in runs[name]["traced"])
    other = runs[name]["other_seed"]["metrics"]
    moved = {m for m in harness.EXACT_METRICS
             if first[m]["value"] != again[m]["value"]}
    assert not moved, f"exact metrics differ between two runs of one seed: {moved}"
    by_seed = {m for m in harness.EXACT_METRICS
               if first[m]["value"] != other[m]["value"]}
    if name in ("small_rw", "large_aes"):
        # the seed picks offsets and payloads; the op mix is exact and every
        # op is one aligned block (or a fixed sequential run), so no count
        # or modelled value depends on it
        assert not by_seed
    elif name in ("batched_rw", "cache_omap", "fleet_replay"):
        # window coalescing follows op order, hits follow the Zipf draw,
        # modelled fleet latency follows placement and arrivals
        assert by_seed, "the op list does not depend on the seed"


def test_layers_match_each_workloads_why(runs):
    def metrics(name):
        return {k: v["value"] for k, v in runs[name]["traced"][0]["metrics"].items()}

    small = metrics("small_rw")
    # structural: one aligned 4 KiB op is one object extent, one block, one
    # transaction, one IV draw; 3 replicas x (4096 data + 16 IV) bytes
    for metric in ("rados.txns_per_op", "encryption.blocks_per_op",
                   "rbd.object_extents_per_op", "crypto.drbg_reads_per_write"):
        assert small[metric] == 1.0, metric
    assert small["model.write_amp"] == pytest.approx(3 * (4096 + 16) / 4096)
    assert max(small[f"{layer}.self_share"]
               for layer in harness.SHARE_LAYERS) < 0.5
    assert metrics("large_aes")["crypto.self_share"] > 0.9
    assert metrics("batched_rw")["engine.requests_per_txn"] > 1.0
    cached = metrics("cache_omap")
    assert 0.0 < cached["cache.hit_ratio"] < 1.0 and cached["cache.evictions"] > 0
    stack = metrics("clone_ec_stack")
    assert stack["clone.copyups"] > 0 and stack["rados.ec_codec_us_per_op"] > 0
    assert stack["pwl.appended_bytes_per_user_byte"] == 1.0
    fleet = metrics("fleet_replay")
    assert fleet["sim.self_share"] + fleet["obs.self_share"] > 0.95
    for name in WORKLOADS:
        values = metrics(name)
        assert (values["kvstore.keys_written"] > 0) == (name == "cache_omap")
        assert (values["rados.ec_codec_us_per_op"] > 0) == (name == "clone_ec_stack")
        assert (values["sim.replay_warm_s"] > 0) == (name == "fleet_replay")
        if name == "fleet_replay":      # no data-path layer runs in its rounds
            assert not any(values[f"{layer}.self_share"] for layer in
                           harness.SHARE_LAYERS if layer not in
                           ("sim", "obs", trace.HARNESS_LAYER))


def test_interposer_restores_every_boundary(runs):
    # after traced and untraced runs alike the program is as it was found
    for owner, attribute, original in runs["originals"]:
        assert vars(owner)[attribute] is original, (owner, attribute)
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert len(tracer.patched()) == len(runs["originals"])
        for owner, attribute, original in tracer.patched():
            assert vars(owner)[attribute].__wrapped__ is original
    finally:
        tracer.uninstall()
    assert not tracer.patched()
    for owner, attribute, original in runs["originals"]:
        assert vars(owner)[attribute] is original


def test_wall_trace_self_times_sum_to_the_op_span(tmp_path):
    path = tmp_path / "small_rw.trace.json"
    harness.run_workload("small_rw", 1, 0.0, True, smoke=True,
                         trace_path=str(path))
    events = [event for event in json.loads(path.read_text())["traceEvents"]
              if event["ph"] == "X"]
    assert {event["args"]["clock"] for event in events} == {"wall"}
    roots = [event for event in events if event["args"]["parent"] == -1]
    # one root per client op plus the end-of-round flush
    assert len(roots) == len(WORKLOADS["small_rw"](1, True).ops) + 1
    for root in roots[:25]:
        selfs = sum(event["args"]["self_us"] for event in events
                    if event["args"]["op"] == root["args"]["op"])
        assert selfs == pytest.approx(root["dur"], rel=0.01)


def test_comparer_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.judge(steady, [104.0] * 4, "lower", 0.10)[0] == "ok"
    assert compare.judge(steady, [115.0] * 4, "lower", 0.10)[0] == "regressed"
    assert compare.judge(steady, [85.0] * 4, "higher", 0.10)[0] == "regressed"
    noisy = [80.0, 100.0, 120.0, 140.0]
    assert compare.judge(noisy, [110.0] * 4, "lower", 0.10)[0] == "unresolved"
    assert compare.judge(noisy, [70.0] * 4, "lower", 0.10)[0] == "ok"

    def side(values):
        return [{"seed": seed, "metrics": {"ops_per_s": {"value": value}}}
                for seed, value in enumerate(values)]

    base = side([100.0 + i % 3 for i in range(10)])
    assert compare.claim_met(base, side([110.0] * 10), "ops_per_s", "higher")[0]
    assert not compare.claim_met(base, side([100.5] * 10), "ops_per_s", "higher")[0]
    assert not compare.claim_met(base, side([110.0] * 8 + [90.0] * 2),
                                 "ops_per_s", "higher")[0]
