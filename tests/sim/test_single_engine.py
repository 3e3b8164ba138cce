"""Keep the event engine single.

The closed loop runs on one machine — the index machine of
``repro.sim.replay`` — and the vectorized scans of ``repro.sim.fleet`` are
its open-loop fast path.  The legacy closure scheduler (``ClusterScheduler``
on ``EventLoop``) went in PR 24 with every switch that chose between the
two; what it computed is ``golden/closed_loop.sha256``.  These checks fail
when a second engine, a second span emitter, a second copy of the
bounding-resource rule or a way to select between engines comes back.
"""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis.overhead import SweepConfig
from repro.cli import build_parser
from repro.errors import ConfigurationError
from repro.obs.spans import SpanTracer
from repro.sim.costparams import EVENT_ENGINES, CostParameters
from repro.sim.ledger import ClientOpTrace, OpTrace, OsdVisit
from repro.sim.scheduler import EventSimResult, simulate_client_ops

SRC = Path(repro.__file__).resolve().parent
SIM = SRC / "sim"
DELETED_NAMES = ("ClusterScheduler", "EventLoop", "SimClock")
#: the span emitters an event replay calls, each from exactly one place
EMITTERS = ("osd_visit", "cluster_push", "rados_op", "client_op",
            "client_dispatch", "client_transfer")


def _sources(root):
    return {str(path.relative_to(SRC)): path.read_text()
            for path in sorted(root.rglob("*.py"))}


def names_bound_or_used(sources, names):
    """``["file:line name", ...]`` wherever one of ``names`` is defined,
    imported or referenced."""
    found = []
    for filename, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                seen = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                seen = [part for alias in node.names
                        for part in alias.name.split(".")]
            elif isinstance(node, ast.Name):
                seen = [node.id]
            elif isinstance(node, ast.Attribute):
                seen = [node.attr]
            else:
                continue
            found.extend(f"{filename}:{node.lineno} {name}"
                         for name in seen if name in names)
    return found


def mentions(sources, word):
    """``["file:line function", ...]`` of every attribute, keyword argument
    and exact string constant spelled ``word``."""
    found = []
    for filename, text in sources.items():
        tree = ast.parse(text)
        owner = {id(inner): node.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if ((isinstance(node, ast.Attribute) and node.attr == word)
                    or (isinstance(node, ast.keyword) and node.arg == word)
                    or (isinstance(node, ast.Constant)
                        and node.value == word)):
                found.append(f"{filename}:{getattr(node, 'lineno', 0)} "
                             f"{owner.get(id(node), '<module>')}")
    return found


def emitter_calls(sources):
    found = {name: [] for name in EMITTERS}
    for filename, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in found):
                found[node.func.attr].append(f"{filename}:{node.lineno}")
    return found


# -- structure ----------------------------------------------------------------

def test_the_legacy_engine_and_the_dead_clock_are_gone():
    assert not (SIM / "events.py").exists()
    assert not (SIM / "clock.py").exists()
    assert names_bound_or_used(_sources(SRC), DELETED_NAMES) == []


def test_nothing_reads_the_event_engine_field():
    reads = mentions(_sources(SRC), "event_engine")
    assert reads and all(
        where.startswith("sim/costparams.py:")
        and where.endswith(" __post_init__") for where in reads), reads


def test_the_field_has_one_legal_value_until_perf_drops_the_keyword():
    assert EVENT_ENGINES == ("compact",)
    assert CostParameters(event_engine="compact").with_overrides(
        event_engine="compact").event_engine == "compact"
    with pytest.raises(ConfigurationError, match="removed in PR 24"):
        CostParameters(event_engine="legacy")
    with pytest.raises(ConfigurationError):
        CostParameters().with_overrides(event_engine="vectorized")
    assert "event_engine" not in {
        field.name for field in dataclasses.fields(SweepConfig)}
    assert EventSimResult(elapsed_us=1.0, requests=0).engine == "compact"


@pytest.mark.parametrize("argv", [["sweep", "--event-engine", "legacy"],
                                  ["fleet", "--event-engine", "compact"]])
def test_the_cli_has_no_engine_switch(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    assert "--event-engine" in capsys.readouterr().err


def test_every_span_is_emitted_from_one_place():
    calls = emitter_calls(_sources(SIM))
    assert {name: len(sites) for name, sites in calls.items()} == {
        name: 1 for name in EMITTERS}, calls
    assert all(hasattr(SpanTracer, name) for name in EMITTERS)


def test_the_bounding_resource_rule_is_written_once():
    sources = _sources(SIM)
    del sources["sim/costparams.py"]        # declares and validates the knob
    assert [where.split(":")[0]
            for where in mentions(sources, "saturation_threshold")] == [
        "sim/scheduler.py"]


def test_structure_checks_catch_a_pasted_back_twin():
    """The checks are live: a second engine trips every one of them."""
    twin = (
        "from .events import EventLoop\n"
        "class ClusterScheduler:\n"
        "    def run(self, streams, queue_depth):\n"
        "        if self._params.event_engine == 'legacy':\n"
        "            self._tracer.osd_visit(0, 0.0, 1.0, 'read')\n"
        "            self._tracer.client_op(0, 'read', 0.0, 1.0, 1)\n"
        "        if busy < self._params.saturation_threshold * elapsed:\n"
        "            return 'latency(qd)'\n")
    sources = _sources(SIM)
    sources["sim/scheduler.py"] += twin
    assert [hit.split(" ")[1] for hit
            in names_bound_or_used(sources, DELETED_NAMES)] == [
        "EventLoop", "ClusterScheduler"]
    assert [where for where in mentions(sources, "event_engine")
            if not where.startswith("sim/costparams.py:")] != []
    calls = emitter_calls(sources)
    assert len(calls["osd_visit"]) == 2 and len(calls["client_op"]) == 2
    assert len(calls["rados_op"]) == 1
    del sources["sim/costparams.py"]
    assert len(mentions(sources, "saturation_threshold")) == 2


# -- the one closed-loop entry checks its depth, once --------------------------

def _one_read():
    return [[ClientOpTrace(requests=1, traces=[OpTrace(
        kind="read", client_cpu_us=5.0, client_net_us=2.0, network_us=90.0,
        visits=[OsdVisit(osd_id=0, service_us=10.0, latency_us=50.0)],
        bytes_moved=4096)])]]


@pytest.mark.parametrize("depth", [2.5, "3", None, 0, -1, np.float64(2.0)])
def test_a_queue_depth_that_is_no_positive_integer_is_a_typed_error(depth):
    with pytest.raises(ConfigurationError, match="positive integer"):
        simulate_client_ops(CostParameters(), _one_read(), depth)


def test_integer_queue_depths_of_either_kind_replay_alike():
    plain = simulate_client_ops(CostParameters(), _one_read(), 2)
    numpy = simulate_client_ops(CostParameters(), _one_read(), np.int64(2))
    assert plain.elapsed_us == numpy.elapsed_us == 147.0


def test_the_index_machine_does_not_check_the_depth_again():
    tree = ast.parse((SIM / "replay.py").read_text())
    run_closed = next(node for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef)
                      and node.name == "run_closed")
    assert not any(isinstance(node, ast.Raise)
                   for node in ast.walk(run_closed))
