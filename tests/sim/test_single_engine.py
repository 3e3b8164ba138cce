"""Keep the event engine single.

The closed loop runs on one machine — the index machine of
``repro.sim.replay`` — and the vectorized scans of ``repro.sim.fleet`` are
its open-loop fast path.  The legacy closure scheduler (``ClusterScheduler``
on ``EventLoop``) went in PR 24 with every switch that chose between the
two; what it computed is the ``closed/`` lines of
``tests/golden/transcript.sha256``.  These checks fail
when a second engine, a second span emitter, a second copy of the
bounding-resource rule or a way to select between engines comes back.

Every replay is also one contention domain: all clients share the OSD
queues and the backend network, in one process.  The sharded replay
(client partitions replayed in a process pool, their reservoirs merged)
is gone with the values that set it; ``CostParameters.sim_shards`` and
``sim_jobs`` accept only 1 and have no reader.  The checks below fail
when a partition, a pool or a merge comes back.

And the engine has one way in per loop: ``simulate_closed_loop`` and
``simulate_fleet`` (``repro.sim.fleet``).  The forwarders that used to
wrap them (``sim/scheduler.py``, with the function-level import that hid
an import cycle), the alias runner (``workload/cluster_runner.py``) and
the names only tests called are gone, and the checks below fail when one
comes back.
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
from repro.sim.fleet import simulate_closed_loop
from repro.sim.ledger import ClientOpTrace, OpTrace, OsdVisit
from repro.sim.replay import EventSimResult
from repro.sim.reservoir import LatencyReservoir

SRC = Path(repro.__file__).resolve().parent
SIM = SRC / "sim"
ROOT = Path(__file__).resolve().parents[2]
#: the trees the program is made of, as the repository lays them out
TREES = ("src", "tools", "benchmarks")
#: modules that only forwarded, aliased or recorded what nothing read
GONE_MODULES = ("sim/scheduler.py", "workload/cluster_runner.py",
                "blockdev/trace.py")
#: the forwarding entries, the alias runner and the names only tests called
GONE_ENTRIES = ("simulate_client_ops", "simulate_open_loop",
                "replay_closed_loop", "ClusterWorkloadRunner",
                "ClusterWorkloadResult", "estimate_events", "run_many",
                "OsdFaultPlan", "inject_osd_fault")
DELETED_NAMES = ("ClusterScheduler", "EventLoop", "SimClock")
#: the span emitters an event replay calls, each from exactly one place
EMITTERS = ("osd_visit", "cluster_push", "rados_op", "client_op",
            "client_dispatch", "client_transfer")
#: what the sharded replay was made of
SHARDING_NAMES = ("_partition", "_replay_shard", "_run_shards",
                  "_merge_results", "_empty_result", "merge_reservoirs",
                  "ProcessPoolExecutor")
PROCESS_POOLS = ("concurrent", "multiprocessing")


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


def function_level_relative_imports(sources):
    """``["file:line module", ...]`` of every relative import made inside a
    function body (where it can hide an import cycle)."""
    found = set()
    for filename, text in sources.items():
        for function in ast.walk(ast.parse(text)):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(
                    f"{filename}:{node.lineno} "
                    f"{'.' * node.level}{node.module or ''}"
                    for node in ast.walk(function)
                    if isinstance(node, ast.ImportFrom) and node.level)
    return sorted(found)


def sibling_import_cycle(sources, package="sim"):
    """One cycle among the module-level ``from .x import`` edges of
    ``package``'s modules, as a list of module names, or ``[]``."""
    edges = {}
    for filename, text in sources.items():
        parts = filename[:-len(".py")].split("/")
        if parts[:-1] != [package]:
            continue
        edges[parts[-1]] = {node.module.split(".")[0]
                            for node in ast.parse(text).body
                            if isinstance(node, ast.ImportFrom)
                            and node.level == 1 and node.module}
    state = {}

    def visit(module, path):
        state[module] = "open"
        for target in sorted(edges.get(module, ())):
            if state.get(target) == "open":
                return path[path.index(target):] + [target]
            if target not in state:
                cycle = visit(target, path + [target])
                if cycle:
                    return cycle
        state[module] = "done"
        return []

    for module in sorted(edges):
        if module not in state:
            cycle = visit(module, [module])
            if cycle:
                return cycle
    return []


def _tree_sources():
    """``{path from the repository root: text}`` over :data:`TREES`."""
    return {str(path.relative_to(ROOT)): path.read_text()
            for tree in TREES for path in sorted((ROOT / tree).rglob("*.py"))}


def process_pool_imports(sources):
    """``["file:line module", ...]`` of every import of a process pool."""
    found = []
    for filename, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found.extend(f"{filename}:{node.lineno} {module}"
                         for module in modules
                         if module.split(".")[0] in PROCESS_POOLS)
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
        "sim/replay.py"]


def test_structure_checks_catch_a_pasted_back_twin():
    """The checks are live: a second engine trips every one of them."""
    twin = (
        "from .events import EventLoop\n"
        "from .replay import bounding_resource\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "class ClusterScheduler:\n"
        "    def run(self, streams, queue_depth):\n"
        "        if self._params.event_engine == 'legacy':\n"
        "            self._tracer.osd_visit(0, 0.0, 1.0, 'read')\n"
        "            self._tracer.client_op(0, 'read', 0.0, 1.0, 1)\n"
        "        if busy < self._params.saturation_threshold * elapsed:\n"
        "            return 'latency(qd)'\n"
        "        with ProcessPoolExecutor(self._params.sim_jobs) as pool:\n"
        "            return list(pool.map(self.run, streams))\n"
        "def simulate_client_ops(params, streams, queue_depth):\n"
        "    from .fleet import simulate_closed_loop\n"
        "    return simulate_closed_loop(params, streams, queue_depth)\n")
    sources = _sources(SIM)
    sources["sim/scheduler.py"] = twin
    assert [hit.split(" ")[1] for hit
            in names_bound_or_used(sources, DELETED_NAMES)] == [
        "EventLoop", "ClusterScheduler"]
    assert [hit.split(" ")[1] for hit
            in names_bound_or_used(sources, GONE_ENTRIES)] == [
        "simulate_client_ops"]
    assert function_level_relative_imports(sources) == [
        "sim/scheduler.py:14 .fleet"]
    # the twin imports the replay at module level; the replay importing
    # the twin back closes a cycle
    assert sibling_import_cycle(sources) == []
    sources["sim/replay.py"] += "from .scheduler import ClusterScheduler\n"
    assert sibling_import_cycle(sources) == ["replay", "scheduler",
                                             "replay"]
    assert [where for where in mentions(sources, "event_engine")
            if not where.startswith("sim/costparams.py:")] != []
    calls = emitter_calls(sources)
    assert len(calls["osd_visit"]) == 2 and len(calls["client_op"]) == 2
    assert len(calls["rados_op"]) == 1
    assert [hit.split(" ")[1] for hit in process_pool_imports(sources)] == [
        "concurrent.futures"]
    assert [hit.split(" ")[1] for hit
            in names_bound_or_used(sources, SHARDING_NAMES)] == [
        "ProcessPoolExecutor", "ProcessPoolExecutor"]
    assert [where for where in mentions(sources, "sim_jobs")
            if not where.endswith(" __post_init__")] != []
    del sources["sim/costparams.py"]
    assert len(mentions(sources, "saturation_threshold")) == 2


# -- one contention domain ------------------------------------------------------

def test_the_sharded_replay_its_pool_and_its_merge_are_gone():
    sources = _sources(SRC)
    assert process_pool_imports(sources) == []
    assert names_bound_or_used(sources, SHARDING_NAMES) == []
    assert not hasattr(LatencyReservoir, "merge")


@pytest.mark.parametrize("word", ["sim_shards", "sim_jobs"])
def test_nothing_reads_the_shard_fields(word):
    reads = mentions(_sources(SRC), word)
    assert reads and all(
        where.startswith("sim/costparams.py:")
        and where.endswith(" __post_init__") for where in reads), reads


def test_the_shard_fields_accept_only_one_until_perf_drops_the_keywords():
    params = CostParameters().with_overrides(sim_shards=1, sim_jobs=1)
    assert (params.sim_shards, params.sim_jobs) == (1, 1)
    for field in ("sim_shards", "sim_jobs"):
        with pytest.raises(ConfigurationError,
                           match="one contention domain"):
            CostParameters(**{field: 2})
        with pytest.raises(ConfigurationError):
            CostParameters().with_overrides(**{field: 0})
    assert not {"sim_shards", "sim_jobs"} & {
        field.name for field in dataclasses.fields(SweepConfig)}


@pytest.mark.parametrize("argv", [["sweep", "--shards", "2"],
                                  ["sweep", "--jobs", "2"],
                                  ["fleet", "--shards", "2"],
                                  ["fleet", "--jobs", "2"],
                                  ["fleet", "--open-loop"]])
def test_the_cli_has_no_shard_switch(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    assert argv[1] in capsys.readouterr().err


# -- the one closed-loop entry checks its depth, once --------------------------

def _one_read():
    return [[ClientOpTrace(requests=1, traces=[OpTrace(
        kind="read", client_cpu_us=5.0, client_net_us=2.0, network_us=90.0,
        visits=[OsdVisit(osd_id=0, service_us=10.0, latency_us=50.0)],
        bytes_moved=4096)])]]


@pytest.mark.parametrize("depth", [2.5, "3", None, 0, -1, np.float64(2.0),
                                   True])    # True ran at depth 1, silently
def test_a_queue_depth_that_is_no_positive_integer_is_a_typed_error(depth):
    with pytest.raises(ConfigurationError, match="positive integer"):
        simulate_closed_loop(CostParameters(), _one_read(), depth)


def test_integer_queue_depths_of_either_kind_replay_alike():
    plain = simulate_closed_loop(CostParameters(), _one_read(), 2)
    numpy = simulate_closed_loop(CostParameters(), _one_read(), np.int64(2))
    assert plain.elapsed_us == numpy.elapsed_us == 147.0


def _machine_method(name):
    tree = ast.parse((SIM / "replay.py").read_text())
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_the_index_machine_does_not_check_the_depth_again():
    assert not any(isinstance(node, ast.Raise)
                   for node in ast.walk(_machine_method("run_closed")))


def test_the_index_machine_does_not_check_the_arrivals_again():
    """``simulate_fleet`` checks counts and order before it picks an
    engine, with the messages ``run_open`` used to repeat."""
    assert not any(isinstance(node, ast.Raise)
                   for node in ast.walk(_machine_method("run_open")))


# -- one way in --------------------------------------------------------------

def test_the_engine_has_one_entry_per_loop():
    for module in GONE_MODULES:
        assert not (SRC / module).exists(), module
    assert names_bound_or_used(_tree_sources(), GONE_ENTRIES) == []
    assert function_level_relative_imports(_sources(SIM)) == []


def test_repro_sim_has_no_import_cycle():
    assert sibling_import_cycle(_sources(SIM)) == []
