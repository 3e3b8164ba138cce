"""Keep the workload runner single.

A single-image run is a one-client cluster run: ``WorkloadRunner.run`` is a
one-line entry to ``run_streams``, there is no second runner class under a
multi-image spelling, and ``capture_template_stream`` is the drive half of
the same body.  These checks fail when a second run body or a
third issue loop comes back — a second call site of the model, the request
generator or the image's scalar read — or when the entries stop meaning the
same thing.  They also pin what only one body could give: the image-count
check on every entry, seeded payloads, and a capture that issues what the
run would issue.  And the job the runner is handed is described once: a
sweep point is a ``WorkloadSpec``, not a second set of mirrored fields.
"""

import ast
import dataclasses
import hashlib
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.overhead import SweepConfig
from repro.api import create_encrypted_image, make_cluster
from repro.cache import CacheConfig
from repro.cli import build_parser
from repro.errors import WorkloadError
from repro.sim.costparams import default_cost_parameters
from repro.util import KIB, MIB
from repro.workload import runner as runner_module
from repro.workload.runner import (WorkloadResult, WorkloadRunner,
                                   capture_template_stream, prefill_image)
from repro.workload.spec import WorkloadSpec

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))

from sim_corpus import runner_records                           # noqa: E402

SRC = Path(repro.__file__).resolve().parent
WORKLOAD = SRC / "workload"
RUNNER = WORKLOAD / "runner.py"
#: a name that must be called from exactly one place in repro.workload
ONE_CALL_SITE = ("simulate_closed_loop", "simulate_fleet",
                 "estimate_from_events", "self._model.estimate",
                 "read_with_receipt")
GENERATORS = ("generate_requests", "generate_request_list")


# -- (a) structure ------------------------------------------------------------

def call_sites(sources, names):
    """``{name: ["file:line", ...]}`` of calls whose callee is (or ends in
    ``.``) one of ``names``, over ``{filename: source text}``."""
    found = {name: [] for name in names}
    for filename, text in sorted(sources.items()):
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            callee = ast.unparse(node.func)
            for name in names:
                if callee == name or callee.endswith("." + name):
                    found[name].append(f"{filename}:{node.lineno}")
    return found


def _workload_sources():
    return {path.name: path.read_text()
            for path in sorted(WORKLOAD.glob("*.py"))}


def _function(text, name):
    return next(node for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.FunctionDef) and node.name == name)


def statements_after_docstring(function):
    body = function.body
    if ast.get_docstring(function) is not None:
        body = body[1:]
    return body


def functions_with_loops(text):
    loops = (ast.For, ast.While, ast.AsyncFor, ast.ListComp, ast.SetComp,
             ast.DictComp, ast.GeneratorExp)
    return [node.name for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(inner, loops) for inner in ast.walk(node))]


def test_the_model_and_the_image_are_each_called_from_one_place():
    sites = call_sites(_workload_sources(), ONE_CALL_SITE)
    assert {name: len(found) for name, found in sites.items()} == {
        name: 1 for name in ONE_CALL_SITE}, sites


def test_requests_are_generated_in_one_place_and_payloads_are_seeded():
    sources = _workload_sources()
    del sources["generator.py"]
    sites = call_sites(sources, GENERATORS)
    assert sum(len(found) for found in sites.values()) == 1, sites
    assert call_sites(_workload_sources(), ("os.urandom", "urandom")) == {
        "os.urandom": [], "urandom": []}


def test_the_single_image_run_is_a_one_line_entry():
    run = next(item for node in ast.walk(ast.parse(RUNNER.read_text()))
               if isinstance(node, ast.ClassDef)
               and node.name == "WorkloadRunner"
               for item in node.body
               if isinstance(item, ast.FunctionDef) and item.name == "run")
    (only,) = statements_after_docstring(run)
    assert isinstance(only, ast.Return)
    assert ast.unparse(only.value).startswith("self.run_streams([image], ")


def test_there_is_one_runner_class_and_one_result_class():
    assert not (WORKLOAD / "cluster_runner.py").exists()
    classes = [node.name for text in _workload_sources().values()
               for node in ast.walk(ast.parse(text))
               if isinstance(node, ast.ClassDef) and "Runner" in node.name]
    assert classes == ["WorkloadRunner"]
    assert not hasattr(WorkloadRunner, "run_many")
    assert not hasattr(runner_module, "fresh_ledger_copy")
    assert runner_module.WorkloadResult is WorkloadResult


def test_a_sweep_point_makes_one_runner_call():
    run_point = _function((SRC / "analysis/overhead.py").read_text(),
                          "_run_point")
    runs = call_sites({"overhead.py": ast.unparse(run_point)},
                      ("run", "run_streams", "run_many"))
    assert sum(len(found) for found in runs.values()) == 1, runs


def test_structure_checks_catch_a_pasted_back_twin():
    """The checks are live: a second body trips them."""
    twin = (
        "def run(self, images, spec):\n"
        "    for request in generate_requests(spec, images[0].size):\n"
        "        images[0].read_with_receipt(request.offset, request.length)\n"
        "    sim = simulate_closed_loop(self._cluster.params, [[]], 1)\n"
        "    return self._model.estimate(None, 0, 1)\n")
    sources = _workload_sources()
    del sources["generator.py"]
    sources["cluster_runner.py"] = twin
    sites = call_sites(sources, ONE_CALL_SITE + GENERATORS)
    assert {name: len(found) for name, found in sites.items()} == {
        "simulate_closed_loop": 2, "simulate_fleet": 1,
        "estimate_from_events": 1, "self._model.estimate": 2,
        "read_with_receipt": 2, "generate_requests": 1,
        "generate_request_list": 1}
    assert functions_with_loops(sources["cluster_runner.py"]) == ["run"]
    assert call_sites({"x.py": "buf = os.urandom(4)"},
                      ("os.urandom",)) == {"os.urandom": ["x.py:1"]}


# -- (b) one run description ----------------------------------------------------

def _names(cls):
    return {field.name for field in dataclasses.fields(cls)}


def test_a_sweep_point_is_a_workload_spec():
    """The sweep holds its job as a ``WorkloadSpec`` and the job holds its
    cache as a ``CacheConfig``: no field is declared twice, so no rule is
    checked twice, and no second switch says what ``arrival_rate`` says."""
    assert not _names(SweepConfig) & _names(WorkloadSpec)
    assert not {"cache_mode", "cache_size", "cache_policy", "readahead",
                "open_loop", "extra"} & _names(WorkloadSpec)
    # 1234 is the sweep's seed; the spec's own default would move every
    # offset stream of every sweep.
    assert SweepConfig().job == WorkloadSpec(seed=1234)


def test_the_sweep_has_no_open_loop_switch(capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["sweep", "--open-loop"])
    assert exit_info.value.code == 2
    assert "--open-loop" in capsys.readouterr().err


# -- (c) behaviour --------------------------------------------------------------

def _cluster(sim_mode="events"):
    return make_cluster(
        params=default_cost_parameters().with_overrides(sim_mode=sim_mode))


def _images(cluster, count, layout="object-end"):
    return [create_encrypted_image(
        cluster, f"single-{index}", 4 * MIB, passphrase=b"test",
        encryption_format=layout, cipher_suite="blake2-xts-sim",
        object_size=1 * MIB, random_seed=f"seed-{index}".encode())[0]
        for index in range(count)]


def _spec(**overrides):
    defaults = dict(rw="randwrite", io_size=16 * KIB, queue_depth=4,
                    io_count=24)
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


def test_a_run_record_equals_its_one_client_cluster_twin():
    """Every ``run`` record of the transcript's runner group has the body of
    its ``x1`` twin (which also lists the per-client sample)."""
    records = {name: thunk for name, thunk in
               runner_records(["omap"], ["randrw"])}
    twins = [name for name in records if name.endswith("/run")]
    assert len(twins) == 2 * 3 * 5
    for name in twins:
        lines = records[name[:-len("run")] + "x1"]().splitlines()
        per_client = [line for line in lines
                      if line.startswith("per_client_latencies_us=")]
        assert len(per_client) == 1
        lines.remove(per_client[0])
        assert records[name]().splitlines() == lines, name


@pytest.mark.parametrize("sim_mode", ["analytic", "events"])
def test_a_one_image_run_reports_its_one_client(sim_mode):
    cluster = _cluster(sim_mode)
    (image,) = _images(cluster, 1)
    result = WorkloadRunner(cluster).run(image, _spec())
    assert result.num_clients == 1
    assert [sorted(sample) for sample in result.per_client_latencies_us] == [
        sorted(result.latencies_us)]
    assert " x1 " in result.render() and "p99=" in result.render()


def test_every_entry_checks_the_image_count():
    """One image under a three-client spec used to run one stream and label
    its bandwidth as three clients'."""
    cluster = _cluster()
    (image,) = _images(cluster, 1)
    spec = _spec(num_clients=3)
    for entry in (lambda: WorkloadRunner(cluster).run(image, spec),
                  lambda: WorkloadRunner(cluster).run_streams([image], spec),
                  lambda: capture_template_stream(cluster, image, spec)):
        with pytest.raises(WorkloadError, match="3 clients but 1 images"):
            entry()
    assert not cluster.ledger.trace_ops
    assert cluster.ledger.op_count == 0


def _stored_digest(cluster, pool="rbd"):
    ioctx = cluster.client().open_ioctx(pool)
    stored = hashlib.sha256()
    names = ioctx.list_objects()
    assert names
    for name in names:
        stored.update(name.encode())
        stored.update(ioctx.read(name, 0, ioctx.stat(name) or 0).data)
    return stored.hexdigest()


@pytest.mark.parametrize("overrides", [
    dict(rw="randread", prefill=True),
    dict(rw="randwrite", num_clients=2),
], ids=["prefilled-read", "two-client-write"])
def test_payloads_are_a_function_of_the_seeds(overrides):
    """Same spec on two fresh clusters stores the same ciphertext."""
    spec = _spec(**overrides)
    digests = []
    for _ in range(2):
        cluster = _cluster()
        WorkloadRunner(cluster).run_streams(
            _images(cluster, spec.num_clients), spec)
        digests.append(_stored_digest(cluster))
    assert digests[0] == digests[1]


def test_prefill_honours_its_pattern_seed_and_clients_write_their_own_bytes():
    contents = []
    for seed in (7, 7, 8):
        cluster = _cluster()
        (image,) = _images(cluster, 1)
        prefill_image(image, chunk_size=64 * KIB, pattern_seed=seed)
        contents.append(image.read(0, 64 * KIB))
    assert contents[0] == contents[1] != contents[2]

    cluster = _cluster()
    images = _images(cluster, 2)
    spec = _spec(rw="write", io_count=1, num_clients=2)
    WorkloadRunner(cluster).run_streams(images, spec)
    first, second = (image.read(0, spec.io_size) for image in images)
    assert first != second


@pytest.mark.parametrize("cache_mode", [None, "writeback"])
def test_a_batched_capture_is_the_stream_the_run_replays(monkeypatch,
                                                         cache_mode):
    """``capture_template_stream`` used to ignore ``batched`` (and the cache
    and the prefill) and hand back unbatched traces without a word."""
    spec = _spec(rw="randrw", batched=True, prefill=True,
                 cache=cache_mode and CacheConfig(mode=cache_mode))
    replayed = []
    simulate = runner_module.simulate_closed_loop

    def recording(params, streams, *args, **kwargs):
        replayed.extend(streams)
        return simulate(params, streams, *args, **kwargs)

    monkeypatch.setattr(runner_module, "simulate_closed_loop", recording)
    cluster = _cluster()
    (image,) = _images(cluster, 1)
    WorkloadRunner(cluster).run(image, spec)

    cluster = _cluster()
    (image,) = _images(cluster, 1)
    traces = capture_template_stream(cluster, image, spec)
    assert [traces] == replayed
    assert any(op.requests > 1 for op in traces)
    assert sum(op.requests for op in traces) == 24 + (cache_mode is not None)
    assert not cluster.ledger.trace_ops and not cluster.ledger.client_ops
