#!/usr/bin/env python3
"""Full-precision transcript of ``simulate_fleet`` and the workload runner
over a seeded corpus.

The fleet engines and the workload runner promise *bit-identical* modelled
numbers across refactors, and every PR that touched them rebuilt the same
proof by hand:
drive the parent tree and the changed tree with the same inputs, print
every result field with ``repr`` and compare.  This tool is that proof,
kept::

    git archive <parent-sha> | tar -x -C /root/scratch/parent
    python tools/sim_transcript.py --src /root/scratch/parent/src --out parent.txt
    python tools/sim_transcript.py --out change.txt
    cmp parent.txt change.txt

``--src`` names the ``src/`` directory whose ``repro`` package is driven
(default: the one next to this file), so one copy of the tool exercises
both trees.  The corpus, all of it derived from fixed seeds:

* ``bench/...`` — the ``fleet_replay`` benchmark shape (a 4 KiB write and
  a read template captured on the real data path, tiled to 1,000 rotated
  clients x 50 ops on 64 OSDs, Poisson arrivals) for seeds 1-3, on one
  shard and on four;
* ``random/...`` — ragged synthetic fleets: 1-200 clients, 3-64 OSDs,
  empty clients, stream objects shared between clients, copies that share
  every column but ``visit_osd``, un-encoded op lists, list and array
  arrivals, zero inter-arrival gaps, zero-cost and zero-visit ops,
  ``requests`` > 1, per-client populations past
  ``CLIENT_RESERVOIR_CAPACITY`` (so the reservoir RNG runs), and the
  occasional serial chain or ``osd_shards=2`` that sends the replay to the
  index machine; every twelfth fleet has no operation at all;
* ``ties/...`` — fleets built to collide: every client on the same
  arrival schedule, integer-valued times and costs (so client-station,
  backend-network and OSD arrivals coincide across clients), zero or
  integer hop/push, every visit on one OSD or on very few, ``requests``
  > 1, each on one shard and on four.  The vectorized engine's queue
  order is decided by its tie-breaks alone here (issue rank, then visit
  rank), which the other groups never exercise;
* ``invalid/...`` — inputs ``simulate_fleet`` must reject, recorded as the
  exception's type and message: malformed arrivals and request counts,
  then every float cost column holding NaN, infinity or a negative;
* ``closed/...`` — the closed loop through ``simulate_client_ops``: the
  four fleets the legacy ``ClusterScheduler`` used to be compared on
  (``mixed_streams`` at depths 1, 2, 8; two clients x eight ops at depth
  4 on two-server OSD queues) and seeded random fleets — 1-8 clients,
  3-16 OSDs, read-modify-write chains, zero-cost and zero-visit ops,
  ``requests`` > 1, empty clients, depths 1/2/3/8/32, ``osd_shards``
  1/2/4 — each untraced and traced (the traced record appends the spans
  sorted by ``span_sort_key``).  These records leave ``engine`` out:
  their sha256 digests, written by the legacy scheduler before PR 24
  deleted it, are ``tests/sim/golden/closed_loop.sha256``;
* ``runner/...`` — the workload runner's three entry points on fresh
  clusters: ``WorkloadRunner.run`` (``run``) and
  ``ClusterWorkloadRunner.run`` on one image and on three (``x1``,
  ``x3``) over layouts x {randwrite, randrw} x {unbatched, batched} x
  cache {off, writeback, pwl} x {analytic, analytic traced, events,
  events traced, events open-loop}, each printing the estimate, the
  sorted ledger counters, the latencies (per client too for ``x1``/``x3``)
  and the tracer's spans; then ``capture_template_stream``'s sealed traces
  for three patterns per layout.  A ``run`` record and its ``x1`` twin
  have equal bodies (``tests/workload/test_single_runner.py``).

Every fleet record lists each ``EventSimResult`` field, the two run-wide
reservoirs and every per-client reservoir (``capacity``, ``count``,
``sum_us``, ``min_us``, ``max_us`` and the retained sample), all in
``repr``.  Dicts print in insertion order.  Two runs on one tree are
byte-identical (``tests/tools/test_sim_transcript.py``; CI
``bench-smoke``).
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
import warnings
from dataclasses import replace
from itertools import product
from pathlib import Path
from typing import Callable, Iterator, List, Sequence, TextIO, Tuple

MIB = 1 << 20
BLOCK = 4096

#: the corpus the command line writes (the test passes a smaller one)
SEEDS = (1, 2, 3)
CLIENTS, OPS_PER_CLIENT = 1000, 50
RANDOM_FLEETS, MAX_CLIENTS = 120, 200
TIE_FLEETS = 8
CLOSED_FLEETS = 64
RUNNER_LAYOUTS = ("luks-baseline", "object-end")
RUNNER_PATTERNS = ("randwrite", "randrw")

#: a record: its name and a thunk returning the EventSimResult (or, for
#: the runner and closed-loop groups, the record's text)
Record = Tuple[str, Callable[[], object]]

#: the scalar fields a fleet record prints, ahead of the reservoirs
RESULT_FIELDS = ("engine", "elapsed_us", "requests", "events_processed",
                 "bounding_resource", "resource_us", "queue_wait_us")


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def _reservoir_line(stats) -> str:
    return (f"capacity={stats.capacity!r} count={stats.count!r} "
            f"sum_us={stats.sum_us!r} min_us={stats.min_us!r} "
            f"max_us={stats.max_us!r} sample={stats.sample!r}")


def _result_text(result, fields: Sequence[str] = RESULT_FIELDS) -> str:
    lines = [f"{name}={getattr(result, name)!r}" for name in fields]
    lines.append(f"op_stats: {_reservoir_line(result.op_stats)}")
    lines.append(f"request_stats: {_reservoir_line(result.request_stats)}")
    lines.extend(f"client[{client}]: {_reservoir_line(stats)}"
                 for client, stats in enumerate(result.client_request_stats))
    return "\n".join(lines) + "\n"


def record_text(thunk: Callable[[], object]) -> str:
    """Run one record; its outcome (or the exception it raised) as text."""
    try:
        with warnings.catch_warnings():
            # invalid inputs make numpy warn on trees that accept them
            warnings.simplefilter("ignore")
            result = thunk()
    except Exception as exc:    # the outcome *is* the record
        return f"error={type(exc).__name__}: {exc}\n"
    return result if isinstance(result, str) else _result_text(result)


def write_transcript(out: TextIO, records: Iterator[Record]) -> int:
    """Run every record and write its outcome; returns the record count."""
    count = 0
    for name, thunk in records:
        out.write(f"== {name} ==\n{record_text(thunk)}")
        count += 1
    return count


def record_digests(records: Iterator[Record]) -> Iterator[Tuple[str, str]]:
    """``(name, sha256 of the record's text)``: one golden line per record
    (``tests/sim/golden/closed_loop.sha256``)."""
    for name, thunk in records:
        yield name, hashlib.sha256(record_text(thunk).encode()).hexdigest()


# ---------------------------------------------------------------------------
# corpus: the fleet_replay benchmark shape
# ---------------------------------------------------------------------------

def bench_records(seeds: Sequence[int], clients: int,
                  ops_per_client: int) -> Iterator[Record]:
    from repro import api
    from repro.sim.compact import encode_stream
    from repro.sim.costparams import default_cost_parameters
    from repro.sim.fleet import fleet_streams_from_template, simulate_fleet
    from repro.workload.arrival import PoissonArrivals, arrival_schedule
    from repro.workload.runner import capture_template_stream
    from repro.workload.spec import WorkloadSpec

    osd_count, image_size = 64, 8 * MIB
    for seed in seeds:
        params = default_cost_parameters().with_overrides(
            sim_mode="events", osd_count=osd_count, replica_count=3,
            sim_shards=1, sim_jobs=1)
        cluster = api.make_cluster(osd_count=osd_count, replica_count=3,
                                   params=params)
        image, _info = api.create_encrypted_image(
            cluster, "fleet-template", image_size, b"fleet-template",
            encryption_format="object-end", cipher_suite="blake2-xts-sim",
            random_seed=f"sim-transcript-{seed}".encode())
        chunk = random.Random(seed).randbytes(MIB)
        for offset in range(0, image_size, MIB):
            image.write(offset, chunk)
        for kind in ("randwrite", "randread"):
            spec = WorkloadSpec(name=f"fleet-{kind}", rw=kind, io_size=BLOCK,
                                queue_depth=1, io_count=32, seed=seed)
            template = encode_stream(
                capture_template_stream(cluster, image, spec))
            streams = fleet_streams_from_template(
                template, clients, ops_per_client, osd_count=osd_count)
            arrivals = arrival_schedule(
                PoissonArrivals(rate_per_client=200.0, seed=seed),
                [stream.num_ops for stream in streams])
            for shards in (1, 4):
                sharded = params.with_overrides(sim_shards=shards)
                yield (f"bench/seed{seed}/{kind}/shards{shards}",
                       lambda p=sharded, s=streams, a=arrivals:
                       simulate_fleet(p, s, a))


# ---------------------------------------------------------------------------
# corpus: random ragged fleets
# ---------------------------------------------------------------------------

def _random_op(rng: random.Random, osds: int, replicas: int, chains: bool):
    from repro.sim.ledger import ClientOpTrace, OpTrace, OsdVisit

    requests = rng.choice((1, 1, 1, 2, 3, 16))
    shape = rng.random()
    if shape < 0.08:                          # zero-cost op (sparse read)
        return ClientOpTrace(requests=requests, traces=[])

    def trace(kind: str, fan_out: int) -> "OpTrace":
        placement = rng.sample(range(osds), fan_out)
        visits = [OsdVisit(osd_id=osd,
                           service_us=rng.uniform(4.0, 30.0),
                           latency_us=rng.uniform(20.0, 80.0),
                           hop_us=rng.uniform(20.0, 60.0) if rank else 0.0,
                           push_us=rng.uniform(0.5, 6.0) if rank else 0.0)
                  for rank, osd in enumerate(placement)]
        return OpTrace(kind=kind, client_cpu_us=rng.uniform(1.0, 12.0),
                       client_net_us=rng.uniform(0.5, 5.0),
                       network_us=rng.uniform(40.0, 120.0), visits=visits,
                       bytes_moved=BLOCK)

    if shape < 0.16:                          # served without any OSD
        return ClientOpTrace(requests=requests, traces=[trace("read", 0)])
    if chains and shape < 0.30:               # read-modify-write chain
        return ClientOpTrace(requests=requests,
                             traces=[trace("read", 1), trace("write", 1)])
    if shape < 0.55:
        return ClientOpTrace(requests=requests, traces=[trace("read", 1)])
    return ClientOpTrace(requests=requests,
                         traces=[trace("write", replicas)])


def _random_fleet(index: int, max_clients: int):
    """One seeded ragged fleet: ``(params, streams, arrivals)``."""
    import numpy as np

    from repro.sim.compact import encode_stream
    from repro.sim.costparams import CostParameters

    rng = random.Random(f"sim-transcript/{index}")
    osds = rng.randint(3, 64)
    replicas = min(3, osds)
    clients = rng.randint(1, max_clients)
    empty_fleet = index % 12 == 11
    chains = index % 10 == 7
    params = CostParameters(
        sim_mode="events", osd_count=osds, replica_count=replicas,
        sim_shards=3 if index % 7 == 3 else 1,
        osd_shards=2 if index % 20 == 13 else 1)

    # A handful of op lists; clients draw from them so stream objects and
    # columns are shared the way a tiled fleet shares them.
    lengths = [0, 1, 2, rng.randint(3, 60), rng.randint(3, 60)]
    if index % 5 < 2:
        lengths.append(rng.randint(1030, 1300))     # past reservoir capacity
    shapes = [[_random_op(rng, osds, replicas, chains) for _ in range(n)]
              for n in lengths]
    encoded = [encode_stream(ops) for ops in shapes]
    big_left = 3
    streams: List[object] = []
    for _ in range(clients):
        pick = 0 if empty_fleet else rng.randrange(len(shapes))
        if len(shapes[pick]) > 1000:
            if not big_left:
                pick = 3
            else:
                big_left -= 1
        how = rng.random()
        if how < 0.5:
            streams.append(encoded[pick])           # the same object
        elif how < 0.8 and encoded[pick].num_visits:
            rotated = (encoded[pick].visit_osd + rng.randrange(osds)) % osds
            streams.append(replace(encoded[pick], visit_osd=rotated))
        else:
            streams.append(shapes[pick])            # un-encoded op list
    arrivals: List[object] = []
    for client, stream in enumerate(streams):
        count = stream.num_ops if hasattr(stream, "num_ops") else len(stream)
        now, times = rng.uniform(0.0, 500.0), []
        for _ in range(count):
            if rng.random() >= 0.15:                # else: a zero gap
                now += rng.expovariate(1.0 / rng.choice((15.0, 150.0, 900.0)))
            times.append(now)
        arrivals.append(times if client % 2 else
                        np.asarray(times, dtype=np.float64))
    return params, streams, arrivals


def random_records(count: int, max_clients: int) -> Iterator[Record]:
    from repro.sim.fleet import simulate_fleet

    for index in range(count):
        yield (f"random/{index:03d}",
               lambda i=index: simulate_fleet(*_random_fleet(i, max_clients)))


# ---------------------------------------------------------------------------
# corpus: fleets whose queue order is all tie-breaks
# ---------------------------------------------------------------------------

def _tie_fleet(index: int, max_clients: int):
    """One seeded colliding fleet: ``(params, streams, arrivals)``."""
    from repro.sim.compact import encode_stream
    from repro.sim.costparams import CostParameters
    from repro.sim.ledger import ClientOpTrace, OpTrace, OsdVisit

    rng = random.Random(f"sim-transcript/ties/{index}")
    osds = 1 if index % 3 == 0 else rng.randint(2, 4)
    free_backend = index % 2 == 0             # zero hop and push
    clients = rng.randint(2, max_clients)

    def whole(*choices: int) -> float:
        return float(rng.choice(choices))

    def op() -> "ClientOpTrace":
        requests = rng.choice((1, 2, 3, 16))
        shape = rng.random()
        if shape < 0.1:                       # zero-cost op
            return ClientOpTrace(requests=requests, traces=[])
        fan_out = 0 if shape < 0.2 else 1 if shape < 0.5 else 3
        visits = [OsdVisit(
            osd_id=rng.randrange(osds), service_us=whole(1, 2, 3, 5),
            latency_us=whole(2, 4, 8),
            hop_us=0.0 if free_backend or not rank else whole(0, 1, 2),
            push_us=0.0 if free_backend or not rank else whole(0, 1, 2))
            for rank in range(fan_out)]
        return ClientOpTrace(requests=requests, traces=[OpTrace(
            kind="write" if fan_out > 1 else "read",
            client_cpu_us=whole(1, 2, 3), client_net_us=whole(1, 2),
            network_us=whole(2, 4, 8), visits=visits, bytes_moved=BLOCK)])

    ops = [op() for _ in range(rng.randint(3, 40))]
    now, schedule = whole(0, 5), []
    for _ in ops:
        now += whole(0, 0, 1, 2, 5, 20)
        schedule.append(now)
    encoded = encode_stream(ops)
    # the same object, an equal copy and the un-encoded list, in turn
    streams = [(encoded, encode_stream(ops), ops)[client % 3]
               for client in range(clients)]
    params = CostParameters(sim_mode="events", osd_count=max(osds, 3),
                            replica_count=3)
    return params, streams, [list(schedule) for _ in range(clients)]


def tie_records(count: int, max_clients: int) -> Iterator[Record]:
    from repro.sim.fleet import simulate_fleet

    for index in range(count):
        for shards in (1, 4):
            def run(i=index, n=shards):
                params, streams, arrivals = _tie_fleet(i, max_clients)
                return simulate_fleet(params.with_overrides(sim_shards=n),
                                      streams, arrivals)
            yield f"ties/{index:02d}/shards{shards}", run


# ---------------------------------------------------------------------------
# corpus: inputs that must be rejected
# ---------------------------------------------------------------------------

#: the float cost fields of a traced op, client side then per OSD visit
COST_FIELDS = ("client_cpu_us", "client_net_us", "network_us", "service_us",
               "latency_us", "hop_us", "push_us")


def invalid_records() -> Iterator[Record]:
    import numpy as np

    from repro.sim.costparams import CostParameters
    from repro.sim.fleet import simulate_fleet
    from repro.sim.ledger import ClientOpTrace, OpTrace, OsdVisit

    params = CostParameters(sim_mode="events", osd_count=4, replica_count=3)

    def op(requests: int = 1, **costs: float) -> "ClientOpTrace":
        visit = dict(service_us=9.0, latency_us=48.0, hop_us=30.0,
                     push_us=2.0)
        trace = dict(client_cpu_us=5.0, client_net_us=2.0, network_us=90.0)
        for field, value in costs.items():
            (visit if field in visit else trace)[field] = value
        return ClientOpTrace(requests=requests, traces=[OpTrace(
            kind="write", visits=[
                OsdVisit(osd_id=1, **dict(visit, hop_us=0.0, push_us=0.0)),
                OsdVisit(osd_id=2, **visit)],
            bytes_moved=BLOCK, **trace)])

    three = [op(), op(), op()]
    times = [1.0, 2.0, 3.0]
    cases = [
        ("arrival-count-mismatch", [three], [[1.0, 2.0]]),
        ("arrivals-unsorted", [three], [[3.0, 2.0, 1.0]]),
        ("arrival-arrays-vs-clients", [three], [times, [4.0]]),
        ("arrival-nan", [three], [[1.0, float("nan"), 3.0]]),
        ("arrival-inf", [three], [[1.0, 2.0, float("inf")]]),
        ("arrival-2d", [three], [np.array([[1.0], [2.0], [3.0]])]),
        ("arrival-strings", [three], [["a", "b", "c"]]),
        ("requests-zero", [[op(), op(0), op()]], [times]),
        ("requests-negative", [[op(), op(-1), op()]], [times]),
    ]
    # a bad cost in one op of one of three clients (so every queue of the
    # vectorized engine still has honest work around it)
    for field in COST_FIELDS:
        for label, value in (("nan", float("nan")), ("inf", float("inf")),
                             ("negative", -4.0)):
            cases.append((f"cost-{field}-{label}",
                          [three, [op(), op(**{field: value}), op()], three],
                          [times, times, times]))
    for name, streams, arrivals in cases:
        yield (f"invalid/{name}",
               lambda s=streams, a=arrivals: simulate_fleet(params, s, a))


# ---------------------------------------------------------------------------
# corpus: the closed loop
# ---------------------------------------------------------------------------

def read_op(client, index, osd, requests=1):
    """A read op with index-dependent costs (keeps event times tie-free)."""
    from repro.sim.ledger import ClientOpTrace, OpTrace, OsdVisit

    jitter = 0.13 * index + 1.7 * client
    visit = OsdVisit(osd_id=osd, service_us=9.0 + jitter,
                     latency_us=48.0 + jitter)
    return ClientOpTrace(client=client, requests=requests, traces=[OpTrace(
        kind="read", client_cpu_us=5.0 + 0.07 * index, client_net_us=2.0,
        network_us=90.0, visits=[visit], bytes_moved=4096)])


def write_op(client, index, primary, replicas):
    from repro.sim.ledger import ClientOpTrace, OpTrace, OsdVisit

    jitter = 0.11 * index + 1.3 * client
    visits = [OsdVisit(osd_id=primary, service_us=11.0 + jitter,
                       latency_us=39.0 + jitter)]
    for osd in replicas:
        visits.append(OsdVisit(osd_id=osd, service_us=10.0 + jitter,
                               latency_us=41.0 + jitter, hop_us=45.0,
                               push_us=1.0 + 0.05 * index))
    return ClientOpTrace(client=client, requests=1, traces=[OpTrace(
        kind="write", client_cpu_us=6.0 + 0.05 * index, client_net_us=2.5,
        network_us=90.0, visits=visits, bytes_moved=65536)])


def rmw_op(client, index, primary):
    """A serial read-then-write chain (two RADOS ops in one client op)."""
    from repro.sim.ledger import ClientOpTrace, OpTrace, OsdVisit

    read = OpTrace(kind="read", client_cpu_us=4.0, client_net_us=1.0,
                   network_us=90.0,
                   visits=[OsdVisit(osd_id=primary, service_us=8.0 + index,
                                    latency_us=50.0)], bytes_moved=4096)
    write = OpTrace(kind="write", client_cpu_us=5.0, client_net_us=2.0,
                    network_us=90.0,
                    visits=[OsdVisit(osd_id=primary, service_us=9.0 + index,
                                     latency_us=40.0)], bytes_moved=4096)
    return ClientOpTrace(client=client, requests=1, traces=[read, write])


def zero_visit_op(client):
    """An op served without touching any OSD (e.g. a pure cache hit)."""
    from repro.sim.ledger import ClientOpTrace, OpTrace

    return ClientOpTrace(client=client, requests=1, traces=[OpTrace(
        kind="read", client_cpu_us=3.0, client_net_us=1.0, network_us=90.0,
        visits=[], bytes_moved=4096)])


def mixed_streams(num_clients=3, ops_per_client=12):
    streams = []
    for client in range(num_clients):
        ops = []
        for i in range(ops_per_client):
            if i % 4 == 0:
                ops.append(write_op(client, i, primary=(client + i) % 4,
                                    replicas=((client + i + 1) % 4,
                                              (client + i + 2) % 4)))
            elif i % 4 == 1:
                ops.append(rmw_op(client, i, primary=i % 4))
            elif i % 4 == 2:
                ops.append(zero_visit_op(client))
            else:
                ops.append(read_op(client, i, osd=i % 4, requests=2))
        streams.append(ops)
    return streams


def _closed_fleet(index: int):
    """One seeded closed-loop fleet: ``(params, streams, queue_depth)``."""
    from repro.sim.costparams import CostParameters

    rng = random.Random(f"sim-transcript/closed/{index}")
    osds = rng.randint(3, 16)
    replicas = min(3, osds)
    chains = index % 3 != 2
    params = CostParameters(sim_mode="events", osd_count=osds,
                            replica_count=replicas,
                            osd_shards=(1, 1, 2, 4)[index % 4])
    streams = [[] if rng.random() < 0.1 else
               [_random_op(rng, osds, replicas, chains)
                for _ in range(rng.randint(1, 40))]
               for _ in range(rng.randint(1, 8))]
    return params, streams, (1, 2, 3, 8, 32)[index % 5]


def _run_closed(params, streams, queue_depth: int, traced: bool) -> str:
    from repro.obs.spans import SpanTracer, span_sort_key
    from repro.sim.scheduler import simulate_client_ops

    tracer = SpanTracer() if traced else None
    result = simulate_client_ops(params, streams, queue_depth, tracer=tracer)
    # every field but the engine's name: the legacy scheduler wrote these
    # records' digests at PR 23 and the index machine has to reproduce them
    text = _result_text(result, RESULT_FIELDS[1:])
    if traced:
        text += f"spans={sorted(tracer.spans, key=span_sort_key)!r}\n"
    return text


def closed_records(count: int) -> Iterator[Record]:
    from repro.sim.costparams import CostParameters

    def historical(osd_shards: int = 1) -> "CostParameters":
        return CostParameters(sim_mode="events", osd_count=4,
                              replica_count=3, osd_shards=osd_shards)

    cases = [(f"mixed-3x12/qd{depth}",
              lambda d=depth: (historical(), mixed_streams(), d))
             for depth in (1, 2, 8)]
    cases.append(("mixed-2x8/qd4-osdshards2",
                  lambda: (historical(2), mixed_streams(2, 8), 4)))
    cases.extend((f"random/{index:03d}", lambda i=index: _closed_fleet(i))
                 for index in range(count))
    for name, build in cases:
        for traced in (False, True):
            yield (f"closed/{name}/{'traced' if traced else 'untraced'}",
                   lambda b=build, t=traced: _run_closed(*b(), t))


# ---------------------------------------------------------------------------
# corpus: the workload runner's entry points
# ---------------------------------------------------------------------------

#: (label, sim_mode, traced, open_loop)
RUNNER_MODES = (("analytic", "analytic", False, False),
                ("analytic-traced", "analytic", True, False),
                ("events", "events", False, False),
                ("events-traced", "events", True, False),
                ("events-open", "events", False, True))


def _runner_images(sim_mode: str, layout: str, count: int):
    from repro import api
    from repro.sim.costparams import default_cost_parameters

    params = default_cost_parameters().with_overrides(sim_mode=sim_mode)
    cluster = api.make_cluster(params=params)
    images = [api.create_encrypted_image(
        cluster, f"runner-{index}", 4 * MIB, b"runner",
        encryption_format=layout, cipher_suite="blake2-xts-sim",
        object_size=MIB, random_seed=f"runner-{index}".encode())[0]
        for index in range(count)]
    return cluster, images


def _run_entry(entry: str, layout: str, sim_mode: str, traced: bool,
               spec) -> str:
    from repro.obs.spans import SpanTracer
    from repro.workload.cluster_runner import ClusterWorkloadRunner
    from repro.workload.runner import WorkloadRunner

    cluster, images = _runner_images(sim_mode, layout, spec.num_clients)
    tracer = SpanTracer() if traced else None
    if entry == "run":
        result = WorkloadRunner(cluster, tracer).run(images[0], spec)
    else:
        result = ClusterWorkloadRunner(cluster, tracer).run(images, spec)
    lines = [f"layout={result.layout!r}", f"estimate={result.estimate!r}",
             f"counters={sorted(result.counters.items())!r}",
             f"latencies_us={result.latencies_us!r}"]
    if entry != "run":
        lines.append(f"per_client_latencies_us="
                     f"{result.per_client_latencies_us!r}")
    lines.append(f"spans={tracer.spans if traced else None!r}")
    return "\n".join(lines) + "\n"


def _capture(layout: str, pattern: str) -> str:
    from repro.workload.runner import capture_template_stream, prefill_image
    from repro.workload.spec import WorkloadSpec

    cluster, (image,) = _runner_images("events", layout, 1)
    if pattern != "randwrite":
        prefill_image(image)
    spec = WorkloadSpec(name=f"capture-{pattern}", rw=pattern, io_size=BLOCK,
                        queue_depth=1, io_count=24, seed=11)
    return f"traces={capture_template_stream(cluster, image, spec)!r}\n"


def runner_records(layouts: Sequence[str],
                   patterns: Sequence[str]) -> Iterator[Record]:
    from repro.workload.spec import WorkloadSpec

    for layout in layouts:
        for pattern, batched, cache, mode, (entry, clients) in product(
                patterns, (False, True), (None, "writeback", "pwl"),
                RUNNER_MODES, (("run", 1), ("x1", 1), ("x3", 3))):
            label, sim_mode, traced, open_loop = mode
            spec = WorkloadSpec(
                name="runner", rw=pattern, io_size=4 * BLOCK, queue_depth=4,
                io_count=24, seed=5, batched=batched, cache_mode=cache,
                num_clients=clients, open_loop=open_loop,
                arrival_rate=2000.0 if open_loop else None)
            yield (f"runner/{layout}/{pattern}/"
                   f"{'batched' if batched else 'scalar'}/"
                   f"{cache or 'nocache'}/{label}/{entry}",
                   lambda e=entry, l=layout, m=sim_mode, t=traced, s=spec:
                   _run_entry(e, l, m, t, s))
        for pattern in ("randwrite", "randread", "randrw"):
            yield (f"runner/{layout}/capture/{pattern}",
                   lambda l=layout, p=pattern: _capture(l, p))


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def corpus(seeds: Sequence[int] = SEEDS, clients: int = CLIENTS,
           ops_per_client: int = OPS_PER_CLIENT,
           random_fleets: int = RANDOM_FLEETS,
           max_clients: int = MAX_CLIENTS,
           tie_fleets: int = TIE_FLEETS,
           closed_fleets: int = CLOSED_FLEETS,
           runner_layouts: Sequence[str] = RUNNER_LAYOUTS,
           runner_patterns: Sequence[str] = RUNNER_PATTERNS
           ) -> Iterator[Record]:
    yield from bench_records(seeds, clients, ops_per_client)
    yield from random_records(random_fleets, max_clients)
    yield from tie_records(tie_fleets, max_clients)
    yield from invalid_records()
    yield from closed_records(closed_fleets)
    yield from runner_records(runner_layouts, runner_patterns)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, metavar="FILE")
    parser.add_argument("--src", metavar="DIR",
                        default=str(Path(__file__).resolve().parents[1]
                                    / "src"),
                        help="src/ directory of the tree to drive "
                             "(default: this checkout's)")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    with open(args.out, "w", encoding="utf-8") as out:
        count = write_transcript(out, corpus())
    print(f"{count} records -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
