"""Fleet-scale event simulation: vectorized trace replay.

This module is the event engine's top half.  :mod:`~repro.sim.replay`
gives an exact index-based event machine; this module adds what fleet
runs (1,000 clients, millions of requests) need on top of it:

* **Vectorized open-loop replay** — when operations are issued by an
  exogenous arrival process (no completion->issue feedback) and every
  client op maps to at most one RADOS op, the whole replay collapses
  into sorted queue scans over numpy columns: a Lindley recursion per
  FIFO station (client CPU, client NIC, backend network, each OSD)
  instead of a per-event Python loop.  Multi-million-op runs finish in
  wall-clock seconds.  The scans are batched *across* clients as well:
  columns are read through tables of the fleet's distinct arrays and
  the private client stations run as one matrix per distinct row width,
  so nothing but attribute reads happens per client.  Sorting is done
  on the keys that decide, and tie-breaks are read only where times
  tie: the primaries are put in backend-network order once (numpy's
  default sort) and their replicas inherit it, the OSD queues are a
  stable time sort and a radix pass on the OSD id, and both repair
  their tied runs by issue order (:func:`_time_order`).
* **Fleet synthesis** — :func:`fleet_streams_from_template` tiles one
  captured stream (real data path, real crypto and placement costs)
  out to an arbitrary client count with rotated OSD placement, without
  replaying the capture per client.

Every replay is one contention domain: all clients wait in the same OSD
queues and on the same backend network, in one process.  Closed-loop
replay cannot be vectorized (each completion feeds the next issue), so
it always runs on the index machine.  The vectorized path falls back to
the index machine whenever a stream contains serial RADOS chains
(read-modify-write turns) or OSD queues have multiple servers
(``osd_shards > 1``), where sorted-scan FIFO semantics no longer hold.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .compact import (CompactStream, column_table, distinct_by_identity,
                      encode_stream, encode_streams, tile_stream)
from .costparams import CostParameters
from .ledger import ClientOpTrace
from .replay import (EventSimResult, IndexMachine, bounding_resource,
                     has_serial_chains, replay_open_loop)
from .reservoir import LatencyReservoir
from ..errors import ConfigurationError
from ..obs.spans import SpanTracer
from ..util import is_count

__all__ = ["simulate_closed_loop", "simulate_fleet",
           "fleet_streams_from_template"]


# ---------------------------------------------------------------------------
# vectorized open-loop engine
# ---------------------------------------------------------------------------

def _fifo_scan(arrival: np.ndarray, service: np.ndarray,
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Start/end times of single-server FIFOs fed sorted arrivals.

    Lindley's recursion, vectorized: with inclusive service prefix sums
    ``S``, ``start[j] = S[j-1] + max_{k<=j}(arrival[k] - S[k-1])``, so
    one cumsum and one running max replace the per-job loop.  The scan
    runs along the last axis: a vector is one queue, a matrix is one
    independent queue per row.
    """
    if arrival.size == 0:
        return arrival.copy(), arrival.copy()
    total = np.cumsum(service, axis=-1)
    before = total - service
    start = np.maximum.accumulate(arrival - before, axis=-1) + before
    return start, start + service


def _group_arange(counts: np.ndarray) -> np.ndarray:
    """``[0..counts[0]), [0..counts[1]), ...`` concatenated."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def _time_order(order: np.ndarray, times: np.ndarray, op: np.ndarray,
                issue_us: np.ndarray, queue: Optional[np.ndarray] = None,
                ) -> np.ndarray:
    """Exactly ``np.lexsort((position, op, issue_us[op], times[, queue]))``.

    ``order`` is any permutation that sorts ``times`` (equal times in any
    order): each caller runs the sort that is fastest on its input.  A
    stable radix pass on ``queue`` goes over it, then every run equal on
    (queue, time) is put in issue order — the op's arrival, the op, input
    position — all runs in one ``lexsort`` keyed by run.  ``op`` and
    ``issue_us`` are read for the tied elements only.  ``order`` is
    repaired in place.  ``times`` holds no NaN (:func:`_check_replayable`):
    NaN is a tie ``==`` cannot see.
    """
    if queue is not None:
        ids = queue[order]
        if ids.size and -2**15 <= ids.min() and ids.max() < 2**15:
            ids = ids.astype(np.int16)      # numpy's O(n) radix sort
        by_queue = np.argsort(ids, kind="stable")
        order, ids = order[by_queue], ids[by_queue]
    ahead = times[order]
    tied = ahead[1:] == ahead[:-1]      # element i + 1 ties with element i
    if queue is not None:
        tied &= ids[1:] == ids[:-1]
    if tied.any():
        after = np.concatenate(([False], tied))
        runs = np.flatnonzero(after | np.concatenate((tied, [False])))
        members = order[runs]
        tied_op = op[members]
        order[runs] = members[np.lexsort(
            (members, tied_op, issue_us[tied_op], np.cumsum(~after[runs])))]
    return order


def _column_reader(streams: Sequence[CompactStream], name: str,
                   ) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """``read(stream, index)``: element ``index[k]`` of column ``name`` of
    ``streams[stream[k]]`` for every ``k``, as one gather."""
    table, start = column_table(streams, name)
    return lambda stream, index: table[start[stream] + index]


def _vectorized_open_loop(params: CostParameters,
                          shapes: Sequence[CompactStream],
                          shape_of: np.ndarray,
                          schedule_us: np.ndarray) -> EventSimResult:
    """Open-loop replay as sorted queue scans (see module docstring).

    ``schedule_us`` is the clients' arrival timestamps concatenated in
    client order.  Requires at least one op, every op to carry at most
    one RADOS op and single-server OSD queues; callers guarantee all
    three.  Exactly
    equivalent to :func:`~repro.sim.replay.replay_open_loop` on workloads
    with distinct event timestamps (ties break by deterministic issue
    order here and by event sequence numbers there).

    What orders what: issue order is (arrival, client, op), and as the
    columns are in (client, op) order that is (arrival, fleet-wide op
    index) — no sort computes it, :func:`_time_order` reads it for
    elements whose times tie.  The primaries are put in (arrival, issue)
    order once, so the replicas repeated from them are born in the
    backend network's FIFO order.  An OSD queue is (OSD, arrival, issue,
    visit rank); input position is the visit rank, since the primaries
    come first and each op's replicas follow in visit order.  Every sum
    still adds the same values in the same order as a full multi-key
    sort would leave them in.

    Nothing below loops over clients.  Columns are read through tables
    of the fleet's *distinct* arrays, every fleet-wide column is in
    (client, op[, visit]) order, and the private client stations run as
    one matrix per distinct row width — never padded, never one long
    scan with segment totals subtracted: either changes the last bit of
    some result (``sum`` is pairwise, so its rounding depends on the row
    length; ``(a + b) - a`` is not ``b``), and a row of a matrix rounds
    exactly like the same numbers as a vector.
    """
    num_clients = len(shape_of)
    ops_per_client = np.array([s.num_ops for s in shapes],
                              dtype=np.int64)[shape_of]
    base = np.zeros(num_clients + 1, dtype=np.int64)
    np.cumsum(ops_per_client, out=base[1:])
    n_ops = int(base[-1])

    g_T = schedule_us
    g_client = np.repeat(np.arange(num_clients, dtype=np.int64),
                         ops_per_client)
    g_op = _group_arange(ops_per_client)
    g_shape = shape_of[g_client]
    g_requests = _column_reader(shapes, "op_requests")(g_shape, g_op)

    g_done = np.empty(n_ops, dtype=np.float64)
    g_half = np.zeros(n_ops, dtype=np.float64)
    op_visits = np.zeros(n_ops, dtype=np.int64)
    cpu_busy = np.zeros(num_clients)
    net_busy = np.zeros(num_clients)

    trace_start = _column_reader(shapes, "op_trace_start")
    g_trace = trace_start(g_shape, g_op)
    real = trace_start(g_shape, g_op + 1) > g_trace
    # Zero-cost ops (sparse reads) complete at issue time.
    g_done[~real] = g_T[~real]

    # --- client stations: CPU then NIC, private to each client ---
    real_g = np.flatnonzero(real)
    r_shape, r_trace, r_T = g_shape[real_g], g_trace[real_g], g_T[real_g]
    cpu_svc = _column_reader(shapes, "trace_cpu_us")(r_shape, r_trace)
    net_svc = _column_reader(shapes, "trace_net_us")(r_shape, r_trace)
    net_end = np.empty(real_g.size)
    width = np.bincount(g_client[real_g], minlength=num_clients)
    first = np.cumsum(width) - width
    for w in np.unique(width[width > 0]).tolist():
        rows = np.flatnonzero(width == w)
        cell = first[rows][:, None] + np.arange(w)
        cpu_rows, net_rows = cpu_svc[cell], net_svc[cell]
        _, cpu_end = _fifo_scan(r_T[cell], cpu_rows)
        _, net_end[cell] = _fifo_scan(cpu_end, net_rows)
        cpu_busy[rows] = cpu_rows.sum(axis=1)
        net_busy[rows] = net_rows.sum(axis=1)
    half = _column_reader(shapes, "trace_rtt_us")(r_shape, r_trace) / 2.0
    prim_arr = net_end + half
    g_half[real_g] = half
    visit_start = _column_reader(shapes, "trace_visit_start")
    r_visit = visit_start(r_shape, r_trace)
    vpt = visit_start(r_shape, r_trace + 1) - r_visit
    op_visits[real_g] = vpt
    no_visit = vpt == 0
    g_done[real_g[no_visit]] = prim_arr[no_visit] + half[no_visit]

    # --- primaries in (arrival, issue) order, then the fan-out of each ---
    # Issue order (T, client, op) is the deterministic tie-break the index
    # machine realizes through event sequence numbers.
    visit_osd = _column_reader(shapes, "visit_osd")
    visit_svc = _column_reader(shapes, "visit_service_us")
    visit_lat = _column_reader(shapes, "visit_latency_us")
    has = np.flatnonzero(vpt)
    arrive = prim_arr[has]
    # numpy's default sort: one interleaved run per client, where it beats
    # timsort
    has = has[_time_order(np.argsort(arrive), arrive, real_g[has], g_T)]
    p_shape, p_visit, p_arr, p_gop = (r_shape[has], r_visit[has],
                                      prim_arr[has], real_g[has])
    p_osd = visit_osd(p_shape, p_visit)
    p_svc = visit_svc(p_shape, p_visit)
    p_lat = visit_lat(p_shape, p_visit)
    rep_counts = vpt[has] - 1
    r_vrank = _group_arange(rep_counts)
    rep_shape = np.repeat(p_shape, rep_counts)
    rep_visit = np.repeat(p_visit + 1, rep_counts) + r_vrank
    r_osd = visit_osd(rep_shape, rep_visit)
    r_arr = np.repeat(p_arr, rep_counts)
    r_svc = visit_svc(rep_shape, rep_visit)
    r_lat = visit_lat(rep_shape, rep_visit)
    r_gop = np.repeat(p_gop, rep_counts)
    r_push = _column_reader(shapes, "visit_push_us")(rep_shape, rep_visit)
    r_hop = _column_reader(shapes, "visit_hop_us")(rep_shape, rep_visit)

    # --- backend network: one shared queue, already in its FIFO order ---
    cluster_busy = 0.0
    cluster_wait = 0.0
    r_arrival = r_arr
    if r_osd.size:
        push_start, push_end = _fifo_scan(r_arr, r_push)
        cluster_busy = float(r_push.sum())
        cluster_wait = float((push_start - r_arr).sum())
        r_arrival = push_end + r_hop

    # --- OSD queues: primaries and replicas, one sorted scan per OSD ---
    v_osd = np.concatenate([p_osd, r_osd])
    v_arr = np.concatenate([p_arr, r_arrival])
    v_svc = np.concatenate([p_svc, r_svc])
    v_lat = np.concatenate([p_lat, r_lat])
    v_gop = np.concatenate([p_gop, r_gop])

    op_ack = np.full(n_ops, -np.inf)
    osd_busy: Dict[int, float] = {}
    osd_wait: Dict[int, float] = {}
    if v_osd.size:
        # stable: two presorted runs, where timsort beats the default sort
        osd_order = _time_order(np.argsort(v_arr, kind="stable"), v_arr,
                                v_gop, g_T, queue=v_osd)
        s_osd = v_osd[osd_order]
        s_arr = v_arr[osd_order]
        s_svc = v_svc[osd_order]
        s_lat = v_lat[osd_order]
        s_gop = v_gop[osd_order]
        cuts = np.flatnonzero(np.diff(s_osd)) + 1
        bounds = np.concatenate(([0], cuts, [s_osd.size]))
        ack = np.empty(s_osd.size)
        for i in range(len(bounds) - 1):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            start, _end = _fifo_scan(s_arr[lo:hi], s_svc[lo:hi])
            ack[lo:hi] = start + np.maximum(s_svc[lo:hi], s_lat[lo:hi])
            osd_id = int(s_osd[lo])
            osd_busy[osd_id] = float(s_svc[lo:hi].sum())
            osd_wait[osd_id] = float((start - s_arr[lo:hi]).sum())
        np.maximum.at(op_ack, s_gop, ack)

    with_visits = op_ack > -np.inf
    g_done[with_visits] = op_ack[with_visits] + g_half[with_visits]

    # --- statistics (same event count the index machine would fire) ---
    events = int(np.where(op_visits > 0, 3 * op_visits + 1, 2).sum())

    latency = g_done - g_T
    op_stats = LatencyReservoir()
    op_stats.extend(latency)
    request_stats = LatencyReservoir()
    per_request = latency / g_requests
    request_stats.extend(per_request, weights=g_requests)
    client_stats = LatencyReservoir.from_segments(per_request, g_requests,
                                                  base)

    elapsed = max(float(g_done.max()), 1e-6)
    resource_us = {
        "client.cpu": float(cpu_busy.max()),
        "client.net": float(net_busy.max()),
        "cluster.net": cluster_busy,
        "osd.work": max(osd_busy.values(), default=0.0),
    }
    waits = {f"osd.{osd_id}": wait for osd_id, wait in osd_wait.items()}
    waits["cluster.net"] = cluster_wait
    return EventSimResult(
        elapsed_us=elapsed, requests=int(g_requests.sum()),
        op_stats=op_stats, request_stats=request_stats,
        client_request_stats=client_stats, resource_us=resource_us,
        bounding_resource=bounding_resource(params, resource_us, elapsed,
                                            open_loop=True),
        events_processed=events, queue_wait_us=waits, engine="vectorized")


def _per_client(schedule_us: np.ndarray, streams: Sequence[CompactStream],
                ) -> List[np.ndarray]:
    """Split a concatenated arrival schedule back into one view per client."""
    ends = np.cumsum([stream.num_ops for stream in streams])
    return np.split(schedule_us, ends[:-1])


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def simulate_closed_loop(params: CostParameters,
                         streams: Sequence[Sequence[ClientOpTrace]],
                         queue_depth: int,
                         tracer: Optional[SpanTracer] = None,
                         ) -> EventSimResult:
    """Closed-loop replay of every client on one shared cluster, on the
    index machine (a tracer records its events' sim-clock times)."""
    if not is_count(queue_depth):
        raise ConfigurationError(
            f"queue depth must be a positive integer (got {queue_depth!r})")
    compact = encode_streams(streams)
    _check_replayable(distinct_by_identity(compact)[0])
    return IndexMachine(params, compact, tracer).run_closed(queue_depth)


def simulate_fleet(params: CostParameters,
                   streams: Sequence[Sequence[ClientOpTrace]],
                   arrivals_us: Sequence[Sequence[float]],
                   tracer: Optional[SpanTracer] = None) -> EventSimResult:
    """Open-loop fleet replay: op ``j`` of client ``i`` issues at
    ``arrivals_us[i][j]``.

    Uses the vectorized scan engine whenever the workload allows it
    (single-RADOS-op client ops, single-server OSD queues, no tracer);
    otherwise the index-based event machine replays the fleet exactly.
    A tracer needs the index machine because the vectorized scans never
    materialize per-event times.
    """
    compact = encode_streams(streams)
    try:
        arrays = len(arrivals_us)
    except TypeError:
        raise ConfigurationError(
            "arrival timestamps must be one sequence per client (got "
            f"{type(arrivals_us).__name__})") from None
    if arrays != len(compact):
        raise ConfigurationError(
            f"{arrays} arrival arrays for {len(compact)} clients")
    # a tiled fleet repeats its stream objects: every pass below runs over
    # the distinct ones
    shapes, shape_of = distinct_by_identity(compact)
    _check_replayable(shapes)
    schedule = _checked_schedule(shapes, shape_of, arrivals_us)
    if (tracer is None and params.osd_shards == 1
            and not has_serial_chains(compact)):
        return _vectorized_open_loop(params, shapes, shape_of, schedule)
    return replay_open_loop(params, compact, _per_client(schedule, compact),
                            tracer)


def _check_replayable(shapes: Sequence[CompactStream]) -> None:
    """What the closed loop and the fleet both refuse, the same way.

    ``shapes`` are the fleet's distinct streams; a tiled fleet shares its
    columns, so each distinct array is read once.
    """
    if not any(s.num_ops for s in shapes):
        raise ConfigurationError(
            "event simulation needs at least one traced operation "
            "(was ledger.trace_ops enabled during the run?)")
    if int(column_table(shapes, "op_requests")[0].min()) <= 0:
        raise ConfigurationError(
            "every operation must complete at least one request "
            "(ClientOpTrace.requests must be positive)")
    for name in ("trace_cpu_us", "trace_net_us", "trace_rtt_us",
                 "visit_service_us", "visit_latency_us", "visit_hop_us",
                 "visit_push_us"):
        costs = column_table(shapes, name)[0]
        bad = ~((costs >= 0.0) & (costs < np.inf))      # NaN fails both
        if bad.any():
            raise ConfigurationError(
                f"cost column {name} must be finite and non-negative "
                f"(got {float(costs[bad][0])!r})")


def _flat_numbers(times) -> bool:
    """Whether one client's arrival timestamps are a flat run of numbers."""
    try:
        return np.asarray(times, dtype=np.float64).ndim == 1
    except (TypeError, ValueError):
        return False


def _checked_schedule(shapes: Sequence[CompactStream], shape_of: np.ndarray,
                      arrivals_us: Sequence[Sequence[float]],
                      ) -> np.ndarray:
    """Validate a fleet's inputs; return the arrival schedule concatenated
    in client order (client ``i`` replays ``shapes[shape_of[i]]``).

    Every check runs on fleet-wide columns (one pass whatever the client
    count) and before an engine is chosen, so the vectorized scans, the
    index machine and a traced run reject the same inputs the same way.
    """
    ops_per_client = np.array([s.num_ops for s in shapes],
                              dtype=np.int64)[shape_of]
    try:
        # each client converts on its own (two clients whose dtypes numpy
        # cannot promote together are still two flat numeric sequences),
        # so this fails only where some client is not one
        columns = [np.asarray(times, dtype=np.float64)
                   for times in arrivals_us]
        schedule = np.concatenate(columns)
    except (TypeError, ValueError):
        client = next(c for c, times in enumerate(arrivals_us)
                      if not _flat_numbers(times))
        raise ConfigurationError(
            f"client {client}: arrival timestamps must be one flat numeric "
            "sequence") from None
    sizes = np.fromiter(map(len, columns), dtype=np.int64,
                        count=len(columns))
    wrong = np.flatnonzero(sizes != ops_per_client)
    if wrong.size:
        c = int(wrong[0])
        raise ConfigurationError(
            f"client {c}: {sizes[c]} arrival timestamps for "
            f"{ops_per_client[c]} operations")
    if schedule.ndim != 1:
        raise ConfigurationError(
            "arrival timestamps must be one flat numeric sequence per "
            f"client (got {schedule.ndim} dimensions)")
    if not np.isfinite(schedule).all():
        raise ConfigurationError("arrival timestamps must be finite")
    gaps = np.diff(schedule)
    # the step from one client's last arrival to the next client's first
    # is not a gap (empty clients put their boundary on a neighbour's)
    edges = np.cumsum(ops_per_client)[:-1]
    gaps[edges[(edges > 0) & (edges < schedule.size)] - 1] = 0.0
    if (gaps < 0).any():
        raise ConfigurationError(
            "arrival timestamps must be sorted per client")
    return schedule


def fleet_streams_from_template(template, num_clients: int,
                                ops_per_client: int,
                                osd_count: Optional[int] = None,
                                ) -> List[CompactStream]:
    """Synthesize ``num_clients`` streams by tiling one captured stream.

    The template carries real recorded costs (crypto, placement,
    read-modify-write turns); tiling scales the *traffic* without
    replaying the capture per client.  With ``osd_count``, client ``i``'s
    OSD placement rotates by ``i`` modulo the cluster size, spreading the
    fleet across OSDs while keeping primaries and replicas distinct.
    All non-placement columns are shared between clients (zero copies),
    and clients with the same rotation (``i`` and ``i + osd_count``)
    share one stream object, which the replay engine de-duplicates on.
    """
    for count in (num_clients, ops_per_client,
                  1 if osd_count is None else osd_count):
        if not is_count(count):
            raise ConfigurationError(
                "fleet synthesis needs positive integer client, op and "
                f"OSD counts (got {count!r})")
    if not isinstance(template, CompactStream):
        template = encode_stream(template)
    base = tile_stream(template, ops_per_client)
    if osd_count is None or base.visit_osd.size == 0:
        return [base] * num_clients
    top = int(base.visit_osd.max())
    if osd_count <= top:
        raise ConfigurationError(
            f"osd_count={osd_count} cannot host template OSD ids up "
            f"to {top}")
    # Client i and client i + osd_count get the same placement: build each
    # rotation once and hand the same stream object to all its clients.
    rotations = [base] + [
        dc_replace(base, visit_osd=(base.visit_osd + shift) % osd_count)
        for shift in range(1, min(num_clients, osd_count))]
    return [rotations[i % osd_count] for i in range(num_clients)]
