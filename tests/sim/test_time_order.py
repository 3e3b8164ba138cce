"""``repro.sim.fleet._time_order`` *is* ``np.lexsort``.

The vectorized fleet engine orders its queues with single-key stable
sorts and repairs the tied runs afterwards; the promise is the exact
permutation ``np.lexsort((vrank, rank, times[, queue]))`` returns, ties
down to input position included.  Pinned here:

* the property itself, over inputs that mostly tie, never tie and mix,
  with OSD ids inside and outside the ``int16`` range the radix pass
  casts to;
* the seam: ``lexsort`` appears once in ``sim/fleet.py``, inside the
  repair, so a fourth multi-key sort cannot be pasted back;
* the precondition: a NaN time would be a tie ``==`` cannot see, so every
  entry point refuses cost columns that are not finite and non-negative
  before an engine is chosen.

Stable-sort dispatch (radix for 16-bit integers, timsort for floats) and
``lexsort`` stability are numpy properties, so CI runs this file by name
on every interpreter leg.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs.spans import SpanTracer
from repro.sim import fleet
from repro.sim.costparams import CostParameters
from repro.sim.fleet import (_time_order, simulate_closed_loop,
                             simulate_fleet)
from repro.sim.ledger import ClientOpTrace, OpTrace, OsdVisit


# -- (a) the property ---------------------------------------------------------

def _lexsort(times, rank, vrank, queue=None):
    keys = (vrank, rank, times) + (() if queue is None else (queue,))
    return np.lexsort(keys)


#: how the time column is drawn: ≤ 4 distinct values (most elements tie),
#: continuous (none tie), or each element from either
TIME_POOLS = {
    "ties": st.sampled_from([0.0, 1.0, 2.5, 1e9]),
    "continuous": st.floats(0.0, 1e6, allow_nan=False),
    "mixed": st.one_of(st.sampled_from([0.0, 7.0, 7.5]),
                       st.floats(0.0, 10.0, allow_nan=False)),
}
#: OSD id ranges: radix-able, past int16 on both sides, and straddling it
QUEUE_POOLS = {
    "small": st.integers(0, 3),
    "int16-edge": st.sampled_from([-2**15, -1, 0, 2**15 - 1]),
    "wide": st.sampled_from([-2**15 - 1, -5, 3, 2**15, 2**15 + 3, 2**40]),
    "negative": st.integers(-4, 1),
}


@st.composite
def columns(draw, with_queue):
    size = draw(st.integers(0, 200))

    def column(elements, dtype):
        return np.array(draw(st.lists(elements, min_size=size,
                                      max_size=size)), dtype=dtype)

    times = column(TIME_POOLS[draw(st.sampled_from(sorted(TIME_POOLS)))],
                   np.float64)
    # ranks and visit ranks from a handful of values: they tie as well,
    # so the order is stable down to input position
    rank = column(st.integers(0, 3), np.int64)
    vrank = column(st.integers(0, 3), np.int64)
    queue = None
    if with_queue:
        queue = column(
            QUEUE_POOLS[draw(st.sampled_from(sorted(QUEUE_POOLS)))], np.int64)
    return times, rank, vrank, queue


@settings(max_examples=300, deadline=None)
@given(columns(with_queue=False))
def test_time_order_is_lexsort_on_one_queue(cols):
    times, rank, vrank, _ = cols
    assert np.array_equal(_time_order(times, rank, vrank),
                          _lexsort(times, rank, vrank))


@settings(max_examples=300, deadline=None)
@given(columns(with_queue=True))
def test_time_order_is_lexsort_across_queues(cols):
    times, rank, vrank, queue = cols
    assert np.array_equal(_time_order(times, rank, vrank, queue),
                          _lexsort(times, rank, vrank, queue))


@pytest.mark.parametrize("size", [0, 1, 2, 57])
@pytest.mark.parametrize("queue_id", [None, 0, 5, -3, 2**15, 2**40])
def test_all_equal_single_and_empty_inputs_keep_input_order(size, queue_id):
    times = np.full(size, 3.25)
    same = np.zeros(size, dtype=np.int64)
    queue = None if queue_id is None else np.full(size, queue_id,
                                                  dtype=np.int64)
    order = _time_order(times, same, same, queue)
    assert order.dtype == np.intp
    assert np.array_equal(order, np.arange(size))
    # and with the ranks reversed the whole input is one run to repair
    rank = np.arange(size, dtype=np.int64)[::-1].copy()
    assert np.array_equal(_time_order(times, rank, same, queue),
                          _lexsort(times, rank, same, queue))


def test_int16_cast_does_not_wrap():
    # 2**16 + 1 wraps to 1 under a blind int16 cast and would sort between
    # queues 0 and 2; -2**15 - 1 would wrap to the top
    queue = np.array([2, 2**16 + 1, 0, -2**15 - 1, 1, 2**15], dtype=np.int64)
    times = np.zeros(queue.size)
    same = np.zeros(queue.size, dtype=np.int64)
    assert _time_order(times, same, same, queue).tolist() == [3, 2, 4, 0, 5, 1]


def test_inputs_are_not_written():
    rng = np.random.default_rng(5)
    times = rng.integers(0, 3, 64).astype(np.float64)
    rank, vrank, queue = (rng.integers(0, 3, 64) for _ in range(3))
    before = [a.copy() for a in (times, rank, vrank, queue)]
    _time_order(times, rank, vrank, queue)
    for kept, now in zip(before, (times, rank, vrank, queue)):
        assert np.array_equal(kept, now)


# -- (b) the seam -------------------------------------------------------------

def test_lexsort_survives_once_inside_the_repair():
    tree = ast.parse(Path(fleet.__file__).read_text())
    owners = [function.name
              for function in ast.walk(tree)
              if isinstance(function, ast.FunctionDef)
              for node in ast.walk(function)
              if isinstance(node, ast.Attribute) and node.attr == "lexsort"]
    everywhere = [node for node in ast.walk(tree)
                  if (isinstance(node, ast.Attribute)
                      and node.attr == "lexsort")
                  or (isinstance(node, ast.Name) and node.id == "lexsort")
                  or (isinstance(node, ast.alias) and node.name == "lexsort")]
    assert owners == ["_time_order"]
    assert len(everywhere) == 1


# -- (c) the precondition: garbage cost columns are refused by everyone -------

def _fleet(bad_field, bad_value):
    """3 clients x 4 two-visit writes, one cost of one op replaced."""
    def op(poisoned):
        visit = dict(service_us=9.0, latency_us=48.0, hop_us=30.0,
                     push_us=2.0)
        trace = dict(client_cpu_us=5.0, client_net_us=2.0, network_us=90.0)
        if poisoned:
            (visit if bad_field in visit else trace)[bad_field] = bad_value
        primary = dict(visit, hop_us=0.0, push_us=0.0)
        return ClientOpTrace(requests=1, traces=[OpTrace(
            kind="write", bytes_moved=4096,
            visits=[OsdVisit(osd_id=1, **primary),
                    OsdVisit(osd_id=2, **visit)], **trace)])

    streams = [[op(poisoned=(client, index) == (1, 2)) for index in range(4)]
               for client in range(3)]
    arrivals = [[10.0, 20.0, 30.0, 40.0] for _ in range(3)]
    return streams, arrivals


COST_FIELDS = {"client_cpu_us": "trace_cpu_us",
               "client_net_us": "trace_net_us",
               "network_us": "trace_rtt_us",
               "service_us": "visit_service_us",
               "latency_us": "visit_latency_us",
               "hop_us": "visit_hop_us",
               "push_us": "visit_push_us"}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -4.0])
@pytest.mark.parametrize("field", sorted(COST_FIELDS))
def test_every_entry_refuses_a_bad_cost_column_by_name(field, value):
    params = CostParameters(sim_mode="events", osd_count=4, replica_count=3)
    streams, arrivals = _fleet(field, value)
    entries = {
        "vectorized": lambda: simulate_fleet(params, streams, arrivals),
        "sharded": lambda: simulate_fleet(
            params.with_overrides(sim_shards=3), streams, arrivals),
        "index machine": lambda: simulate_fleet(
            params.with_overrides(osd_shards=2), streams, arrivals),
        "traced": lambda: simulate_fleet(params, streams, arrivals,
                                         tracer=SpanTracer()),
        "closed loop": lambda: simulate_closed_loop(params, streams, 2),
    }
    messages = set()
    for name, entry in entries.items():
        with pytest.raises(ConfigurationError,
                           match=COST_FIELDS[field]) as caught:
            entry()
        messages.add(str(caught.value))
    assert len(messages) == 1, messages


def test_zero_costs_are_still_replayable():
    params = CostParameters(sim_mode="events", osd_count=4, replica_count=3)
    for field in COST_FIELDS:
        streams, arrivals = _fleet(field, 0.0)
        assert simulate_fleet(params, streams, arrivals).requests == 12
