"""``repro.sim.fleet._time_order`` *is* ``np.lexsort``.

The vectorized fleet engine orders its queues with one single-key sort per
call site (numpy's default sort for the primaries, a stable one for the OSD
queues) and repairs the tied runs afterwards by issue order; the promise is
the exact permutation ``np.lexsort((position, op, issue[op], times[,
queue]))`` returns, whatever order the first pass left equal times in.
Pinned here:

* the property itself, over inputs that mostly tie, never tie and mix,
  with OSD ids inside and outside the ``int16`` range the radix pass
  casts to, and over adversarial first passes (ties shuffled, reversed):
  numpy picks its default ``argsort`` kernel by CPU (AVX-512, AVX2 or
  scalar) and by version, so this is what keeps the goldens independent
  of both;
* the tie keys are read for tied elements only;
* the seam: ``lexsort`` appears once in ``sim/fleet.py``, inside the
  repair, so a multi-key sort cannot be pasted back; and no parameter
  picks a sort kind;
* the precondition: a NaN time would be a tie ``==`` cannot see, so every
  entry point refuses cost columns that are not finite and non-negative
  before an engine is chosen.

Sort-kernel dispatch (radix for 16-bit integers, timsort for stable
floats, SIMD for the default sort) and ``lexsort`` stability are numpy
properties, so CI runs this file by name on every interpreter leg.
"""

from __future__ import annotations

import ast
import inspect
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

def _lexsort(times, op, issue, queue=None):
    """The reference: input position is the last key."""
    keys = (np.arange(times.size), op, issue[op], times)
    return np.lexsort(keys + (() if queue is None else (queue,)))


#: how the time column is drawn: ≤ 4 distinct values (most elements tie),
#: continuous (none tie), or each element from either
TIME_POOLS = {
    "ties": st.sampled_from([0.0, 1.0, 2.5, 1e9]),
    "continuous": st.floats(0.0, 1e6, allow_nan=False),
    "mixed": st.one_of(st.sampled_from([0.0, 7.0, 7.5]),
                       st.floats(0.0, 10.0, allow_nan=False)),
}
#: OSD ids: radix-able, past int16 on both sides, and straddling it
QUEUE_POOLS = {
    "small": st.integers(0, 3),
    "int16-edge": st.sampled_from([-2**15, -1, 0, 2**15 - 1]),
    "wide": st.sampled_from([-2**15 - 1, -5, 3, 2**15, 2**15 + 3, 2**40]),
    "negative": st.integers(-4, 1),
}
#: how the caller's first pass leaves equal times: numpy's default sort,
#: its stable sort, or adversarially shuffled or reversed
FIRST_PASSES = ("default", "stable", "shuffled", "reversed")


def _first_pass(times, how, seed=0):
    """A permutation sorting ``times``, equal times in the order ``how``."""
    if how in ("default", "stable"):
        return np.argsort(times, kind=None if how == "default" else how)
    position = np.arange(times.size)
    if how == "reversed":
        tie_break = -position
    else:
        tie_break = np.random.default_rng(seed).permutation(times.size)
    return np.lexsort((tie_break, times))


@st.composite
def columns(draw, with_queue):
    size = draw(st.integers(0, 200))

    def column(elements, dtype, length=size):
        return np.array(draw(st.lists(elements, min_size=length,
                                      max_size=length)), dtype=dtype)

    times = column(TIME_POOLS[draw(st.sampled_from(sorted(TIME_POOLS)))],
                   np.float64)
    # ops and issue times from a handful of values: they tie as well, so
    # the order is decided down to input position
    ops = draw(st.integers(1, 6))
    op = column(st.integers(0, ops - 1), np.int64)
    issue = column(st.sampled_from([0.0, 1.0, 3.0]), np.float64, ops)
    queue = None
    if with_queue:
        queue = column(
            QUEUE_POOLS[draw(st.sampled_from(sorted(QUEUE_POOLS)))], np.int64)
    how = draw(st.sampled_from(FIRST_PASSES))
    return times, op, issue, queue, how, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(columns(with_queue=False))
def test_time_order_is_lexsort_on_one_queue(cols):
    times, op, issue, _, how, seed = cols
    order = _first_pass(times, how, seed)
    assert np.array_equal(_time_order(order, times, op, issue),
                          _lexsort(times, op, issue))


@settings(max_examples=300, deadline=None)
@given(columns(with_queue=True))
def test_time_order_is_lexsort_across_queues(cols):
    times, op, issue, queue, how, seed = cols
    order = _first_pass(times, how, seed)
    assert np.array_equal(_time_order(order, times, op, issue, queue),
                          _lexsort(times, op, issue, queue))


@pytest.mark.parametrize("queue_id", [None, 0, 2**40])
def test_every_first_pass_repairs_to_the_same_permutation(queue_id):
    rng = np.random.default_rng(7)
    times = rng.integers(0, 4, 500).astype(np.float64)
    op = rng.integers(0, 40, 500)
    issue = rng.integers(0, 3, 40).astype(np.float64)
    queue = None if queue_id is None else np.where(
        rng.random(500) < 0.5, queue_id, 1)
    expected = _lexsort(times, op, issue, queue)
    for how in FIRST_PASSES:
        for seed in range(5):
            order = _first_pass(times, how, seed)
            assert np.array_equal(
                _time_order(order, times, op, issue, queue), expected), how


@pytest.mark.parametrize("size", [0, 1, 2, 57])
@pytest.mark.parametrize("queue_id", [None, 0, 5, -3, 2**15, 2**40])
def test_all_equal_single_and_empty_inputs_keep_input_order(size, queue_id):
    times = np.full(size, 3.25)
    same = np.zeros(size, dtype=np.int64)
    queue = None if queue_id is None else np.full(size, queue_id,
                                                  dtype=np.int64)
    order = _time_order(_first_pass(times, "reversed"), times, same,
                        np.zeros(1), queue)
    assert order.dtype == np.intp
    assert np.array_equal(order, np.arange(size))
    # and with the ops issued in reverse the whole input is one run to repair
    op = np.arange(size, dtype=np.int64)
    issue = -np.arange(size, dtype=np.float64)
    assert np.array_equal(
        _time_order(np.argsort(times), times, op, issue, queue),
        np.arange(size)[::-1])


def test_tie_keys_are_read_for_tied_elements_only():
    # no two times tie, so neither the ops nor their issue times are
    # looked at: out-of-range ops and an empty issue column are never read
    times = np.array([3.0, 1.0, 2.0, 0.5])
    queue = np.array([1, 1, 0, 0])
    op = np.full(4, 10**9)
    for column in (None, queue):
        order = _time_order(np.argsort(times), times, op, np.empty(0), column)
        assert np.array_equal(order, _lexsort(times, np.zeros(4, np.int64),
                                              np.zeros(1), column))


def test_int16_cast_does_not_wrap():
    # 2**16 + 1 wraps to 1 under a blind int16 cast and would sort between
    # queues 0 and 2; -2**15 - 1 would wrap to the top
    queue = np.array([2, 2**16 + 1, 0, -2**15 - 1, 1, 2**15], dtype=np.int64)
    times = np.zeros(queue.size)
    same = np.zeros(queue.size, dtype=np.int64)
    order = _time_order(np.argsort(times, kind="stable"), times, same,
                        np.zeros(1), queue)
    assert order.tolist() == [3, 2, 4, 0, 5, 1]


def test_only_the_first_pass_is_written():
    rng = np.random.default_rng(5)
    times = rng.integers(0, 3, 64).astype(np.float64)
    op, queue = rng.integers(0, 3, 64), rng.integers(0, 3, 64)
    issue = rng.integers(0, 3, 3).astype(np.float64)
    before = [a.copy() for a in (times, op, issue, queue)]
    _time_order(np.argsort(times), times, op, issue, queue)
    for kept, now in zip(before, (times, op, issue, queue)):
        assert np.array_equal(kept, now)


# -- (b) the seam -------------------------------------------------------------

FLEET_TREE = ast.parse(Path(fleet.__file__).read_text())


def test_lexsort_survives_once_inside_the_repair():
    owners = [function.name
              for function in ast.walk(FLEET_TREE)
              if isinstance(function, ast.FunctionDef)
              for node in ast.walk(function)
              if isinstance(node, ast.Attribute) and node.attr == "lexsort"]
    everywhere = [node for node in ast.walk(FLEET_TREE)
                  if (isinstance(node, ast.Attribute)
                      and node.attr == "lexsort")
                  or (isinstance(node, ast.Name) and node.id == "lexsort")
                  or (isinstance(node, ast.alias) and node.name == "lexsort")]
    assert owners == ["_time_order"]
    assert len(everywhere) == 1


def test_no_parameter_picks_a_sort():
    # each call site names its sort in the source: a sort kind is a
    # string literal or left to numpy, never a value passed in
    kinds = [keyword.value for node in ast.walk(FLEET_TREE)
             if isinstance(node, ast.Call) for keyword in node.keywords
             if keyword.arg == "kind"]
    assert kinds and all(isinstance(value, ast.Constant) for value in kinds)
    assert list(inspect.signature(_time_order).parameters) == [
        "order", "times", "op", "issue_us", "queue"]


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
