"""The vectorized fleet engine batches *across* clients: contracts.

``repro.sim.fleet._vectorized_open_loop`` runs the private client stations
of a whole fleet as one matrix per distinct row width and builds every
per-client reservoir from fleet-wide columns.  Four things keep that
honest, each pinned here:

* the Python cost of a replay does not grow with the client count beyond
  a handful of attribute reads (a deterministic call-count guard — wall
  clock is never asserted);
* a client that shares no queue with anyone gets, bit for bit, the
  reservoir it gets when replayed alone (a one-row matrix *is* the
  vector scan, so this catches padding, segment subtraction and wrong
  width groups);
* ``LatencyReservoir.from_segments`` equals a fresh ``extend`` per
  segment, including the next RNG draw and the segment sums it takes one
  matrix per distinct width for;
* ragged tie-free fleets still match the index machine.

Plus the input checks ``simulate_fleet`` makes before choosing an engine
and the stream sharing of ``fleet_streams_from_template``.
"""

from __future__ import annotations

import cProfile
import pstats

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs.spans import SpanTracer
from repro.sim.compact import encode_stream, encode_streams
from repro.sim.costparams import CostParameters
from repro.sim.fleet import (fleet_streams_from_template,
                             simulate_closed_loop, simulate_fleet)
from repro.sim.ledger import ClientOpTrace, OpTrace, OsdVisit
from repro.sim.replay import replay_open_loop
from repro.sim.reservoir import CLIENT_RESERVOIR_CAPACITY, LatencyReservoir


def _params(**overrides) -> CostParameters:
    base = dict(sim_mode="events", osd_count=8, replica_count=3)
    base.update(overrides)
    return CostParameters(**base)


def _op(client, index, osds, requests=1, kind="write", scale=1.0):
    """One single-trace op visiting ``osds`` (first is the primary); costs
    depend on (client, index) so event times never tie, and ``scale``
    stretches the client-side service times."""
    jitter = 0.13 * index + 1.7 * client
    visits = [OsdVisit(osd_id=osd, service_us=9.0 + jitter + rank,
                       latency_us=41.0 + jitter,
                       hop_us=45.0 if rank else 0.0,
                       push_us=1.0 + 0.05 * index if rank else 0.0)
              for rank, osd in enumerate(osds)]
    return ClientOpTrace(client=client, requests=requests, traces=[OpTrace(
        kind=kind, client_cpu_us=(5.0 + 0.07 * index) * scale,
        client_net_us=(2.0 + 0.03 * index) * scale,
        network_us=90.0, visits=visits, bytes_moved=4096)])


def _zero_cost(client, requests=1):
    return ClientOpTrace(client=client, requests=requests, traces=[])


def _reservoir_fields(stats):
    return (stats.capacity, stats.count, stats.sum_us, stats.min_us,
            stats.max_us, stats._sample)


# ---------------------------------------------------------------------------
# (a) the replay's Python cost does not scale with the client count
# ---------------------------------------------------------------------------

class TestCallCountScaling:
    @staticmethod
    def _calls(num_clients):
        template = encode_stream(
            [_op(0, i, [i % 8, (i + 1) % 8, (i + 2) % 8]) for i in range(5)])
        streams = fleet_streams_from_template(template, num_clients, 20,
                                              osd_count=8)
        arrivals = [np.arange(1, 21) * 200.0 + 0.31 * c
                    for c in range(num_clients)]
        simulate_fleet(_params(), streams, arrivals)       # warm-up
        profile = cProfile.Profile()
        profile.enable()
        result = simulate_fleet(_params(), streams, arrivals)
        profile.disable()
        assert result.engine == "vectorized"
        stats = pstats.Stats(profile).stats
        every = sum(entry[1] for entry in stats.values())
        numpy_calls = sum(entry[1] for key, entry in stats.items()
                          if "numpy" in key[0] or "numpy" in key[2])
        return every, numpy_calls

    def test_calls_per_added_client_stay_flat(self):
        few_all, few_numpy = self._calls(100)
        many_all, many_numpy = self._calls(900)
        # The per-client loop this replaced read 119 and 181 here; what is
        # left per client is one conversion of its arrival times, one
        # reservoir and one identity look-up: 1 and 9 (2 and 16 with one
        # segment sum per client and an identity pass per check).
        assert (many_numpy - few_numpy) / 800 <= 1.5
        assert (many_all - few_all) / 800 <= 12


# ---------------------------------------------------------------------------
# (b) client independence, bit for bit
# ---------------------------------------------------------------------------

def _isolated_client(client, real_ops, padding, scale=1.0):
    """A client on its own OSD and off the replica network: ``real_ops``
    single-visit or zero-visit ops, with ``padding`` zero-cost ops mixed
    in.  Nothing it queues on is shared, so its latencies cannot depend
    on who else is in the fleet."""
    ops = []
    for index in range(real_ops):
        if index % 5 == 3:          # served without touching an OSD
            ops.append(_op(client, index, [], requests=1 + index % 3,
                           kind="read", scale=scale))
        else:
            ops.append(_op(client, index, [client], kind="read",
                           requests=1 + (index % 4 == 1), scale=scale))
        if index < padding:
            ops.append(_zero_cost(client, requests=2))
    ops.extend(_zero_cost(client) for _ in range(padding - real_ops))
    return ops


class TestClientIndependence:
    # (real ops, zero-cost ops): the matrix widths are the first column.
    SHAPES = [(0, 3), (1, 0), (2, 1), (49, 0), (50, 4), (50, 0), (130, 2),
              (0, 0), (1, 1)]
    #: the busiest client is a 50-wide one, not the widest: stretched by
    #: 4.3 its CPU and NIC service times are two rows whose ``sum()``
    #: changes in the last bit when zero-padded to 130 columns
    BUSIEST, STRETCH = 4, 4.3

    def _fleet(self, gap_us):
        streams = [_isolated_client(
            c, real, padding, self.STRETCH if c == self.BUSIEST else 1.0)
            for c, (real, padding) in enumerate(self.SHAPES)]
        # gaps shorter than a service time: the Lindley scans really queue
        arrivals = [[(i + 1) * gap_us + 3.7 * c for i in range(len(stream))]
                    for c, stream in enumerate(streams)]
        return streams, arrivals

    @pytest.mark.parametrize("gap_us", [4.0, 70.0])
    def test_fleet_reservoirs_equal_solo_reservoirs(self, gap_us):
        streams, arrivals = self._fleet(gap_us)
        params = _params(osd_count=len(streams))
        fleet = simulate_fleet(params, streams, arrivals)
        assert fleet.engine == "vectorized"
        for client, (stream, schedule) in enumerate(zip(streams, arrivals)):
            together = fleet.client_request_stats[client]
            if not stream:
                assert _reservoir_fields(together) == _reservoir_fields(
                    LatencyReservoir(capacity=CLIENT_RESERVOIR_CAPACITY))
                continue
            solo = simulate_fleet(params, [stream], [schedule])
            assert solo.engine == "vectorized"
            assert (_reservoir_fields(together)
                    == _reservoir_fields(solo.client_request_stats[0])), client

    def test_busiest_client_sets_the_client_resources(self):
        streams, arrivals = self._fleet(70.0)
        params = _params(osd_count=len(streams))
        fleet = simulate_fleet(params, streams, arrivals)
        solo = simulate_fleet(params, [streams[self.BUSIEST]],
                              [arrivals[self.BUSIEST]])
        row = np.zeros(130)
        for name, column in (("client.cpu", "trace_cpu_us"),
                             ("client.net", "trace_net_us")):
            assert fleet.resource_us[name] == solo.resource_us[name]
            row[:50] = getattr(encode_stream(streams[self.BUSIEST]), column)
            assert row.sum() != solo.resource_us[name]  # padding would show


# ---------------------------------------------------------------------------
# (c) the batch reservoir constructor
# ---------------------------------------------------------------------------

class TestFromSegments:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           capacity=st.sampled_from([1, 7, 64, CLIENT_RESERVOIR_CAPACITY]))
    def test_equals_one_extend_per_segment(self, seed, capacity):
        rng = np.random.default_rng(seed)
        # segment sizes chosen so populations land below, at and above
        # the capacity (weights 1..5 put the mean population at 3x size)
        sizes = rng.choice([0, 1, 2, max(1, capacity // 3), capacity,
                            capacity + 1, 2 * capacity + 3],
                           size=int(rng.integers(1, 12)))
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        values = rng.exponential(120.0, size=int(offsets[-1]))
        weights = rng.integers(1, 6, size=values.size)
        for i in np.flatnonzero(sizes == capacity)[::2]:
            weights[offsets[i]:offsets[i + 1]] = 1      # exactly at capacity

        batch = LatencyReservoir.from_segments(values, weights, offsets,
                                               capacity=capacity)
        assert len(batch) == len(sizes)
        for i, built in enumerate(batch):
            lo, hi = offsets[i], offsets[i + 1]
            fresh = LatencyReservoir(capacity=capacity)
            fresh.extend(values[lo:hi], weights=weights[lo:hi])
            assert _reservoir_fields(built) == _reservoir_fields(fresh)
            # ... and in what they do next: same RNG stream from here on
            for stats in (built, fresh):
                stats.record(3.25, weight=2)
                stats.extend(values[:5] + 1.0)
            assert _reservoir_fields(built) == _reservoir_fields(fresh)

    def test_default_capacity_is_the_client_capacity(self):
        (stats,) = LatencyReservoir.from_segments([1.0, 2.0], [1, 3], [0, 2])
        assert stats.capacity == CLIENT_RESERVOIR_CAPACITY
        assert (stats.count, stats.sum_us, stats.min_us, stats.max_us) == (
            4, 7.0, 1.0, 2.0)
        assert stats.sample == [1.0, 2.0, 2.0, 2.0]

    def test_weighted_sums_are_pairwise_not_blas(self):
        """``sum_us`` adds value x weight in numpy's own pairwise order.
        A BLAS dot product groups the additions by the CPU's kernel (this
        seed's sum moved in the last bit under OpenBLAS on Haswell)."""
        rng = np.random.default_rng(3)
        values = rng.exponential(120.0, size=50)
        weights = rng.integers(1, 6, size=values.size)
        fresh = LatencyReservoir()
        fresh.extend(values, weights=weights)
        (built,) = LatencyReservoir.from_segments(values, weights,
                                                  [0, values.size])
        assert fresh.sum_us == built.sum_us == float(
            np.add.reduce(values * weights))

    def test_width_groups_sum_like_one_extend_per_segment(self):
        """Segment sums come from one matrix per distinct width: 1,000
        segments in five widths, each sum equal to its own ``extend``."""
        rng = np.random.default_rng(11)
        sizes = rng.choice([1, 3, 50, 129, 1024], size=1000)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        values = rng.exponential(120.0, size=int(offsets[-1]))
        weights = np.ones(values.size, dtype=np.int64)
        weights[rng.random(values.size) < 0.3] = 2
        batch = LatencyReservoir.from_segments(values, weights, offsets,
                                               capacity=2048)
        for i, built in enumerate(batch):
            fresh = LatencyReservoir(capacity=2048)
            lo, hi = offsets[i], offsets[i + 1]
            fresh.extend(values[lo:hi], weights=weights[lo:hi])
            assert built.sum_us == fresh.sum_us, i

    @pytest.mark.parametrize("values,weights,offsets,message", [
        ([1.0, 2.0], [1, 0], [0, 2], "positive"),
        ([1.0, 2.0], [1], [0, 2], "shape"),
        ([1.0, 2.0], [1, 1], [0, 3], "offsets"),       # past the end
        ([1.0, 2.0], [1, 1], [0, 1], "offsets"),       # short of the end
        ([1.0, 2.0], [1, 1], [1, 2], "offsets"),       # not from 0
        ([1.0, 2.0], [1, 1], [0, 2, 1, 2], "offsets"),  # decreasing
        ([1.0, 2.0], [1, 1], [], "offsets"),
    ])
    def test_rejects_what_extend_rejects(self, values, weights, offsets,
                                         message):
        # out-of-range and decreasing offsets escaped as a bare IndexError
        with pytest.raises(ConfigurationError, match=message):
            LatencyReservoir.from_segments(values, weights, offsets)

    def test_rng_is_built_on_first_draw(self):
        stats = LatencyReservoir(capacity=4)
        stats.extend(np.arange(4.0))
        assert stats._rng is None           # fits: never drew
        stats.record(9.0)
        assert stats._rng is not None


# ---------------------------------------------------------------------------
# (d) ragged tie-free fleets: vectorized vs the index machine
# ---------------------------------------------------------------------------

def _ragged_streams(op_counts, osds=4):
    streams = []
    for client, count in enumerate(op_counts):
        ops = []
        for i in range(count):
            if i % 4 == 0:
                ops.append(_op(client, i, [(client + i + k) % osds
                                           for k in range(3)]))
            elif i % 4 == 1:
                ops.append(_op(client, i, [], kind="read"))
            elif i % 4 == 2:
                ops.append(_op(client, i, [(client + 2 * i) % osds],
                               requests=2, kind="read"))
            else:
                ops.append(_op(client, i, [(client + i) % osds,
                                           (client + i + 1) % osds]))
        streams.append(ops)
    return streams


class TestRaggedEquivalence:
    @pytest.mark.parametrize("op_counts", [
        (20, 0, 7, 1, 33, 20), (1,), (0, 0, 5), (12, 12, 12, 11)])
    @pytest.mark.parametrize("gap_us", [70.0, 9.0])
    def test_vectorized_matches_index_machine(self, op_counts, gap_us):
        streams = _ragged_streams(op_counts)
        arrivals = [[(op + 1) * gap_us + 3.7 * client + 0.41 * op
                     for op in range(len(stream))]
                    for client, stream in enumerate(streams)]
        params = _params(osd_count=4)
        vectorized = simulate_fleet(params, streams, arrivals)
        indexed = replay_open_loop(
            params, [encode_stream(s) for s in streams], arrivals)
        assert vectorized.engine == "vectorized"
        assert indexed.engine == "compact"
        assert vectorized.requests == indexed.requests
        assert vectorized.events_processed == indexed.events_processed
        assert vectorized.bounding_resource == indexed.bounding_resource
        assert vectorized.elapsed_us == pytest.approx(indexed.elapsed_us,
                                                      abs=1e-9)
        assert vectorized.resource_us.keys() == indexed.resource_us.keys()
        for key, value in indexed.resource_us.items():
            assert vectorized.resource_us[key] == pytest.approx(value,
                                                                abs=1e-9)
        assert (vectorized.queue_wait_us.keys()
                == indexed.queue_wait_us.keys())
        for key, value in indexed.queue_wait_us.items():
            assert vectorized.queue_wait_us[key] == pytest.approx(value,
                                                                  abs=1e-9)
        assert (sorted(vectorized.op_stats.sample)
                == pytest.approx(sorted(indexed.op_stats.sample), abs=1e-9))
        for ours, theirs in zip(vectorized.client_request_stats,
                                indexed.client_request_stats):
            assert ours.count == theirs.count
            assert sorted(ours.sample) == pytest.approx(
                sorted(theirs.sample), abs=1e-9)


# ---------------------------------------------------------------------------
# input checks shared by every engine
# ---------------------------------------------------------------------------

class TestInputChecks:
    THREE = [_op(0, i, [1], kind="read") for i in range(3)]

    # each of these returned garbage or leaked a bare ValueError; the
    # message is repro's own, whatever numpy's conversion error reads
    BAD_ARRIVALS = {
        "nan": ([1.0, float("nan"), 3.0], "finite"),
        "inf": ([1.0, 2.0, float("inf")], "finite"),
        "2d": (np.array([[1.0], [2.0], [3.0]]), "flat numeric"),
        "strings": (["a", "b", "c"], "^client 0: arrival timestamps must "
                    "be one flat numeric sequence$"),
        "scalar": (7.0, "^client 0: arrival timestamps must be one flat "
                   "numeric sequence$"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_ARRIVALS))
    @pytest.mark.parametrize("engine", ["vectorized", "indexed", "traced"])
    def test_bad_arrivals_are_configuration_errors(self, case, engine):
        arrivals, message = self.BAD_ARRIVALS[case]
        params = _params(osd_shards=2 if engine == "indexed" else 1)
        tracer = SpanTracer() if engine == "traced" else None
        with pytest.raises(ConfigurationError, match=message):
            simulate_fleet(params, [self.THREE], [arrivals], tracer=tracer)

    def test_each_client_is_converted_on_its_own(self):
        # numpy promotes no timedelta64 with float64, so one conversion of
        # the whole fleet cannot accept what each client's own can
        ticks = np.array([1, 2, 3], dtype="m8[us]")
        mixed = simulate_fleet(_params(), [self.THREE, self.THREE],
                               [ticks, [4.0, 5.0, 6.0]])
        plain = simulate_fleet(_params(), [self.THREE, self.THREE],
                               [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert mixed.elapsed_us == plain.elapsed_us
        assert mixed.op_stats.sample == plain.op_stats.sample

    @pytest.mark.parametrize("requests", [0, -1])
    @pytest.mark.parametrize("engine", ["vectorized", "indexed", "traced"])
    def test_non_positive_requests_are_rejected_up_front(self, requests,
                                                         engine):
        stream = [self.THREE[0], _op(0, 1, [1], requests=requests),
                  self.THREE[2]]
        params = _params(osd_shards=2 if engine == "indexed" else 1)
        tracer = SpanTracer() if engine == "traced" else None
        with pytest.raises(ConfigurationError, match="requests"):
            simulate_fleet(params, [stream], [[1.0, 2.0, 3.0]],
                           tracer=tracer)

    @pytest.mark.parametrize("requests", [0, -1])
    def test_the_closed_loop_rejects_them_the_same_way(self, requests):
        # it ran the replay and died with ZeroDivisionError
        stream = [self.THREE[0], _op(0, 1, [1], requests=requests)]
        with pytest.raises(ConfigurationError, match="requests"):
            simulate_closed_loop(_params(), [stream], queue_depth=2)

    def test_messages_of_the_old_checks_are_kept(self):
        two = [self.THREE, self.THREE]
        with pytest.raises(ConfigurationError,
                           match="client 1: 2 arrival timestamps for 3 "
                                 "operations"):
            simulate_fleet(_params(), two, [[1.0, 2.0, 3.0], [1.0, 2.0]])
        with pytest.raises(ConfigurationError, match="sorted per client"):
            simulate_fleet(_params(), two, [[1.0, 2.0, 3.0], [1.0, 3.0, 2.0]])
        with pytest.raises(ConfigurationError,
                           match="1 arrival arrays for 2 clients"):
            simulate_fleet(_params(), two, [[1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("arrivals", [None, 7.0, iter([[1.0, 2.0, 3.0]])])
    def test_arrivals_without_a_length_are_a_typed_error(self, arrivals):
        # None died with a bare TypeError from len()
        with pytest.raises(ConfigurationError,
                           match="one sequence per client"):
            simulate_fleet(_params(), [self.THREE], arrivals)

    def test_a_step_back_between_clients_is_not_unsorted(self):
        # client 1 starts before client 0 ends; empty clients sit on the
        # boundaries at both ends and in the middle
        streams = [[], self.THREE, [], self.THREE, []]
        arrivals = [[], [50.0, 60.0, 70.0], [], [1.0, 2.0, 3.0], []]
        result = simulate_fleet(_params(), streams, arrivals)
        assert result.requests == 6
        assert [s.count for s in result.client_request_stats] == [0, 3, 0,
                                                                  3, 0]
        with pytest.raises(ConfigurationError, match="sorted per client"):
            simulate_fleet(_params(), streams,
                           [[], [50.0, 60.0, 70.0], [], [1.0, 3.0, 2.0], []])


# ---------------------------------------------------------------------------
# op lists both entries refuse, in the one encoder they share
# ---------------------------------------------------------------------------

def _arrivals_for(streams):
    """One arrival per op of every op list (none for anything else)."""
    return [[float(op + 1) for op in range(len(ops))]
            if isinstance(ops, list) else [] for ops in streams or [[]]]


def _entries():
    """Both replay entries, as ``run(streams)``."""
    return {
        "closed": lambda streams: simulate_closed_loop(_params(), streams, 1),
        "fleet": lambda streams: simulate_fleet(_params(), streams,
                                                _arrivals_for(streams)),
    }


@pytest.mark.parametrize("entry", ["closed", "fleet"])
class TestStreamChecks:
    THREE = [_op(0, i, [1, 2], kind="read") for i in range(3)]

    def test_streams_that_are_no_sequence_are_a_typed_error(self, entry):
        # a bare TypeError from iterating None
        run = _entries()[entry]
        with pytest.raises(ConfigurationError,
                           match="one op sequence per client"):
            run(None)
        with pytest.raises(ConfigurationError, match="^client 1: ops must"):
            run([self.THREE, 7])

    @pytest.mark.parametrize("bad", ["read", None, THREE[0].traces[0]],
                             ids=["str", "None", "OpTrace"])
    def test_an_op_that_is_no_client_op_trace_names_its_client(self, entry,
                                                               bad):
        # a bare AttributeError from the encoder
        with pytest.raises(ConfigurationError,
                           match="^client 1: op 2 is a .*, not a "
                                 "ClientOpTrace$"):
            _entries()[entry]([self.THREE, self.THREE[:2] + [bad]])

    @pytest.mark.parametrize("requests", [2.5, True, "2", np.float64(2.0)])
    def test_a_request_count_that_is_no_integer_is_refused(self, entry,
                                                           requests):
        # 2.5 replayed as 2 requests, True as 1
        bad = _op(0, 1, [1], requests=requests)
        with pytest.raises(ConfigurationError,
                           match="^client 0: op 1 has a request count"):
            _entries()[entry]([[self.THREE[0], bad, self.THREE[2]]])

    @pytest.mark.parametrize("osd", [1.7, -1, True, "1"])
    def test_an_osd_id_that_is_no_non_negative_integer_is_refused(self, entry,
                                                                  osd):
        # 1.7 was queued on osd.1, -1 on a queue named osd.-1
        bad = _op(0, 2, [1, osd])
        with pytest.raises(ConfigurationError,
                           match="^client 2: op 0 visits OSD .*non-negative "
                                 "integers$"):
            _entries()[entry]([self.THREE, self.THREE, [bad]])

    def test_integer_kinds_of_either_library_replay_alike(self, entry):
        plain = _entries()[entry]([[_op(0, 0, [3, 1], requests=2)]])
        numpy = _entries()[entry]([[_op(0, 0, [np.int64(3), np.int32(1)],
                                        requests=np.int64(2))]])
        assert plain.elapsed_us == numpy.elapsed_us
        assert plain.request_stats.sample == numpy.request_stats.sample


def test_encoded_streams_pass_through_untouched():
    encoded = encode_stream(TestStreamChecks.THREE)
    assert encode_streams([encoded, encoded]) == [encoded, encoded]
    assert all(out is encoded for out in encode_streams([encoded, encoded]))


# ---------------------------------------------------------------------------
# fleet synthesis shares streams
# ---------------------------------------------------------------------------

class TestFleetSynthesisSharing:
    TEMPLATE = encode_stream([_op(0, i, [i % 4, (i + 1) % 4]) for i in range(5)])

    @pytest.mark.parametrize("num_clients,osd_count", [(3, 6), (6, 6),
                                                       (20, 6)])
    def test_one_stream_object_per_distinct_rotation(self, num_clients,
                                                     osd_count):
        streams = fleet_streams_from_template(self.TEMPLATE, num_clients, 11,
                                              osd_count=osd_count)
        assert len(streams) == num_clients
        assert (len({id(s) for s in streams})
                == min(num_clients, osd_count))
        base = streams[0].visit_osd
        for client, stream in enumerate(streams):
            assert np.array_equal(stream.visit_osd,
                                  (base + client % osd_count) % osd_count)
            assert stream.trace_cpu_us is streams[0].trace_cpu_us

    # True used to build one client (or one op) without a word
    @pytest.mark.parametrize("args", [(2.5, 3), (3, 2.5), (0, 3), (3, 0),
                                      ("3", 3), (True, 3), (3, True)])
    def test_counts_must_be_positive_integers(self, args):
        with pytest.raises(ConfigurationError, match="positive integer"):
            fleet_streams_from_template(self.TEMPLATE, *args)
        for osd_count in (4.5, True):
            with pytest.raises(ConfigurationError, match="positive integer"):
                fleet_streams_from_template(self.TEMPLATE, 3, 3,
                                            osd_count=osd_count)

    @pytest.mark.parametrize("template", [[], encode_stream([])],
                             ids=["op-list", "encoded"])
    def test_an_empty_template_is_a_typed_error(self, template):
        with pytest.raises(ConfigurationError, match="empty stream"):
            fleet_streams_from_template(template, 10, 10)
