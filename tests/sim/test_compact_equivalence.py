"""Equivalence suite pinning the event engine's two replay paths.

* ``compact`` — flattened numpy trace columns replayed through the
  index-based event machine (:mod:`repro.sim.replay`), required to
  reproduce **bit for bit** what the legacy per-op closure scheduler
  computed on closed loops: the ``closed/`` lines of
  ``tests/golden/transcript.sha256`` are that scheduler's digests
  (``tests/tools/test_transcript.py`` checks them);
* ``vectorized`` — the open-loop numpy queue scans
  (:mod:`repro.sim.fleet`), required to match the index machine to
  floating-point noise on tie-free workloads.

These tests are the contract that lets the benchmarks run the fast
paths while the committed baselines stay comparable to the seed.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.sim.compact import encode_stream
from repro.sim.costparams import CostParameters
from repro.sim.fleet import (fleet_streams_from_template,
                             simulate_closed_loop, simulate_fleet)
from repro.sim.replay import ServiceQueue, replay_open_loop

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from sim_corpus import (mixed_streams as _mixed_streams,          # noqa: E402
                        read_op as _read, rmw_op as _rmw,
                        write_op as _write, zero_visit_op as _zero_visit)


def _params(**overrides) -> CostParameters:
    base = dict(sim_mode="events", osd_count=4, replica_count=3)
    base.update(overrides)
    return CostParameters(**base)


def _open_loop_streams(num_clients=4, ops_per_client=20):
    """Tie-free single-trace streams (eligible for the vectorized path)."""
    streams = []
    for client in range(num_clients):
        ops = []
        for i in range(ops_per_client):
            if i % 3 == 0:
                ops.append(_write(client, i, primary=(client + i) % 4,
                                  replicas=((client + i + 1) % 4,
                                            (client + i + 2) % 4)))
            elif i % 3 == 1:
                ops.append(_zero_visit(client))
            else:
                ops.append(_read(client, i, osd=(client + 2 * i) % 4))
        streams.append(ops)
    return streams


def _arrivals(streams, gap_us=70.0):
    """Sorted, tie-free per-client arrival schedules."""
    return [[(op + 1) * gap_us + 3.7 * client + 0.41 * op
             for op in range(len(stream))]
            for client, stream in enumerate(streams)]


class TestOpenLoopEquivalence:
    def test_vectorized_matches_index_machine(self):
        streams = _open_loop_streams()
        arrivals = _arrivals(streams)
        vectorized = simulate_fleet(_params(), streams, arrivals)
        indexed = replay_open_loop(
            _params(), [encode_stream(s) for s in streams], arrivals)
        assert vectorized.engine == "vectorized"
        assert indexed.engine == "compact"
        assert vectorized.elapsed_us == pytest.approx(indexed.elapsed_us,
                                                      abs=1e-9)
        assert vectorized.requests == indexed.requests
        assert vectorized.events_processed == indexed.events_processed
        assert vectorized.bounding_resource == indexed.bounding_resource
        for key, value in indexed.resource_us.items():
            assert vectorized.resource_us[key] == pytest.approx(value,
                                                                abs=1e-9)
        for key, value in indexed.queue_wait_us.items():
            assert vectorized.queue_wait_us[key] == pytest.approx(value,
                                                                  abs=1e-9)
        assert (sorted(vectorized.op_stats.sample)
                == pytest.approx(sorted(indexed.op_stats.sample), abs=1e-9))
        assert (sorted(vectorized.request_stats.sample)
                == pytest.approx(sorted(indexed.request_stats.sample),
                                 abs=1e-9))

    def test_serial_chains_fall_back_to_index_machine(self):
        streams = [[_rmw(0, i, primary=i % 4) for i in range(6)]]
        arrivals = _arrivals(streams)
        result = simulate_fleet(_params(), streams, arrivals)
        assert result.engine == "compact"
        assert result.requests == 6

    def test_arrival_validation(self):
        streams = _open_loop_streams(num_clients=1, ops_per_client=3)
        with pytest.raises(ConfigurationError):
            simulate_fleet(_params(), streams, [[1.0, 2.0]])
        with pytest.raises(ConfigurationError):
            simulate_fleet(_params(), streams, [[3.0, 2.0, 1.0]])
        with pytest.raises(ConfigurationError):
            simulate_fleet(_params(), streams, [[1.0, 2.0, 3.0], [4.0]])


class TestFleetSynthesis:
    def test_tiled_fleet_replays(self):
        template = encode_stream([_read(0, i, osd=i % 4) for i in range(5)])
        streams = fleet_streams_from_template(template, num_clients=8,
                                              ops_per_client=11, osd_count=4)
        assert len(streams) == 8
        assert all(s.num_ops == 11 for s in streams)
        arrivals = [[(i + 1) * 200.0 + 0.31 * c for i in range(11)]
                    for c in range(8)]
        result = simulate_fleet(_params(), streams, arrivals)
        assert result.engine == "vectorized"
        assert result.requests == 8 * 11
        assert result.op_stats.count == 8 * 11

    def test_rotation_requires_enough_osds(self):
        template = encode_stream([_read(0, 0, osd=2)])
        with pytest.raises(ConfigurationError):
            fleet_streams_from_template(template, num_clients=2,
                                        ops_per_client=2, osd_count=2)


class TestServiceQueueMonotonicity:
    """Satellite S1: out-of-order submission is a hard error."""

    def test_rejects_out_of_order_arrivals(self):
        queue = ServiceQueue("osd.0")
        queue.submit(10.0, 5.0)
        with pytest.raises(ConfigurationError, match="non-decreasing"):
            queue.submit(9.999, 5.0)
        # Equal arrival times remain fine (ties broken by submission order).
        job = queue.submit(10.0, 5.0)
        assert job.start_us == 15.0


class TestSaturationThreshold:
    """Satellite S2: the 0.8 label cutoff is a named, validated knob."""

    def test_threshold_bounds_are_validated(self):
        with pytest.raises(ConfigurationError):
            CostParameters(saturation_threshold=0.0)
        with pytest.raises(ConfigurationError):
            CostParameters(saturation_threshold=1.5)

    def test_threshold_decides_bounding_label(self):
        streams = _mixed_streams(num_clients=2, ops_per_client=10)
        strict = simulate_closed_loop(
            _params(saturation_threshold=1.0), streams, 8)
        assert strict.bounding_resource == "latency(qd)"
        lax = simulate_closed_loop(
            _params(saturation_threshold=1e-9), streams, 8)
        assert lax.bounding_resource in strict.resource_us

    def test_threshold_decides_open_loop_label(self):
        streams = _open_loop_streams(num_clients=2, ops_per_client=8)
        arrivals = _arrivals(streams, gap_us=5000.0)
        result = simulate_fleet(
            _params(saturation_threshold=1.0), streams, arrivals)
        assert result.bounding_resource == "arrival(open-loop)"
        lax = simulate_fleet(
            _params(saturation_threshold=1e-9), streams, arrivals)
        assert lax.bounding_resource in result.resource_us
