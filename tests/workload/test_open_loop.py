"""Open-loop arrival processes and their wiring through the runners.

The fleet-scale PR adds a second issue discipline next to fio's closed
loop: operations arrive on their own schedule (Poisson or trace-driven)
regardless of completions.  These tests pin the arrival processes'
determinism and the runner integration (single-client, multi-client,
template capture for synthetic fleets).
"""

import pytest

from repro.api import create_encrypted_image, make_cluster
from repro.errors import WorkloadError
from repro.sim.costparams import default_cost_parameters
from repro.util import KIB, MIB
from repro.workload.arrival import (PoissonArrivals, TraceArrivals,
                                    arrival_process_for, arrival_schedule)
from repro.workload.runner import WorkloadRunner, capture_template_stream
from repro.workload.spec import WorkloadSpec


def _cluster(sim_mode="events"):
    params = default_cost_parameters()
    params.sim_mode = sim_mode
    return make_cluster(params=params)


def _image(cluster, name="open-loop", size=16 * MIB):
    image, _info = create_encrypted_image(
        cluster, name, size, passphrase=b"test",
        cipher_suite="blake2-xts-sim", object_size=1 * MIB,
        random_seed=name.encode())
    return image


def _spec(**overrides):
    defaults = dict(rw="randwrite", io_size=16 * KIB, queue_depth=4,
                    io_count=24, arrival_rate=2000.0)
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestArrivalProcesses:
    def test_poisson_is_deterministic_per_client(self):
        process = PoissonArrivals(rate_per_client=500.0, seed=7)
        first = process.timestamps_us(3, 100)
        again = process.timestamps_us(3, 100)
        assert list(first) == list(again)
        other = process.timestamps_us(4, 100)
        assert list(first) != list(other)

    def test_poisson_schedule_is_sorted_and_rate_scaled(self):
        process = PoissonArrivals(rate_per_client=1000.0, seed=1)
        stamps = list(process.timestamps_us(0, 2000))
        assert stamps == sorted(stamps)
        mean_gap = stamps[-1] / len(stamps)
        assert mean_gap == pytest.approx(1000.0, rel=0.1)   # 1e6 / rate

    def test_trace_arrivals_replay_the_template(self):
        process = TraceArrivals(template_us=[10.0, 20.0, 35.0])
        assert list(process.timestamps_us(0, 3)) == [10.0, 20.0, 35.0]
        assert list(process.timestamps_us(9, 2)) == [10.0, 20.0]

    def test_arrival_schedule_sizes_per_client(self):
        process = PoissonArrivals(rate_per_client=100.0, seed=2)
        schedule = arrival_schedule(process, [5, 0, 3])
        assert [len(stamps) for stamps in schedule] == [5, 0, 3]

    def test_arrival_process_for_requires_open_loop(self):
        with pytest.raises(WorkloadError):
            arrival_process_for(_spec(arrival_rate=None))


class TestSpecValidation:
    def test_open_loop_requires_rate(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(arrival_rate=-5.0)
        assert "open-loop" in _spec().describe()
        assert "open-loop" not in _spec(arrival_rate=None).describe()


class TestRunnerIntegration:
    def test_open_loop_requires_event_mode(self):
        cluster = _cluster(sim_mode="analytic")
        image = _image(cluster)
        with pytest.raises(WorkloadError, match="open-loop"):
            WorkloadRunner(cluster).run(image, _spec())

    def test_single_client_open_loop_run(self):
        cluster = _cluster()
        image = _image(cluster)
        result = WorkloadRunner(cluster).run(image, _spec())
        assert result.bandwidth_mbps > 0
        assert len(result.latencies_us) == 24

    def test_slow_arrivals_are_arrival_bound(self):
        cluster = _cluster()
        image = _image(cluster)
        result = WorkloadRunner(cluster).run(
            image, _spec(arrival_rate=50.0, io_count=16))
        assert result.estimate.bounding_resource == "arrival(open-loop)"

    def test_multi_client_open_loop_run(self):
        cluster = _cluster()
        images = [_image(cluster, f"ol-{i}") for i in range(2)]
        spec = _spec(num_clients=2)
        result = WorkloadRunner(cluster).run_streams(images, spec)
        assert result.num_clients == 2
        assert len(result.per_client_latencies_us) == 2
        assert result.bandwidth_mbps > 0

    def test_open_loop_runs_are_reproducible(self):
        results = []
        for _ in range(2):
            cluster = _cluster()
            image = _image(cluster)
            results.append(WorkloadRunner(cluster).run(image, _spec()))
        assert (results[0].estimate.mean_latency_us
                == results[1].estimate.mean_latency_us)
        assert results[0].latencies_us == results[1].latencies_us


class TestTemplateCapture:
    def test_capture_returns_sealed_traces(self):
        cluster = _cluster()
        image = _image(cluster, "template")
        spec = WorkloadSpec(rw="randwrite", io_size=16 * KIB, queue_depth=1,
                            io_count=8)
        traces = capture_template_stream(cluster, image, spec)
        assert len(traces) == 8
        assert all(op.traces for op in traces)
        # Capture turns tracing back off and leaves no dangling traces.
        assert not cluster.ledger.trace_ops
        assert not cluster.ledger.client_ops
