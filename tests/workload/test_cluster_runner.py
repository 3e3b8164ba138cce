"""Tests for multi-client runs: ``WorkloadRunner.run_streams``."""

import pytest

from repro.api import create_encrypted_image, make_cluster
from repro.cache import CacheConfig
from repro.errors import WorkloadError
from repro.sim.costparams import default_cost_parameters
from repro.util import KIB, MIB
from repro.workload.runner import WorkloadResult, WorkloadRunner
from repro.workload.spec import WorkloadSpec


def _cluster(sim_mode="events"):
    params = default_cost_parameters()
    params.sim_mode = sim_mode
    return make_cluster(params=params)


def _images(cluster, count, size=16 * MIB):
    images = []
    for index in range(count):
        image, _info = create_encrypted_image(
            cluster, f"multi-{index}", size, passphrase=b"test",
            cipher_suite="blake2-xts-sim", object_size=1 * MIB,
            random_seed=f"seed-{index}".encode())
        images.append(image)
    return images


def _spec(**overrides):
    defaults = dict(rw="randwrite", io_size=16 * KIB, queue_depth=4,
                    io_count=24, num_clients=2)
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestSpecValidation:
    def test_num_clients_must_be_positive(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(num_clients=0)

    def test_for_client_derives_distinct_seeds(self):
        spec = _spec()
        first, second = spec.for_client(0), spec.for_client(1)
        assert first.seed != second.seed
        assert first.num_clients == second.num_clients == 1
        assert first.io_size == spec.io_size
        assert "clients=2" in spec.describe()


class TestClusterRunner:
    def test_rejects_image_count_mismatch(self):
        cluster = _cluster()
        images = _images(cluster, 1)
        with pytest.raises(WorkloadError):
            WorkloadRunner(cluster).run_streams(images, _spec(num_clients=2))

    def test_two_clients_move_all_bytes(self):
        cluster = _cluster()
        images = _images(cluster, 2)
        result = WorkloadRunner(cluster).run_streams(images, _spec())
        assert isinstance(result, WorkloadResult)
        assert result.num_clients == 2
        assert result.estimate.total_bytes == 2 * 24 * 16 * KIB
        assert len(result.latencies_us) == 2 * 24
        assert [len(l) for l in result.per_client_latencies_us] == [24, 24]
        assert result.percentile("p99") >= result.percentile("p50") > 0
        assert "x2" in result.render()

    def test_contention_raises_tail_latency(self):
        solo_cluster = _cluster()
        solo = WorkloadRunner(solo_cluster).run_streams(
            _images(solo_cluster, 1), _spec(num_clients=1, io_count=48))
        busy_cluster = _cluster()
        busy = WorkloadRunner(busy_cluster).run_streams(
            _images(busy_cluster, 4), _spec(num_clients=4, io_count=48))
        assert busy.percentile("p99") > solo.percentile("p99")
        # aggregate bandwidth grows sub-linearly with clients
        assert busy.bandwidth_mbps < 4 * solo.bandwidth_mbps

    def test_analytic_mode_uses_combined_depth(self):
        cluster = _cluster(sim_mode="analytic")
        images = _images(cluster, 2)
        result = WorkloadRunner(cluster).run_streams(images, _spec())
        assert result.estimate.sim_mode == "analytic"
        assert result.estimate.latency_percentiles  # receipt percentiles

    def test_batched_streams_keep_per_client_attribution(self):
        cluster = _cluster()
        images = _images(cluster, 2)
        spec = _spec(batched=True, io_count=16)
        result = WorkloadRunner(cluster).run_streams(images, spec)
        assert result.estimate.total_bytes == 2 * 16 * 16 * KIB
        assert result.counter("engine.batches") > 0
        assert [len(l) for l in result.per_client_latencies_us] == [16, 16]

    def test_sparse_reads_do_not_break_event_mode(self):
        """Reads of never-written objects produce no RADOS traces; the
        event replay must still count them instead of erroring out."""
        cluster = _cluster()
        images = _images(cluster, 2)
        spec = _spec(rw="randread", io_count=8)  # no prefill: all sparse
        result = WorkloadRunner(cluster).run_streams(images, spec)
        assert result.estimate.sim_mode == "events"
        assert result.estimate.iops >= 0
        assert len(result.latencies_us) == 16

    def test_read_streams_through_pipeline(self):
        cluster = _cluster()
        images = _images(cluster, 2)
        spec = _spec(rw="randread", batched=True, io_count=16, prefill=True)
        result = WorkloadRunner(cluster).run_streams(images, spec)
        assert result.estimate.total_bytes == 2 * 16 * 16 * KIB
        assert result.percentile("p99") > 0

    def test_each_client_gets_its_own_cache(self):
        """Cached multi-client runs: per-stream caches, shared cluster."""
        cluster = _cluster()
        images = _images(cluster, 2)
        spec = _spec(cache=CacheConfig(mode="writeback", size=8 * MIB),
                     io_count=32)
        result = WorkloadRunner(cluster).run_streams(images, spec)
        assert result.estimate.sim_mode == "events"
        # Both streams completed every request (plus at most one final
        # flush op each).
        for sample in result.per_client_latencies_us:
            assert len(sample) >= 32
        # The caches absorbed rewrites: far fewer transactions than ops.
        writes = result.counter("cache.write_hits") + result.counter(
            "cache.write_misses")
        assert writes > 0
        assert result.counter("cache.writeback_blocks") > 0

    def test_cached_batched_multi_client_combination(self):
        cluster = _cluster(sim_mode="analytic")
        images = _images(cluster, 2)
        spec = _spec(batched=True,
                     cache=CacheConfig(mode="writeback", size=8 * MIB),
                     io_count=24)
        result = WorkloadRunner(cluster).run_streams(images, spec)
        assert result.estimate.total_bytes == 2 * 24 * 16 * KIB
        assert result.counter("cache.writebacks") > 0
