"""Tests for the workload specification, generator, statistics and runner."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.errors import WorkloadError
from repro.workload.generator import generate_request_list, generate_requests
from repro.workload.runner import WorkloadRunner, prefill_image
from repro.workload.spec import PAPER_IO_SIZES, WorkloadSpec
from repro.util import KIB, MIB, percentile


class TestSpec:
    def test_paper_io_sizes(self):
        assert PAPER_IO_SIZES[0] == 4 * KIB
        assert PAPER_IO_SIZES[-1] == 4 * MIB
        assert len(PAPER_IO_SIZES) == 11
        assert list(PAPER_IO_SIZES) == sorted(PAPER_IO_SIZES)

    def test_io_size_string_parsing(self):
        assert WorkloadSpec(io_size="64K").io_size == 64 * KIB

    def test_invalid_specs_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(rw="bogus")
        with pytest.raises(WorkloadError):
            WorkloadSpec(io_size=0)
        with pytest.raises(WorkloadError):
            WorkloadSpec(queue_depth=0)
        with pytest.raises(WorkloadError):
            WorkloadSpec(io_count=None, total_bytes=None)
        with pytest.raises(WorkloadError):
            WorkloadSpec(read_fraction=1.5)

    def test_resolved_io_count(self):
        spec = WorkloadSpec(io_size=4 * KIB, total_bytes=1 * MIB)
        assert spec.resolved_io_count(64 * MIB) == 256
        explicit = WorkloadSpec(io_size=4 * KIB, io_count=7)
        assert explicit.resolved_io_count(64 * MIB) == 7
        with pytest.raises(WorkloadError):
            WorkloadSpec(io_size=8 * MIB).resolved_io_count(4 * MIB)

    def test_describe(self):
        assert "randwrite" in WorkloadSpec().describe()


class TestGenerator:
    def test_deterministic_given_seed(self):
        spec = WorkloadSpec(rw="randwrite", io_size=4 * KIB, io_count=50, seed=3)
        assert generate_request_list(spec, 16 * MIB) == \
            generate_request_list(spec, 16 * MIB)

    def test_different_seeds_differ(self):
        a = generate_request_list(WorkloadSpec(io_count=50, seed=1), 16 * MIB)
        b = generate_request_list(WorkloadSpec(io_count=50, seed=2), 16 * MIB)
        assert a != b

    def test_offsets_aligned_and_in_bounds(self):
        spec = WorkloadSpec(rw="randread", io_size=64 * KIB, io_count=200)
        for request in generate_requests(spec, 16 * MIB):
            assert request.offset % (64 * KIB) == 0
            assert request.offset + request.length <= 16 * MIB
            assert request.op == "read"

    def test_sequential_pattern_wraps(self):
        spec = WorkloadSpec(rw="write", io_size=1 * MIB, io_count=20)
        offsets = [r.offset for r in generate_requests(spec, 4 * MIB)]
        assert offsets[:4] == [0, 1 * MIB, 2 * MIB, 3 * MIB]
        assert offsets[4] == 0   # wrapped

    def test_randrw_mix_ratio(self):
        spec = WorkloadSpec(rw="randrw", io_size=4 * KIB, io_count=400,
                            read_fraction=0.75, seed=9)
        requests = generate_request_list(spec, 16 * MIB)
        reads = sum(1 for r in requests if r.op == "read")
        assert 0.6 < reads / len(requests) < 0.9

    def test_write_pattern_only_writes(self):
        spec = WorkloadSpec(rw="randwrite", io_size=4 * KIB, io_count=50)
        assert all(r.op == "write" for r in generate_requests(spec, 16 * MIB))

    @given(io_size=st.sampled_from([4 * KIB, 64 * KIB, 1 * MIB]),
           count=st.integers(min_value=1, max_value=64))
    @settings(max_examples=20, deadline=None)
    def test_request_count_and_length(self, io_size, count):
        spec = WorkloadSpec(rw="randwrite", io_size=io_size, io_count=count)
        requests = generate_request_list(spec, 32 * MIB)
        assert len(requests) == count
        assert all(r.length == io_size for r in requests)


class TestStats:
    def test_percentile(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3
        assert percentile([], 99) == 0.0
        assert percentile([10], 100) == 10
        with pytest.raises(ValueError):
            percentile([1], 120)


class TestRunner:
    def _image(self, cluster, layout="object-end"):
        image, _ = api.create_encrypted_image(
            cluster, f"wl-{layout}", 16 * MIB, b"pw", encryption_format=layout,
            cipher_suite="blake2-xts-sim", random_seed=b"runner")
        return image

    def test_run_produces_positive_bandwidth(self, cluster):
        image = self._image(cluster)
        runner = WorkloadRunner(cluster)
        spec = WorkloadSpec(rw="randwrite", io_size=16 * KIB, io_count=24)
        result = runner.run(image, spec)
        assert result.bandwidth_mbps > 0
        assert result.iops > 0
        assert result.layout == "object-end"
        assert len(result.latencies_us) == 24
        assert result.counter("crypto.blocks") == 24 * 4
        assert "MiB/s" in result.render()

    def test_prefill_then_read(self, cluster):
        image = self._image(cluster)
        prefill_image(image, chunk_size=1 * MIB)
        runner = WorkloadRunner(cluster)
        result = runner.run(image, WorkloadSpec(rw="randread", io_size=64 * KIB,
                                                io_count=16))
        assert result.bandwidth_mbps > 0
        # Reads of a prefilled image must decrypt real blocks.
        assert result.counter("crypto.blocks") >= 16 * 16

    def test_plaintext_image_layout_name(self, cluster):
        image = api.create_plain_image(cluster, "plain-wl", 16 * MIB)
        runner = WorkloadRunner(cluster)
        result = runner.run(image, WorkloadSpec(rw="randwrite", io_size=4 * KIB,
                                                io_count=8))
        assert result.layout == "plaintext"

    def test_ledger_delta_isolated_per_run(self, cluster):
        image = self._image(cluster)
        runner = WorkloadRunner(cluster)
        first = runner.run(image, WorkloadSpec(rw="randwrite", io_size=4 * KIB,
                                               io_count=8, seed=1))
        second = runner.run(image, WorkloadSpec(rw="randwrite", io_size=4 * KIB,
                                                io_count=8, seed=2))
        assert first.counter("rados.client_write_ops") == 8 * 1
        assert second.counter("rados.client_write_ops") == 8 * 1

    def test_higher_queue_depth_does_not_reduce_throughput(self, cluster):
        image = self._image(cluster)
        runner = WorkloadRunner(cluster)
        shallow = runner.run(image, WorkloadSpec(rw="randwrite", io_size=64 * KIB,
                                                 io_count=32, queue_depth=1, seed=4))
        deep = runner.run(image, WorkloadSpec(rw="randwrite", io_size=64 * KIB,
                                              io_count=32, queue_depth=32, seed=4))
        assert deep.bandwidth_mbps >= shallow.bandwidth_mbps
