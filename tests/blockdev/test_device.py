"""Tests for the simulated block device."""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.blockdev.device import EXTENT_BYTES, SimulatedDisk
from repro.blockdev.trace import IOTrace
from repro.errors import DeviceError, OutOfRangeError
from repro.sim.costparams import CostParameters
from repro.sim.ledger import CostLedger, RES_OSD_DEVICE


def make_disk(capacity=1024 * 1024, ledger=None, trace=None, **param_overrides):
    params = CostParameters(**param_overrides) if param_overrides else CostParameters()
    return SimulatedDisk("test/dev0", capacity, params, ledger, trace)


class TestFunctionalBehaviour:
    def test_unwritten_sectors_read_zero(self):
        disk = make_disk()
        assert disk.read(0, 100).data == bytes(100)
        assert disk.read(123456, 10).data == bytes(10)

    def test_write_read_roundtrip(self):
        disk = make_disk()
        disk.write(0, b"hello world")
        assert disk.read(0, 11).data == b"hello world"

    def test_unaligned_write_and_read(self):
        disk = make_disk()
        disk.write(5000, b"X" * 3000)
        assert disk.read(5000, 3000).data == b"X" * 3000
        assert disk.read(4990, 10).data == bytes(10)

    def test_overwrite_merges_partial_sectors(self):
        disk = make_disk()
        disk.write(0, b"A" * 4096)
        disk.write(100, b"B" * 10)
        data = disk.read(0, 4096).data
        assert data[:100] == b"A" * 100
        assert data[100:110] == b"B" * 10
        assert data[110:] == b"A" * 3986

    def test_write_spanning_sectors(self):
        disk = make_disk()
        payload = bytes(range(256)) * 40        # 10240 bytes
        disk.write(4000, payload)
        assert disk.read(4000, len(payload)).data == payload

    def test_out_of_range_rejected(self):
        disk = make_disk(capacity=8192)
        with pytest.raises(OutOfRangeError):
            disk.read(8000, 1000)
        with pytest.raises(OutOfRangeError):
            disk.write(8192, b"x")
        with pytest.raises(OutOfRangeError):
            disk.read(-1, 10)

    def test_capacity_must_be_positive(self):
        with pytest.raises(OutOfRangeError):
            make_disk(capacity=0)

    def test_discard_zeroes_full_and_partial_sectors(self):
        disk = make_disk()
        disk.write(0, b"Y" * 8192)
        disk.discard(0, 4096)
        disk.discard(5000, 100)
        assert disk.read(0, 4096).data == bytes(4096)
        assert disk.read(5000, 100).data == bytes(100)
        assert disk.read(4096, 904).data == b"Y" * 904

    def test_allocated_sectors_tracking(self):
        disk = make_disk()
        assert disk.allocated_sectors() == 0
        disk.write(0, bytes(4096 * 2))
        assert disk.allocated_sectors() == 2
        assert disk.used_bytes() == 8192
        disk.discard(0, 4096)
        assert disk.allocated_sectors() == 1

    def test_zero_length_discard_at_unaligned_offset_stores_nothing(self):
        """`discard(100, 0)` used to allocate the sector around byte 100,
        which fed the exact metric ``model.space_amp``; it still counts
        and costs like any discard."""
        ledger = CostLedger()
        disk = make_disk(capacity=8192, ledger=ledger)
        result = disk.discard(100, 0)
        assert disk.allocated_sectors() == 0
        assert disk.used_bytes() == 0
        assert disk.stats.discards == 1
        assert ledger.counter("device.discards") == 1
        assert result.latency_us == disk.params.device_write_latency_us

    def test_partial_discard_allocates_the_sector_it_rewrites(self):
        disk = make_disk()
        disk.discard(5000, 100)
        assert disk.allocated_sectors() == 1
        disk.discard(4096, 4096)
        assert disk.allocated_sectors() == 0

    def test_discard_over_holes_releases_every_allocated_run(self):
        """Written runs separated by never-written sectors, across an
        extent boundary, under one discard with partial first/last sectors."""
        disk = make_disk(capacity=16 * 1024 * 1024)
        sector, extent = 4096, EXTENT_BYTES
        for start, count in ((1, 1), (3, 2), (9, 1), (extent // sector - 1, 2),
                             (extent // sector + 6, 1)):
            disk.write(start * sector, b"\xaa" * (count * sector))
        assert disk.allocated_sectors() == 7
        disk.discard(sector + 10, extent + 5 * sector)  # ends 10 B into the last run
        assert disk.allocated_sectors() == 2            # the two partial ends
        assert disk.read(sector, 10).data == b"\xaa" * 10
        assert disk.read(sector + 10, extent + 5 * sector).data == bytes(
            extent + 5 * sector)
        assert disk.read(extent + 6 * sector + 10, 6).data == b"\xaa" * 6

    def test_peek_returns_stored_bytes_without_accounting(self):
        ledger = CostLedger()
        trace = IOTrace()
        disk = make_disk(ledger=ledger, trace=trace)
        disk.write(4000, b"Z" * 200)
        stats, counters = disk.stats.as_dict(), dict(ledger.counters)
        busy = dict(ledger.resource_us)
        assert disk.peek(3990, 220) == bytes(10) + b"Z" * 200 + bytes(10)
        assert disk.peek(512 * 1024, 16) == bytes(16)
        assert disk.stats.as_dict() == stats
        assert ledger.counters == counters and ledger.resource_us == busy
        assert len(trace) == 1
        with pytest.raises(OutOfRangeError):
            disk.peek(1024 * 1024 - 4, 8)

WIDE_BUFFERS = {
    "memoryview-H": lambda raw: memoryview(bytearray(raw)).cast("H"),
    "memoryview-I": lambda raw: memoryview(bytearray(raw)).cast("I"),
    "array-H": lambda raw: array("H", raw),
    "array-I": lambda raw: array("I", raw),
}

@pytest.mark.parametrize("buffer", sorted(WIDE_BUFFERS))
class TestWriteBuffersAreMeasuredInBytes:
    """The device legs of ``tests/rbd/test_byte_length_buffers.py``: a
    buffer whose item size is not 1 is bounds-checked, stored and
    accounted by its byte length."""

    def test_round_trip_and_accounting(self, buffer):
        ledger = CostLedger()
        disk = make_disk(ledger=ledger)
        payload = bytes(range(256)) * 32            # 8192 bytes, 2 sectors
        result = disk.write(4096, WIDE_BUFFERS[buffer](payload))
        assert disk.read(4096, 8192).data == payload
        assert result.sectors == 2
        assert disk.stats.bytes_written == 8192
        assert disk.stats.sectors_written == 2
        assert ledger.counter("device.sectors_written") == 2
        assert disk.allocated_sectors() == 2

    def test_overflow_is_refused_and_stores_nothing(self, buffer):
        disk = make_disk(capacity=8192)
        with pytest.raises(OutOfRangeError):
            disk.write(8188, WIDE_BUFFERS[buffer](bytes(8)))
        assert disk.allocated_sectors() == 0
        assert disk.stats.bytes_written == 0

class TestWriteBufferErrorsAreTyped:
    @pytest.mark.parametrize("bad", [None, 7, "text", [1, 2, 3]])
    def test_non_buffer(self, bad):
        disk = make_disk()
        with pytest.raises(DeviceError):
            disk.write(0, bad)
        assert disk.stats.write_ops == 0

    def test_non_contiguous_view(self):
        disk = make_disk()
        with pytest.raises(DeviceError):
            disk.write(0, memoryview(bytes(64))[::2])
        assert disk.allocated_sectors() == 0

    def test_empty_wide_buffer_is_an_empty_write(self):
        disk = make_disk()
        assert disk.write(0, array("I")).sectors == 0
        assert disk.allocated_sectors() == 0

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_byte_buffers_are_stored_as_given(self, wrap):
        disk = make_disk()
        disk.write(10, wrap(b"abc"))
        assert disk.read(10, 3).data == b"abc"

class TestCostAccounting:
    def test_aligned_write_has_no_rmw(self):
        ledger = CostLedger()
        disk = make_disk(ledger=ledger)
        disk.write(0, bytes(8192))
        assert ledger.counter("device.rmw_turns") == 0
        assert ledger.counter("device.sectors_written") == 2

    def test_large_unaligned_write_counts_rmw(self):
        ledger = CostLedger()
        disk = make_disk(ledger=ledger)
        disk.write(100, bytes(8192))            # above the deferred threshold
        assert ledger.counter("device.rmw_turns") == 1
        assert disk.stats.unaligned_writes == 1

    def test_small_unaligned_write_is_deferred(self):
        ledger = CostLedger()
        disk = make_disk(ledger=ledger)
        disk.write(100, bytes(16))              # below the deferred threshold
        assert ledger.counter("device.rmw_turns") == 0

    def test_sector_granularity_of_small_reads(self):
        ledger = CostLedger()
        disk = make_disk(ledger=ledger)
        disk.read(10, 20)
        assert ledger.counter("device.sectors_read") == 1

    def test_read_spanning_two_sectors(self):
        ledger = CostLedger()
        disk = make_disk(ledger=ledger)
        disk.read(4090, 20)
        assert ledger.counter("device.sectors_read") == 2

    def test_busy_time_scales_with_size(self):
        ledger = CostLedger()
        disk = make_disk(ledger=ledger)
        disk.write(0, bytes(4096))
        small = ledger.resource(RES_OSD_DEVICE)
        disk.write(0, bytes(1024 * 1024))
        assert ledger.resource(RES_OSD_DEVICE) > small * 10

    def test_latency_returned_positive_and_larger_for_reads(self):
        disk = make_disk()
        write_latency = disk.write(0, bytes(4096)).latency_us
        read_latency = disk.read(0, 4096).latency_us
        assert write_latency > 0
        assert read_latency > write_latency  # NVMe reads have higher latency

    def test_rmw_write_has_higher_latency(self):
        disk = make_disk()
        aligned = disk.write(0, bytes(8192)).latency_us
        unaligned = disk.write(4096 * 10 + 100, bytes(8192)).latency_us
        assert unaligned > aligned

    def test_flush_and_discard_counted(self):
        ledger = CostLedger()
        disk = make_disk(ledger=ledger)
        disk.flush()
        disk.discard(0, 4096)
        assert ledger.counter("device.flushes") == 1
        assert ledger.counter("device.discards") == 1

    def test_stats_dictionary(self):
        disk = make_disk()
        disk.write(0, bytes(4096))
        disk.read(0, 4096)
        stats = disk.stats.as_dict()
        assert stats["write_ops"] == 1
        assert stats["read_ops"] == 1

    def test_works_without_ledger(self):
        disk = make_disk(ledger=None)
        disk.write(0, b"no ledger")
        assert disk.read(0, 9).data == b"no ledger"

class TestTrace:
    def test_operations_are_traced(self):
        trace = IOTrace()
        disk = make_disk(trace=trace)
        disk.write(0, bytes(4096))
        disk.read(0, 100)
        assert len(trace) == 2
        assert trace.filter(op="write")[0].sectors == 1
        assert "read" in trace.render()

    def test_trace_limit_counts_drops(self):
        trace = IOTrace(limit=2)
        disk = make_disk(trace=trace)
        for _ in range(5):
            disk.read(0, 10)
        assert len(trace) == 2
        assert trace.dropped == 3

    def test_trace_filter_by_device(self):
        trace = IOTrace()
        disk = make_disk(trace=trace)
        disk.read(0, 10)
        assert trace.filter(device="test/dev0")
        assert not trace.filter(device="other")

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            IOTrace(limit=0)

class TestProperties:
    @given(offset=st.integers(min_value=0, max_value=60_000),
           data=st.binary(min_size=1, max_size=9000))
    @settings(max_examples=30, deadline=None)
    def test_write_then_read_returns_written_bytes(self, offset, data):
        disk = make_disk(capacity=128 * 1024)
        disk.write(offset, data)
        assert disk.read(offset, len(data)).data == data

    @given(writes=st.lists(st.tuples(st.integers(min_value=0, max_value=30_000),
                                     st.binary(min_size=1, max_size=2000)),
                           min_size=1, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_matches_reference_buffer(self, writes):
        disk = make_disk(capacity=64 * 1024)
        reference = bytearray(64 * 1024)
        for offset, data in writes:
            disk.write(offset, data)
            reference[offset:offset + len(data)] = data
        assert disk.read(0, 64 * 1024).data == bytes(reference)
