"""Model-based test of :class:`SimulatedDisk`.

Random write/read/discard/flush sequences run against an oracle that is
as dumb as possible — one ``bytearray`` for the bytes, one ``set`` of
allocated sector numbers, plain dicts for the ledger and the cost formula
written out below — and every observable must match exactly: returned
bytes, ``latency_us``, ``sectors``, every ``DeviceStats`` field,
``allocated_sectors()`` and the ledger dicts *including key insertion
order* (exports sort, but ``CostLedger.diff`` and the perf harness walk
them as they are).

Offsets are forced to hug extent boundaries (``EXTENT_BYTES - k*sector
± 1``) and lengths reach past 4 MiB, so ranges straddle one and two
boundaries of the device's extent map; the 9 MiB capacity is not a
multiple of the extent and the 64 GiB device is exercised at its far end.
"""

from hypothesis import given, settings, strategies as st

from repro.blockdev.device import EXTENT_BYTES, SimulatedDisk
from repro.sim.costparams import CostParameters
from repro.sim.ledger import CostLedger, RES_OSD_DEVICE
from repro.util import GIB, MIB

#: bytes of the device the oracle mirrors: the last 13 MiB (three extent
#: boundaries) of a large device, all of a smaller one
WINDOW = 13 * MIB


class Oracle:
    """What the device must do, written the slow obvious way."""

    def __init__(self, params, capacity):
        self.params = params
        self.ss = params.sector_size
        self.base = max(0, capacity - WINDOW)
        self.data = bytearray(capacity - self.base)
        self.allocated = set()
        self.stats = dict(read_ops=0, write_ops=0, sectors_read=0,
                          sectors_written=0, unaligned_writes=0,
                          rmw_sectors_read=0, bytes_read=0, bytes_written=0,
                          flushes=0, discards=0)
        self.counters = {}
        self.resource_us = {}

    def _count(self, name, amount=1.0):
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def _busy(self, microseconds):
        self.resource_us[RES_OSD_DEVICE] = (
            self.resource_us.get(RES_OSD_DEVICE, 0.0) + microseconds)

    def _span(self, offset, length):
        """Sectors touched by a range (one for an empty unaligned one)."""
        return range(offset // self.ss, -(-(offset + length) // self.ss))

    def _charge(self, is_write, sectors, rmw):
        p = self.params
        bandwidth = (p.device_write_bandwidth_mbps if is_write
                     else p.device_read_bandwidth_mbps)
        transfer = sectors * self.ss / (bandwidth * 1024 * 1024) * 1e6
        occupancy = p.device_op_occupancy_us + transfer
        latency = (p.device_write_latency_us if is_write
                   else p.device_read_latency_us) + transfer
        if rmw:
            rmw_read = (rmw * self.ss
                        / (p.device_read_bandwidth_mbps * 1024 * 1024) * 1e6)
            occupancy += p.device_rmw_penalty_us + rmw_read
            latency += p.device_rmw_latency_us + rmw_read
        self._busy(occupancy)
        self._count("device.ops")
        self._count("device.sectors", sectors)
        self._count("device.sectors_written" if is_write
                    else "device.sectors_read", sectors)
        if rmw:
            self._count("device.rmw_turns")
            self._count("device.rmw_sectors", rmw)
        return latency

    def read(self, offset, length):
        sectors = len(self._span(offset, length))
        latency = self._charge(False, sectors, 0)
        self.stats["read_ops"] += 1
        self.stats["sectors_read"] += sectors
        self.stats["bytes_read"] += length
        lo = offset - self.base
        return bytes(self.data[lo:lo + length]), latency, sectors

    def write(self, offset, payload):
        length = len(payload)
        span = self._span(offset, length)
        partial = {sector for sector in span
                   if sector * self.ss < offset
                   or (sector + 1) * self.ss > offset + length}
        rmw = len(partial)
        if length == 0 or length < self.params.deferred_write_threshold:
            rmw = 0
        latency = self._charge(True, len(span), rmw)
        self.stats["write_ops"] += 1
        self.stats["sectors_written"] += len(span)
        self.stats["bytes_written"] += length
        if rmw:
            self.stats["unaligned_writes"] += 1
            self.stats["rmw_sectors_read"] += rmw
        if length:
            lo = offset - self.base
            self.data[lo:lo + length] = payload
            self.allocated.update(span)
        return b"", latency, len(span)

    def discard(self, offset, length):
        if length:
            lo = offset - self.base
            self.data[lo:lo + length] = bytes(length)
            for sector in self._span(offset, length):
                if (offset <= sector * self.ss
                        and (sector + 1) * self.ss <= offset + length):
                    self.allocated.discard(sector)
                else:       # rewritten with the range zeroed
                    self.allocated.add(sector)
        self.stats["discards"] += 1
        self._count("device.discards")
        self._busy(self.params.device_op_occupancy_us)
        return b"", self.params.device_write_latency_us, 0

    def flush(self):
        self.stats["flushes"] += 1
        self._count("device.flushes")
        self._busy(self.params.device_op_occupancy_us)
        return b"", self.params.device_write_latency_us, 0


@st.composite
def scenarios(draw):
    sector_size = draw(st.sampled_from([512, 4096, 16384]))
    capacity = draw(st.sampled_from([1 * MIB, 9 * MIB, 64 * GIB]))
    threshold = draw(st.sampled_from([4096, 4096, 0, 16384]))
    base = max(0, capacity - WINDOW)
    boundaries = [b for b in range(0, capacity + 1, EXTENT_BYTES)
                  if base < b <= capacity][:4] or [capacity]

    def offsets():
        hugging = st.builds(
            lambda boundary, k, nudge: boundary - k * sector_size + nudge,
            st.sampled_from(boundaries), st.integers(0, 3),
            st.sampled_from([-1, 0, 1]))
        return st.one_of(hugging, st.integers(base, capacity)).map(
            lambda offset: min(max(offset, base), capacity))

    lengths = st.one_of(
        st.sampled_from([0, 1, 16, sector_size - 1, sector_size,
                         sector_size + 1]),
        st.integers(0, 5 * sector_size),
        st.sampled_from([EXTENT_BYTES - sector_size, EXTENT_BYTES + 1,
                         EXTENT_BYTES + 3 * sector_size + 17, 5 * MIB]))
    op = st.tuples(st.sampled_from(["write", "write", "read", "read",
                                    "discard", "flush"]),
                   offsets(), lengths, st.binary(min_size=1, max_size=8))
    return sector_size, capacity, threshold, draw(st.lists(op, min_size=1,
                                                           max_size=12))


@given(scenario=scenarios())
@settings(max_examples=40, deadline=None)
def test_device_matches_the_oracle(scenario):
    sector_size, capacity, threshold, ops = scenario
    params = CostParameters(sector_size=sector_size,
                            deferred_write_threshold=threshold)
    ledger = CostLedger()
    disk = SimulatedDisk("model/dev", capacity, params, ledger)
    oracle = Oracle(params, capacity)

    for kind, offset, length, pattern in ops:
        length = min(length, capacity - offset)
        if kind == "write":
            payload = (pattern * (length // len(pattern) + 1))[:length]
            got, want = disk.write(offset, payload), oracle.write(offset, payload)
        elif kind == "read":
            got, want = disk.read(offset, length), oracle.read(offset, length)
        elif kind == "discard":
            got, want = disk.discard(offset, length), oracle.discard(offset, length)
        else:
            got, want = disk.flush(), oracle.flush()
        assert (got.data, got.latency_us, got.sectors) == want, (kind, offset, length)
        assert disk.allocated_sectors() == len(oracle.allocated)

    assert disk.stats.as_dict() == oracle.stats
    assert disk.used_bytes() == len(oracle.allocated) * sector_size
    assert list(ledger.counters.items()) == list(oracle.counters.items())
    assert list(ledger.resource_us.items()) == list(oracle.resource_us.items())
    assert disk.peek(oracle.base, len(oracle.data)) == bytes(oracle.data)
