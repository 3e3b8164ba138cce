"""A simulated NVMe-like block device with sector-granular cost accounting.

The device is sparse (unwritten sectors read back as zeros), stores real
bytes, and charges every access to the cost ledger:

* a fixed per-operation cost (submission/completion, flash translation),
* a transfer cost proportional to the number of *sectors* touched — not the
  number of bytes the caller asked for: a 20-byte read still occupies a
  whole 4 KiB sector, which is exactly the effect behind the paper's
  "2 sectors instead of 1" analysis for 4 KiB IOs with a trailing IV,
* a read-modify-write penalty when a write does not start and end on a
  sector boundary (the device must read the partial head/tail sectors, merge
  and write them back) — the effect that makes the *unaligned* layout slow.

Storage is a dict of lazily mapped fixed-size *extents*
(:data:`EXTENT_BYTES`), each a private anonymous ``mmap`` plus one
allocated-flag byte per sector, so a device I/O is one copy per extent it
touches.  The kernel supplies the sparse-zero semantics (an untouched page
reads as zeros and costs no memory), residency follows the 4 KiB pages
actually written, and dropping the device unmaps its data at once.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import DeviceError, OutOfRangeError
from ..sim.costparams import CostParameters
from ..sim.ledger import CostLedger, RES_OSD_DEVICE
from ..util import MIB, split_range

#: bytes of backing store mapped at a time (rounded down to whole sectors).
#: Not one mapping per device: a 64 GiB private mapping is refused under
#: heuristic overcommit, and a fleet run builds 64 such devices.
EXTENT_BYTES = 4 * MIB

#: private so a forked worker gets copy-on-write pages like the heap would
#: give it; 0 where ``mmap`` takes no ``flags`` (Windows).
_MAP_FLAGS = getattr(mmap, "MAP_PRIVATE", 0) | getattr(mmap, "MAP_ANONYMOUS", 0)


def _map_store(length: int) -> mmap.mmap:
    """A zero-filled anonymous mapping whose pages cost memory once written.

    Deliberately not ``bytearray(length)``: that zero-touches every page,
    and glibc stops unmapping blocks of this size after the first free.
    """
    store = (mmap.mmap(-1, length, flags=_MAP_FLAGS) if _MAP_FLAGS
             else mmap.mmap(-1, length))
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        # Where transparent huge pages are "always", one 4 KiB write would
        # otherwise make 2 MiB resident.  Only a hint: a kernel built
        # without THP answers EINVAL.
        try:
            store.madvise(mmap.MADV_NOHUGEPAGE)
        except OSError:
            pass
    return store


@dataclass
class DeviceStats:
    """Raw access statistics for a single simulated device."""

    read_ops: int = 0
    write_ops: int = 0
    sectors_read: int = 0
    sectors_written: int = 0
    unaligned_writes: int = 0
    rmw_sectors_read: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    flushes: int = 0
    discards: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Return the statistics as a plain dictionary (for reports)."""
        return dict(self.__dict__)


@dataclass
class DeviceResult:
    """Payload plus cost information returned by each device operation."""

    data: bytes
    latency_us: float
    sectors: int


class SimulatedDisk:
    """Sparse in-memory block device with a sector-granularity cost model.

    Parameters
    ----------
    name:
        Identifier used in error messages (e.g. ``"osd.2/nvme0"``).
    capacity_bytes:
        Device size; IOs beyond it raise :class:`OutOfRangeError`.
    params:
        Cost parameters (sector size, per-op and per-byte costs).
    ledger:
        Shared cost ledger; may be ``None`` for purely functional use.
    """

    def __init__(self, name: str, capacity_bytes: int,
                 params: Optional[CostParameters] = None,
                 ledger: Optional[CostLedger] = None) -> None:
        if capacity_bytes <= 0:
            raise OutOfRangeError("device capacity must be positive")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.params = params or CostParameters()
        self.sector_size = self.params.sector_size
        self.ledger = ledger
        self.stats = DeviceStats()
        self._extent_sectors = max(1, EXTENT_BYTES // self.sector_size)
        self._extent_bytes = self._extent_sectors * self.sector_size
        #: extent index -> (backing store, one allocated flag per sector)
        self._extents: Dict[int, Tuple[mmap.mmap, bytearray]] = {}

    # -- helpers ---------------------------------------------------------------

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0:
            raise OutOfRangeError(
                f"{self.name}: negative offset/length ({offset}, {length})")
        if offset + length > self.capacity_bytes:
            raise OutOfRangeError(
                f"{self.name}: IO [{offset}, {offset + length}) exceeds "
                f"capacity {self.capacity_bytes}")

    def _byte_view(self, data: object) -> memoryview:
        """Flatten any C-contiguous buffer to one byte per item, no copy."""
        try:
            view = data if isinstance(data, memoryview) else memoryview(data)
        except TypeError:
            raise DeviceError(
                f"{self.name}: write data must be a bytes-like object, "
                f"not {type(data).__name__}") from None
        if not view.c_contiguous:
            raise DeviceError(f"{self.name}: write data must be contiguous")
        if view.format != "B" or view.ndim != 1:
            # cast() refuses a zero in the shape; an empty buffer is empty
            # in every format.
            view = view.cast("B") if view.nbytes else memoryview(b"")
        return view

    def _extent(self, index: int) -> Tuple[mmap.mmap, bytearray]:
        """The extent at ``index``, mapped on first use."""
        extent = self._extents.get(index)
        if extent is None:
            extent = self._extents[index] = (_map_store(self._extent_bytes),
                                             bytearray(self._extent_sectors))
        return extent

    def _charge(self, is_write: bool, sectors: int, rmw_sectors: int) -> float:
        """Charge occupancy to the ledger and return critical-path latency."""
        params = self.params
        transfer = params.device_transfer_us(sectors * self.sector_size, is_write)
        occupancy = params.device_op_occupancy_us + transfer
        latency = (params.device_write_latency_us if is_write
                   else params.device_read_latency_us) + transfer
        if rmw_sectors:
            rmw_read = params.device_transfer_us(
                rmw_sectors * self.sector_size, is_write=False)
            occupancy += params.device_rmw_penalty_us + rmw_read
            latency += params.device_rmw_latency_us + rmw_read
        ledger = self.ledger
        if ledger is not None:
            ledger.busy(RES_OSD_DEVICE, occupancy)
            ledger.count("device.ops")
            ledger.count("device.sectors", sectors)
            if is_write:
                ledger.count("device.sectors_written", sectors)
            else:
                ledger.count("device.sectors_read", sectors)
            if rmw_sectors:
                ledger.count("device.rmw_turns")
                ledger.count("device.rmw_sectors", rmw_sectors)
        return latency

    # -- data path ---------------------------------------------------------------

    def peek(self, offset: int, length: int) -> bytes:
        """The stored bytes of a range, with no cost or statistic.

        For bookkeeping that is not an I/O on the modelled data path (the
        OSD preserving an object head for a snapshot: BlueStore clones
        extents by reference).
        """
        self._check_range(offset, length)
        extent_bytes = self._extent_bytes
        index, start = divmod(offset, extent_bytes)
        if start + length <= extent_bytes:      # the usual case: one copy
            extent = self._extents.get(index)
            if extent is None:
                return bytes(length)
            return extent[0][start:start + length]
        parts = []
        for index, start, piece in split_range(offset, length, extent_bytes):
            extent = self._extents.get(index)
            parts.append(bytes(piece) if extent is None
                         else extent[0][start:start + piece])
        return b"".join(parts)

    def read(self, offset: int, length: int) -> DeviceResult:
        """Read ``length`` bytes starting at ``offset``."""
        payload = self.peek(offset, length)
        sector_size = self.sector_size
        sectors = -(-(offset + length) // sector_size) - offset // sector_size
        latency = self._charge(False, sectors, 0)
        stats = self.stats
        stats.read_ops += 1
        stats.sectors_read += sectors
        stats.bytes_read += length
        return DeviceResult(payload, latency, sectors)

    def write(self, offset: int, data: bytes) -> DeviceResult:
        """Write ``data`` at ``offset`` (read-modify-write if unaligned).

        ``data`` may be any C-contiguous buffer; its length is its size in
        *bytes* whatever its item size.
        """
        if isinstance(data, (bytes, bytearray)):
            length = len(data)
        else:
            data = self._byte_view(data)
            length = data.nbytes
        self._check_range(offset, length)
        sector_size = self.sector_size
        end = offset + length
        first_sector = offset // sector_size
        sectors = -(-end // sector_size) - first_sector

        # Small writes are deferred (journaled) by the object store and do
        # not pay a read-modify-write turn on the data device.
        rmw_sectors = 0
        if length > 0 and length >= self.params.deferred_write_threshold:
            head_unaligned = offset % sector_size != 0
            if head_unaligned:
                rmw_sectors = 1
            if end % sector_size != 0 and not (
                    head_unaligned and end // sector_size == first_sector):
                rmw_sectors += 1

        extent_bytes = self._extent_bytes
        index, start = divmod(offset, extent_bytes)
        if start + length <= extent_bytes:
            if length:
                self._store(index, start, data, length)
        else:
            view = memoryview(data)
            pos = 0
            for index, start, piece in split_range(offset, length, extent_bytes):
                self._store(index, start, view[pos:pos + piece], piece)
                pos += piece

        latency = self._charge(True, sectors, rmw_sectors)
        stats = self.stats
        stats.write_ops += 1
        stats.sectors_written += sectors
        stats.bytes_written += length
        if rmw_sectors:
            stats.unaligned_writes += 1
            stats.rmw_sectors_read += rmw_sectors
        return DeviceResult(b"", latency, sectors)

    def _store(self, index: int, start: int, data: object, length: int) -> None:
        """Copy ``length`` > 0 bytes into one extent and mark its sectors."""
        store, flags = self._extent(index)
        end = start + length
        store[start:end] = data
        sector_size = self.sector_size
        first = start // sector_size
        last = -(-end // sector_size)
        flags[first:last] = b"\x01" * (last - first)

    def discard(self, offset: int, length: int) -> DeviceResult:
        """Discard (TRIM) a byte range; partial sectors are zero-filled."""
        self._check_range(offset, length)
        sector_size = self.sector_size
        for index, start, piece in split_range(offset, length,
                                               self._extent_bytes):
            end = start + piece
            first_full = -(-start // sector_size)
            last_full = end // sector_size
            if first_full > last_full:
                # The range sits inside one sector.
                self._store(index, start, bytes(piece), piece)
                continue
            # A partly covered sector is rewritten with the range zeroed,
            # which allocates it; a fully covered one is released.
            if start % sector_size:
                head = first_full * sector_size - start
                self._store(index, start, bytes(head), head)
            if end % sector_size:
                tail = end - last_full * sector_size
                self._store(index, end - tail, bytes(tail), tail)
            extent = self._extents.get(index)
            if extent is None:
                continue
            store, flags = extent
            # Zero only runs of allocated sectors, so discarding a range
            # nothing was written to touches no page.
            run = flags.find(1, first_full, last_full)
            while run >= 0:
                run_end = flags.find(0, run, last_full)
                if run_end < 0:
                    run_end = last_full
                store[run * sector_size:run_end * sector_size] = bytes(
                    (run_end - run) * sector_size)
                run = flags.find(1, run_end, last_full)
            flags[first_full:last_full] = bytes(last_full - first_full)
        self.stats.discards += 1
        if self.ledger is not None:
            self.ledger.count("device.discards")
            self.ledger.busy(RES_OSD_DEVICE, self.params.device_op_occupancy_us)
        return DeviceResult(b"", self.params.device_write_latency_us, 0)

    def flush(self) -> DeviceResult:
        """Flush the device write cache (fixed small cost)."""
        self.stats.flushes += 1
        if self.ledger is not None:
            self.ledger.count("device.flushes")
            self.ledger.busy(RES_OSD_DEVICE, self.params.device_op_occupancy_us)
        return DeviceResult(b"", self.params.device_write_latency_us, 0)

    # -- inspection -----------------------------------------------------------------

    def allocated_sectors(self) -> int:
        """Number of sectors that hold data (sparse occupancy)."""
        return sum(flags.count(1) for _, flags in self._extents.values())

    def used_bytes(self) -> int:
        """Bytes of backing storage currently allocated."""
        return self.allocated_sectors() * self.sector_size
