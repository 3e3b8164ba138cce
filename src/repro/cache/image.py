"""The cached image front-end: the block cache behind the image surface.

:class:`CachedImage` is an :class:`~repro.rbd.wrapper.ImageWrapper` and
so an :class:`~repro.rbd.wrapper.ImageLike`: it slots between any caller
— the workload runners, the :class:`~repro.engine.pipeline.IoPipeline`,
plain example code — and the image (or front-end) below without either
side changing.

Caching is done at encryption-block granularity (the same 4 KiB blocks the
crypto dispatcher encrypts), with the write policy, capacity, eviction
policy and readahead window configured by
:class:`~repro.cache.config.CacheConfig`.  Contracts:

* **The cache owns its buffers.**  Written data is copied into cache
  blocks at admission, so callers may reuse their buffers immediately —
  the engine's stricter don't-mutate-until-flush AIO contract is only
  needed *below* the cache, on the writeback path.
* **Flush ordering.**  ``flush()`` writes every dirty block back in
  first-dirtied order through one vectored
  :meth:`~repro.rbd.image.Image.write_extents` call (one transaction per
  touched object), then flushes the inner image; when it returns, all
  acknowledged writes are durable on the cluster.  The base class takes
  the same barrier before snapshot, protect, resize and flatten.  For
  workloads in which no block is written twice this makes the writeback
  path draw IVs in exactly the uncached order, so the resulting
  ciphertext is bit-identical (see
  ``tests/cache/test_cache_equivalence.py``).
* **Eviction never loses data.**  Evicting a dirty block writes back the
  whole contiguous dirty run around it first (clustered writeback), so
  cache capacity bounds memory, not durability.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from .config import CacheConfig, CacheStats
from .policy import make_policy
from .readahead import SequentialDetector
from ..errors import ConfigurationError
from ..obs.names import KIND_CACHE_HIT
from ..rbd.image import IoResult
from ..rbd.wrapper import ImageLike, ImageWrapper
from ..sim.ledger import OpReceipt
from ..util import contiguous_runs, covers_block, split_block_pieces


class CachedImage(ImageWrapper):
    """A client-side block cache wrapped around an image."""

    _client_only_kind = KIND_CACHE_HIT

    def __init__(self, image: ImageLike,
                 config: Optional[CacheConfig] = None) -> None:
        self.config = config or CacheConfig()
        if self.config.mode == "pwl":
            raise ConfigurationError(
                "cache mode 'pwl' is served by repro.pwl.PwlImage; "
                "construct one directly or go through repro.cache.wrap_image")
        super().__init__(image)
        #: cache granularity (matches the engine's hazard granularity)
        self._block_size = image.block_size
        self._capacity = self.config.capacity_blocks(self._block_size)
        self._policy = make_policy(self.config.policy, self._capacity)
        self._detector = SequentialDetector(self.config.readahead_blocks,
                                            self.config.readahead_trigger)
        self._blocks: Dict[int, bytearray] = {}
        #: dirty blocks in first-dirtied order (writeback mode only)
        self._dirty: "OrderedDict[int, None]" = OrderedDict()
        #: blocks resident because readahead fetched them (for hit stats)
        self._prefetched: set = set()
        self.stats = CacheStats()

    # -- plumbing ---------------------------------------------------------------

    @property
    def capacity_blocks(self) -> int:
        """Resident blocks the cache may hold."""
        return self._capacity

    @property
    def cached_blocks(self) -> int:
        """Blocks currently resident."""
        return len(self._blocks)

    @property
    def dirty_blocks(self) -> int:
        """Resident blocks not yet written back."""
        return len(self._dirty)

    @property
    def writeback(self) -> bool:
        """True when the cache runs in writeback mode."""
        return self.config.mode == "writeback"

    # -- block helpers ----------------------------------------------------------

    def _block_range(self, offset: int, length: int) -> Tuple[int, int]:
        """(first, last) cache block of a byte extent."""
        first = offset // self._block_size
        last = (offset + length - 1) // self._block_size
        return first, last

    def _drop(self, block: int) -> None:
        """Remove a resident block (must already be clean)."""
        self._blocks.pop(block, None)
        self._dirty.pop(block, None)
        self._prefetched.discard(block)
        self._policy.remove(block)

    def _evict_one(self) -> OpReceipt:
        """Evict one policy-chosen victim, writing back its dirty run."""
        victim = self._policy.evict()
        receipt = OpReceipt()
        if victim in self._dirty:
            self.stats.dirty_evictions += 1
            self._ledger.count("cache.dirty_evictions")
            receipt = self._writeback_run_around(victim)
        self._blocks.pop(victim, None)
        self._prefetched.discard(victim)
        self.stats.evictions += 1
        self._ledger.count("cache.evictions")
        return receipt

    def _admit(self, block: int, buffer: bytearray,
               receipt: OpReceipt) -> None:
        """Insert a new resident block, evicting as needed."""
        if block in self._blocks:
            self._blocks[block] = buffer
            self._policy.touch(block)
            return
        while len(self._blocks) >= self._capacity:
            receipt.extend(self._evict_one())
        self._blocks[block] = buffer
        self._policy.admit(block)

    # -- writeback --------------------------------------------------------------

    def _writeback_blocks(self, blocks: Sequence[int]) -> OpReceipt:
        """Write the given dirty blocks back in the order given (one
        vectored call; the image layer groups them into one transaction
        per object) and mark them clean."""
        if not blocks:
            return OpReceipt()
        block_size = self._block_size
        extents = [(block * block_size, memoryview(self._blocks[block]))
                   for block in blocks]
        receipt = self._image.write_extents(extents)
        for block in blocks:
            self._dirty.pop(block, None)
        self.stats.writebacks += 1
        self.stats.writeback_blocks += len(blocks)
        self._ledger.count("cache.writebacks")
        self._ledger.count("cache.writeback_blocks", len(blocks))
        return receipt

    def _writeback_run_around(self, block: int) -> OpReceipt:
        """Write back the maximal contiguous dirty run containing ``block``
        (clustered writeback: neighbours travel in the same transaction)."""
        start = block
        while start - 1 in self._dirty:
            start -= 1
        end = block
        while end + 1 in self._dirty:
            end += 1
        return self._writeback_blocks(list(range(start, end + 1)))

    def _enforce_dirty_ratio(self) -> OpReceipt:
        """Write back oldest-dirtied runs until under the dirty threshold."""
        limit = max(1, int(self.config.dirty_ratio * self._capacity))
        receipt = OpReceipt()
        while len(self._dirty) > limit:
            oldest = next(iter(self._dirty))
            receipt.extend(self._writeback_run_around(oldest))
        return receipt

    # -- data path: reads -------------------------------------------------------

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` (through the cache)."""
        return self.read_with_receipt(offset, length).data

    def read_with_receipt(self, offset: int, length: int) -> IoResult:
        """Read returning both the data and the aggregated cost receipt."""
        pieces, receipt = self.read_extents([(offset, length)])
        return IoResult(data=pieces[0], receipt=receipt)

    def read_extents(self, extents: Sequence[Tuple[int, int]]) -> Tuple[List[bytes], OpReceipt]:
        """Serve a vectored read, fetching misses (plus any readahead
        window) with a single inner ``read_extents`` call."""
        extents = list(extents)
        if self._image.read_snapshot_id is not None:
            # Snapshot reads bypass the cache: resident blocks describe the
            # head, not the snapshot.
            return self._image.read_extents(extents)
        block_size = self._block_size
        needed: List[int] = []
        seen: set = set()
        for offset, length in extents:
            self._image.check_io(offset, length)
            if not length:
                continue
            first, last = self._block_range(offset, length)
            for block in range(first, last + 1):
                if block not in seen:
                    seen.add(block)
                    needed.append(block)

        hits = [b for b in needed if b in self._blocks]
        misses = [b for b in needed if b not in self._blocks]
        # Pin hit buffers locally: a fetch-side admission further down may
        # evict them from the cache before the assembly step reads them.
        local: Dict[int, bytearray] = {b: self._blocks[b] for b in hits}
        for block in hits:
            self._policy.touch(block)
            if block in self._prefetched:
                self._prefetched.discard(block)
                self.stats.readahead_hits += 1
                self._ledger.count("cache.readahead_hits")
        self.stats.read_hits += len(hits)
        self.stats.read_misses += len(misses)
        if hits:
            self._ledger.count("cache.read_hits", len(hits))
        if misses:
            self._ledger.count("cache.read_misses", len(misses))

        prefetch = self._readahead_candidates(extents)
        fetch = sorted(set(misses) | set(prefetch))
        receipt = OpReceipt()
        if fetch:
            fetched, fetch_receipt = self._fetch_blocks(fetch, set(prefetch))
            local.update(fetched)
            receipt.extend(fetch_receipt)

        buffers: List[bytes] = []
        for offset, length in extents:
            if not length:
                buffers.append(b"")
                continue
            first, last = self._block_range(offset, length)
            raw = b"".join(bytes(local[b]) for b in range(first, last + 1))
            start = offset - first * block_size
            buffers.append(raw[start:start + length])
        receipt.bytes_moved += sum(length for _offset, length in extents)
        return buffers, self._account(
            receipt, self._params.cache_hit_cost_us, touched_inner=bool(fetch))

    def _readahead_candidates(self, extents: Sequence[Tuple[int, int]]) -> List[int]:
        """Blocks the sequential detector wants prefetched for this read."""
        if self.config.readahead_blocks <= 0:
            return []
        max_block = (self._image.size - 1) // self._block_size
        candidates: List[int] = []
        for offset, length in extents:
            if not length:
                continue
            window = self._detector.observe(*self._block_range(offset, length))
            if window is None:
                continue
            start, count = window
            candidates.extend(
                block for block in range(start, start + count)
                if block <= max_block and block not in self._blocks)
        return candidates

    def _read_blocks_raw(self, blocks: Sequence[int]
                         ) -> Tuple[Dict[int, bytearray], OpReceipt]:
        """Read whole blocks from the inner image (one vectored call) into
        local buffers, without touching cache residency.

        The read is pinned to the image *head*: cached blocks always
        describe head state, and the write path's read-fill must complete
        partial blocks from the head even while a read-snapshot is set
        (reads themselves bypass the cache in that state, so this path
        never fetches snapshot data).
        """
        block_size = self._block_size
        image_size = self._image.size
        runs = contiguous_runs(sorted(blocks))
        fetch_extents = []
        for start, count in runs:
            offset = start * block_size
            # The image tail may be a partial block; clamp the last extent.
            length = min(count * block_size, image_size - offset)
            fetch_extents.append((offset, length))
        saved_snap = self._image.read_snapshot_id
        if saved_snap is not None:
            self._image.set_read_snapshot_id(None)
        try:
            pieces, receipt = self._image.read_extents(fetch_extents)
        finally:
            if saved_snap is not None:
                self._image.set_read_snapshot_id(saved_snap)
        out: Dict[int, bytearray] = {}
        for (start, count), piece in zip(runs, pieces):
            for i in range(count):
                buffer = bytearray(piece[i * block_size:(i + 1) * block_size])
                if len(buffer) < block_size:
                    buffer.extend(bytes(block_size - len(buffer)))
                out[start + i] = buffer
        return out, receipt

    def _fetch_blocks(self, blocks: List[int], prefetched: set
                      ) -> Tuple[Dict[int, bytearray], OpReceipt]:
        """Fetch ``blocks`` with one vectored inner read and admit them.

        Returns the fetched buffers too: when the cache is smaller than
        one batch, an admission can evict an earlier fetched block before
        the caller consumes it, so callers assemble from the returned map
        rather than from cache residency.
        """
        fetched, receipt = self._read_blocks_raw(blocks)
        admitted = OpReceipt()
        for block, buffer in fetched.items():
            self._admit(block, buffer, admitted)
            if block in prefetched:
                self._prefetched.add(block)
        if prefetched:
            self.stats.readahead_blocks += len(prefetched)
            self._ledger.count("cache.readahead_blocks", len(prefetched))
        receipt.extend(admitted)
        return fetched, receipt

    # -- data path: writes ------------------------------------------------------

    def write(self, offset: int, data) -> OpReceipt:
        """Write ``data`` at ``offset`` (through the cache)."""
        return self.write_extents([(offset, data)])

    def write_extents(self, extents: Sequence[Tuple[int, bytes]]) -> OpReceipt:
        """Apply a vectored write batch under the configured write policy."""
        staged = self._staged(extents)
        if not staged:
            return OpReceipt()
        if self.config.mode == "writethrough":
            return self._write_through(staged)
        return self._write_back(staged)

    def _count_write_blocks(self, blocks: Sequence[int]) -> None:
        hits = sum(1 for b in blocks if b in self._blocks)
        misses = len(blocks) - hits
        self.stats.write_hits += hits
        self.stats.write_misses += misses
        if hits:
            self._ledger.count("cache.write_hits", hits)
        if misses:
            self._ledger.count("cache.write_misses", misses)

    def _write_through(self, staged: List[Tuple[int, memoryview]]) -> OpReceipt:
        """Forward the batch unchanged, then update resident copies.

        The RADOS write stream (transactions, IV draws, ciphertext) is
        bit-identical to the uncached path; the cache only absorbs future
        reads.  Blocks only partially covered by the batch are updated in
        place when resident and skipped (not read-filled) otherwise.
        """
        pieces = split_block_pieces(staged, self._block_size)
        self._count_write_blocks(list(pieces))
        receipt = self._image.write_extents(staged)
        block_size = self._block_size
        admitted = OpReceipt()
        for block, block_pieces in pieces.items():
            fully = (len(block_pieces) == 1
                     and len(block_pieces[0][1]) == block_size)
            if fully:
                self._admit(block, bytearray(block_pieces[0][1]), admitted)
            elif block in self._blocks:
                buffer = self._blocks[block]
                for dst_start, piece in block_pieces:
                    buffer[dst_start:dst_start + len(piece)] = piece
                self._policy.touch(block)
            self._prefetched.discard(block)
        receipt.extend(admitted)
        return self._account(receipt, self._params.cache_hit_cost_us,
                             touched_inner=True)

    def _write_back(self, staged: List[Tuple[int, memoryview]]) -> OpReceipt:
        """Absorb the batch into the cache; defer the cluster write.

        Partial boundary blocks that are not resident are read-filled
        first (the read-modify-write moves from the crypto dispatcher up
        to the cache, where it happens at most once per block's cache
        lifetime instead of once per unaligned write).
        """
        block_size = self._block_size
        pieces = split_block_pieces(staged, block_size)
        self._count_write_blocks(list(pieces))

        # Read-fill: blocks not resident and not fully covered by the batch.
        fill = [block for block, block_pieces in pieces.items()
                if block not in self._blocks
                and not covers_block(block_pieces, block_size)]
        receipt = OpReceipt()
        touched_inner = False
        fills: Dict[int, bytearray] = {}
        if fill:
            touched_inner = True
            # Fill buffers stay local until their pieces are applied: they
            # must not be evicted (and lost) by a same-batch admission.
            fills, fill_receipt = self._read_blocks_raw(fill)
            receipt.extend(fill_receipt)
            self.stats.fill_reads += len(fill)
            self._ledger.count("cache.fill_reads", len(fill))
        # Pin the batch's resident buffers for the same reason: when the
        # batch is larger than the cache, an admission below can evict a
        # block whose pieces have not been applied yet.
        resident: Dict[int, bytearray] = {
            block: self._blocks[block]
            for block in pieces if block in self._blocks}

        for block, block_pieces in pieces.items():
            buffer = resident.get(block)
            if buffer is None:
                buffer = fills.pop(block, None) or bytearray(block_size)
            for dst_start, piece in block_pieces:
                buffer[dst_start:dst_start + len(piece)] = piece
            if block in self._blocks:
                self._policy.touch(block)
            else:
                self._admit(block, buffer, receipt)
            if block not in self._dirty:
                self._dirty[block] = None
            self._prefetched.discard(block)

        dirty_receipt = self._enforce_dirty_ratio()
        if dirty_receipt.latency_us or dirty_receipt.bytes_moved:
            touched_inner = True
            receipt.extend(dirty_receipt)
        if receipt.latency_us or receipt.bytes_moved:
            touched_inner = True
        receipt.bytes_moved += sum(len(data) for _offset, data in staged)
        return self._account(receipt, self._params.cache_hit_cost_us,
                             touched_inner=touched_inner)

    # -- data path: discard / flush ---------------------------------------------

    def discard(self, offset: int, length: int) -> OpReceipt:
        """Deallocate a byte range, preserving the inner image's semantics.

        Every dispatcher zeroes exactly the byte range (a partly covered
        encryption block is read-modify-written below), and the cache does
        not re-model that: dirty *boundary* blocks are written back first
        (their out-of-range bytes must reach the cluster before the
        discard, exactly as on the uncached path, where those writes
        preceded the discard), every touched block is dropped, and the
        discard is forwarded — a later read refetches what it left.
        """
        self._image.check_io(offset, length)
        if not length:
            return OpReceipt()
        block_size = self._block_size
        first, last = self._block_range(offset, length)
        boundary = {b for b in (first, last)
                    if (max(offset, b * block_size),
                        min(offset + length, (b + 1) * block_size))
                    != (b * block_size, (b + 1) * block_size)}
        dirty_boundary = [b for b in self._dirty if b in boundary]
        receipt = OpReceipt()
        if dirty_boundary:
            receipt.extend(self._writeback_blocks(dirty_boundary))
        for block in range(first, last + 1):
            # Fully covered dirty blocks are superseded by the discard on
            # every dispatcher; dropping loses nothing.
            self._drop(block)
        self._detector.reset()
        receipt.extend(self._image.discard(offset, length))
        return self._account(receipt, self._params.cache_hit_cost_us,
                             touched_inner=True)

    def flush(self) -> OpReceipt:
        """Flush barrier: write back all dirty blocks, then the inner image.

        Dirty blocks travel in first-dirtied order through one vectored
        write (one transaction per touched object); when this returns the
        cluster holds every acknowledged write.
        """
        receipt = OpReceipt()
        if self._dirty:
            receipt = self._writeback_blocks(list(self._dirty))
        receipt.extend(self._image.flush())
        self.stats.flushes += 1
        self._ledger.count("cache.flushes")
        return receipt

    def invalidate(self) -> None:
        """Drop every resident block (dirty blocks are NOT written back —
        call :meth:`flush` first to keep them)."""
        self._blocks.clear()
        self._dirty.clear()
        self._prefetched.clear()
        self._policy = make_policy(self.config.policy, self._capacity)
        self._detector.reset()

    # -- management (the base class takes the flush barrier) -------------------

    def set_read_snapshot(self, snap_name: Optional[str]) -> None:
        """Route reads to a snapshot (cache is bypassed while set)."""
        self._detector.reset()
        super().set_read_snapshot(snap_name)

    def resize(self, new_size: int) -> None:
        """Resize after the flush barrier; drops blocks beyond the new end."""
        super().resize(new_size)
        last_valid = (new_size - 1) // self._block_size
        for block in [b for b in self._blocks if b > last_valid]:
            self._drop(block)
