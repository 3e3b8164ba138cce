"""Crypto object dispatcher: the encryption hook installed into an image.

This is the reproduction of the libRBD change the paper describes: the
dispatcher sits between the image's striping logic and RADOS, encrypts
4 KiB blocks with the configured codec, and persists each block's
per-sector metadata according to the configured layout, in the *same*
atomic transaction as the data.

Partial-block writes are completed by a read-modify-write at the
encryption layer (read the surrounding blocks, splice, re-encrypt with a
fresh IV), matching how the real crypto object dispatch layer aligns IO to
the encryption block size.

There is one data path, and it is vectored: ``write_extents`` /
``read_extents`` receive everything an object gets from one image IO — a
lone scalar write, an engine window, a cache writeback — and all the blocks
it touches are read-modify-written with a *single* read operation,
encrypted or decrypted in one pass, and their ciphertext plus *all*
per-sector metadata are coalesced into a *single*
:class:`WriteTransaction` (one round trip and one fixed transaction cost
per object per batch).  A queue-depth-1 write, the behaviour the paper's
testbed measures, is a one-extent batch; ``discard`` zeroes partly covered
blocks through the same write path.  The scalar names ``write``/``read``
remain as shims only because ``perf/trace.py`` patches them by name.

The write path is zero-copy on the plaintext side: extents travel as
memoryviews from the pipeline down, blocks fully covered by one extent are
encrypted straight out of the caller's buffer, and only partial boundary
blocks are assembled in a per-block buffer.  Bytes materialise once, when
the transaction ops are built.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .codecs import SectorCodec
from .layouts import MetadataLayout
from ..errors import IntegrityError, ObjectNotFoundError
from ..rados.client import IoCtx
from ..rados.transaction import ReadOperation, WriteTransaction
from ..rbd.dispatcher import ObjectDispatcher
from ..rbd.striping import object_name
from ..sim.ledger import OpReceipt, RES_CLIENT_CPU
from ..util import (contiguous_runs, covers_block, round_down, round_up,
                    split_block_pieces)


class CryptoObjectDispatcher(ObjectDispatcher):
    """Encrypting dispatcher used by all four layouts."""

    def __init__(self, ioctx: IoCtx, image_id: str, object_size: int,
                 block_size: int, codec: SectorCodec,
                 layout: MetadataLayout) -> None:
        self._ioctx = ioctx
        self._image_id = image_id
        self._object_size = object_size
        self._block_size = block_size
        self._codec = codec
        self._layout = layout
        self._blocks_per_object = object_size // block_size
        self._params = ioctx.cluster.params
        self._ledger = ioctx.cluster.ledger

    # -- helpers -----------------------------------------------------------------

    @property
    def codec(self) -> SectorCodec:
        """The sector codec in use."""
        return self._codec

    @property
    def block_size(self) -> int:
        """Encryption block ("sector") size in bytes."""
        return self._block_size

    @property
    def layout(self) -> MetadataLayout:
        """The metadata layout in use."""
        return self._layout

    def _name(self, object_no: int) -> str:
        return object_name(self._image_id, object_no)

    def _lba(self, object_no: int, block_index: int) -> int:
        return object_no * self._blocks_per_object + block_index

    def _charge_client_crypto(self, block_count: int, writing: bool) -> float:
        params = self._params
        cost = params.crypto_block_cost_us * block_count
        if writing and self._codec.metadata_size:
            cost += params.iv_generation_cost_us * block_count
        self._ledger.busy(RES_CLIENT_CPU, cost)
        # Route the same microseconds into the event-engine trace so the
        # replay's client CPU queue sees crypto demand too.
        self._ledger.attribute_client_cpu(cost)
        self._ledger.count("crypto.blocks", block_count)
        return cost

    def _decrypt_blocks(self, object_no: int, first_block: int,
                        ciphertexts: List[bytes],
                        metadatas: List[Optional[bytes]]) -> List[bytes]:
        plaintexts: List[bytes] = []
        for i, (ciphertext, metadata) in enumerate(zip(ciphertexts, metadatas)):
            if metadata is None and not any(ciphertext):
                # Never-written (sparse) block: reads back as zeros.
                plaintexts.append(bytes(self._block_size))
                continue
            if metadata is None and self._codec.metadata_size:
                raise IntegrityError(
                    f"missing per-sector metadata for block {first_block + i} "
                    f"of object {object_no} (corrupted or partially written)")
            lba = self._lba(object_no, first_block + i)
            plaintexts.append(self._codec.decrypt_sector(lba, ciphertext, metadata))
        return plaintexts

    def _read_block_runs(self, object_no: int,
                         runs: Sequence[Tuple[int, int]],
                         from_head: bool = False
                         ) -> Tuple[Dict[int, bytes], OpReceipt]:
        """Read and decrypt several contiguous runs with ONE read operation.

        Returns a block-index -> plaintext map.  This is the batched
        read-modify-write primitive: all partial blocks of a whole batch
        cost a single round trip to the object's primary OSD.

        ``from_head`` pins the read to the object head even while the
        IoCtx routes reads to a snapshot: writes always land on the head,
        so their read-modify-write must complete partial blocks from head
        state or bytes outside the write would be reverted to the
        snapshot's content.
        """
        if not runs:
            return {}, OpReceipt()
        readop = ReadOperation()
        slices: List[Tuple[int, int]] = []
        for first_block, block_count in runs:
            ops_before = len(readop)
            self._layout.build_read(readop, first_block, block_count)
            slices.append((ops_before, len(readop)))
        total_blocks = sum(count for _first, count in runs)
        saved_snap = self._ioctx.read_snap if from_head else None
        if saved_snap is not None:
            self._ioctx.snap_set_read(None)
        try:
            result = self._ioctx.operate_read(self._name(object_no), readop)
        except ObjectNotFoundError:
            return ({first + i: bytes(self._block_size)
                     for first, count in runs for i in range(count)},
                    OpReceipt())
        finally:
            if saved_snap is not None:
                self._ioctx.snap_set_read(saved_snap)
        plaintexts: Dict[int, bytes] = {}
        for (first_block, block_count), (start, end) in zip(runs, slices):
            ciphertexts, metadatas = self._layout.parse_read(
                result.results[start:end], first_block, block_count)
            for i, plaintext in enumerate(self._decrypt_blocks(
                    object_no, first_block, ciphertexts, metadatas)):
                plaintexts[first_block + i] = plaintext
        crypto_us = self._charge_client_crypto(total_blocks, writing=False)
        receipt = result.receipt
        receipt.latency_us += crypto_us
        return plaintexts, receipt

    # -- data path ------------------------------------------------------------------

    # No caller is left for the two scalar names; they stay because
    # ``perf/trace.py::BOUNDARIES`` looks them up in ``vars()`` of this
    # class.  The benchmark PR that edits that table may drop them.

    def write(self, object_no: int, offset: int, data) -> OpReceipt:
        """A one-extent :meth:`write_extents`."""
        return self.write_extents(object_no, [(offset, data)])

    def read(self, object_no: int, offset: int, length: int) -> Tuple[bytes, OpReceipt]:
        """A one-extent :meth:`read_extents`."""
        pieces, receipt = self.read_extents(object_no, [(offset, length)])
        return pieces[0], receipt

    def write_extents(self, object_no: int,
                      extents: Sequence[Tuple[int, bytes]]) -> OpReceipt:
        """Write a whole per-object batch as ONE RADOS transaction.

        The read-modify-write of every partial boundary block in the batch
        is served by a single read operation, the batch is encrypted in one
        pass, and the ciphertext runs plus *all* their per-sector metadata
        are coalesced into one atomic transaction (the OSD pays its fixed
        per-transaction cost once for the batch).

        The plaintext path is zero-copy: extents arrive as (or are wrapped
        into) memoryviews, blocks fully covered by a single extent are
        sliced straight out of the caller's buffer, and only partial
        boundary blocks (and the rare overlap) are spliced into a per-block
        assembly buffer before encryption.
        """
        extents = [(offset, memoryview(data)) for offset, data in extents
                   if len(data)]
        if not extents:
            return OpReceipt()
        block_size = self._block_size

        # Per-block pieces in arrival order: (offset within block, view).
        pieces = split_block_pieces(extents, block_size)
        touched = sorted(pieces)

        # One batched RMW read for every block the batch touches without
        # covering it (the union of all its pieces counts, so no stale
        # data is read back unnecessarily).
        partial = [block for block in touched
                   if not covers_block(pieces[block], block_size)]
        plaintexts, pre_receipt = self._read_block_runs(
            object_no, contiguous_runs(partial), from_head=True)

        # Encrypt each block exactly once, in batch arrival order (the piece
        # map's first-touch order: extent order, ascending blocks within an
        # extent) so the IV stream is that of the same extents written one
        # by one, for non-overlapping batches.
        ciphertexts: Dict[int, bytes] = {}
        metadatas: Dict[int, bytes] = {}
        for block, block_pieces in pieces.items():
            if len(block_pieces) == 1 and len(block_pieces[0][1]) == block_size:
                # Fully covered by one extent: encrypt the caller's buffer
                # in place (no copy).
                buffer = block_pieces[0][1]
            else:
                existing = plaintexts.get(block)
                buffer = (bytearray(existing) if existing is not None
                          else bytearray(block_size))
                for dst_start, piece in block_pieces:
                    buffer[dst_start:dst_start + len(piece)] = piece
            sector = self._codec.encrypt_sector(self._lba(object_no, block),
                                                buffer)
            ciphertexts[block] = sector.ciphertext
            metadatas[block] = sector.metadata
        crypto_us = self._charge_client_crypto(len(touched), writing=True)

        txn = WriteTransaction()
        for first_block, block_count in contiguous_runs(touched):
            run = range(first_block, first_block + block_count)
            self._layout.build_write(txn, first_block,
                                     [ciphertexts[b] for b in run],
                                     [metadatas[b] for b in run])
        txn.client_extents = len(extents)
        receipt = self._ioctx.operate_write(
            self._name(object_no), txn,
            object_size_hint=self._layout.physical_object_size())
        receipt.latency_us += crypto_us
        pre_receipt.extend(receipt)
        return pre_receipt

    def read_extents(self, object_no: int,
                     extents: Sequence[Tuple[int, int]]) -> Tuple[List[bytes], OpReceipt]:
        """Read a whole per-object batch with ONE RADOS read operation.

        The union of all blocks the batch touches is fetched (data plus
        per-sector metadata) in a single operation and decrypted in one
        pass; each requested extent is then sliced out of the decrypted
        blocks.
        """
        block_size = self._block_size
        spans = [range(offset // block_size,
                       (offset + length - 1) // block_size + 1)
                 if length else range(0) for offset, length in extents]
        touched = sorted({block for span in spans for block in span})
        plaintexts, receipt = self._read_block_runs(
            object_no, contiguous_runs(touched))
        pieces: List[bytes] = []
        for (offset, length), span in zip(extents, spans):
            raw = b"".join([plaintexts[block] for block in span])
            start = offset - span.start * block_size
            pieces.append(raw[start:start + length])
        return pieces, receipt

    def discard(self, object_no: int, offset: int, length: int) -> OpReceipt:
        """Zero exactly ``[offset, offset + length)``.

        Whole blocks are deallocated, data and per-sector metadata in one
        transaction; the covered part of a partly covered head or tail
        block is a write of zeros through :meth:`write_extents`
        (read-modify-write, fresh IV), so no byte outside the range changes
        and data never parts from its metadata.
        """
        block_size = self._block_size
        end = offset + length
        whole_start = min(round_up(offset, block_size), end)
        whole_end = max(round_down(end, block_size), whole_start)
        receipt = self.write_extents(object_no, [
            (start, bytes(stop - start))
            for start, stop in ((offset, whole_start), (whole_end, end))])
        if whole_end > whole_start:
            txn = WriteTransaction()
            self._layout.build_discard(txn, whole_start // block_size,
                                       (whole_end - whole_start) // block_size)
            receipt.extend(self._ioctx.operate_write(
                self._name(object_no), txn,
                object_size_hint=self._layout.physical_object_size()))
        return receipt


class JournaledCryptoObjectDispatcher(CryptoObjectDispatcher):
    """Ablation A1: data/metadata consistency via a journal, not a transaction.

    Brož et al. (dm-crypt + dm-integrity, §2.3 of the paper) keep the data
    sector and its metadata consistent by writing both through a journal,
    which costs an extra full copy of the data and roughly halves write
    throughput.  This dispatcher reproduces that strategy on top of any
    layout: every write first goes to a per-object journal object, then the
    regular (atomic) write is issued.
    """

    def write_extents(self, object_no: int,
                      extents: Sequence[Tuple[int, bytes]]) -> OpReceipt:
        extents = [(offset, data) for offset, data in extents if data]
        if not extents:
            return OpReceipt()
        # One journal transaction covers the whole batch (the journal is
        # batched exactly like the main write it protects).
        receipt = self._journal_batch(object_no, extents)
        receipt.extend(super().write_extents(object_no, extents))
        return receipt

    def _journal_batch(self, object_no: int,
                       extents: Sequence[Tuple[int, bytes]]) -> OpReceipt:
        """Write journal entries for every block the extents touch.

        The journal transaction carries placeholder payload, not client
        data extents — ``client_extents`` stays unset so it is not counted
        toward the batching-amortization counters (only the main write is).
        """
        entry_size = self._block_size + self._codec.metadata_size
        journal_extents = []
        for offset, data in extents:
            aligned_start = round_down(offset, self._block_size)
            aligned_end = round_up(offset + len(data), self._block_size)
            first_block = aligned_start // self._block_size
            block_count = (aligned_end - aligned_start) // self._block_size
            journal_extents.append((first_block * entry_size,
                                    bytes(block_count * entry_size)))
        journal_name = f"rbd_journal.{self._image_id}.{object_no:016x}"
        txn = WriteTransaction().write_extents(journal_extents)
        receipt = self._ioctx.operate_write(
            journal_name, txn,
            object_size_hint=self._blocks_per_object * entry_size)
        self._ledger.count("crypto.journal_writes")
        return receipt
