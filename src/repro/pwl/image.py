"""The pwl image front-end: ack on log append, drain to RADOS in order.

:class:`PwlImage` is the :class:`~repro.rbd.wrapper.ImageWrapper` (and so
:class:`~repro.rbd.wrapper.ImageLike`) for cache mode ``"pwl"`` — libRBD's
persistent write-back cache, the production successor of the volatile
ObjectCacher.  The write path:

1. ``crash_point("pre-log-append")`` — a kill here loses the write,
   which is fine: it was never acknowledged;
2. append the batch to the :class:`~repro.pwl.log.PersistentWriteLog`
   (client-local persistent media) — **this is the ack point**;
3. ``crash_point("post-ack-pre-drain")`` — a kill here must NOT lose
   the write: replay recovers it from the log;
4. drain acked records to the cluster **in append order** once the log
   holds more than the configured watermark, with
   ``crash_point("mid-drain")`` before every record — a kill mid-drain
   leaves a prefix drained, and replay of the already-drained suffix is
   idempotent (same plaintext, fresh IVs).

Draining is record-by-record: two logged batches may overlap, and
overlapping extents inside one vectored inner write would collapse into
a single crypto transaction with an undefined winner.  Per-record drains
preserve exactly the append order the application observed.

Reads overlay the pending (acked, undrained) records onto cluster state
in sequence order, so the application always reads its own acked writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..cache.config import CacheConfig
from ..errors import ConfigurationError
from ..obs.names import KIND_PWL_APPEND
from ..faults.plan import (STAGE_MID_DRAIN, STAGE_POST_ACK_PRE_DRAIN,
                           STAGE_PRE_LOG_APPEND, crash_point)
from ..rbd.image import IoResult
from ..rbd.wrapper import ImageLike, ImageWrapper
from ..sim.ledger import OpReceipt
from .log import PersistentWriteLog, PwlMedia


@dataclass
class PwlStats:
    """Counters the pwl image keeps about itself (mirrored into the ledger)."""

    appends: int = 0            #: write batches acked via log append
    appended_bytes: int = 0     #: payload bytes acked via log append
    drains: int = 0             #: drain passes (watermark or barrier)
    drained_records: int = 0    #: records written through to the cluster
    checkpoints: int = 0        #: checkpoint advances (log space reclaims)
    overlay_reads: int = 0      #: reads patched from pending records
    flushes: int = 0            #: explicit flush barriers
    replayed_records: int = 0   #: records replayed by crash recovery


@dataclass
class RecoveryReport:
    """What :meth:`PwlImage.recover` found and did."""

    replayed_records: int       #: complete acked records drained by replay
    discarded_torn_tail: bool   #: a partial tail frame was discarded
    checkpoint_seq: int         #: durable sequence number after replay

    def __str__(self) -> str:
        torn = ", torn tail discarded" if self.discarded_torn_tail else ""
        return (f"pwl recovery: replayed {self.replayed_records} record(s)"
                f"{torn}, checkpoint at seq {self.checkpoint_seq}")


class PwlImage(ImageWrapper):
    """A crash-safe persistent write log wrapped around an image."""

    _client_only_kind = KIND_PWL_APPEND

    def __init__(self, image: ImageLike, config: Optional[CacheConfig] = None,
                 media: Optional[PwlMedia] = None) -> None:
        self.config = config or CacheConfig(mode="pwl")
        if self.config.mode != "pwl":
            raise ConfigurationError(
                f"PwlImage requires cache mode 'pwl', got {self.config.mode!r}")
        # First: the replay at the end of this constructor drains through
        # the attributes the base sets.
        super().__init__(image)
        self._log = PersistentWriteLog(media if media is not None else PwlMedia(),
                                       params=self._params)
        #: log bytes above which the write path drains oldest records
        #: (``dirty_ratio`` doubles as the drain watermark, as in writeback)
        self._watermark = max(1, int(self.config.dirty_ratio
                                     * int(self.config.size)))
        self.stats = PwlStats()
        #: optional hook called with the sequence number the moment a
        #: write is acked (its log append completed); the crash harness
        #: uses it to record the exact ack boundary.
        self.ack_listener: Optional[Callable[[int], None]] = None
        if self._log.pending_records:
            # Opened over media holding acked-but-undrained records:
            # recovery replays them before the image serves IO.
            self.stats.replayed_records = self._log.pending_records
            self._ledger.count("pwl.replayed_records",
                               self._log.pending_records)
            self._drain(self._log.pending_records)

    # -- plumbing --------------------------------------------------------------

    @property
    def log(self) -> PersistentWriteLog:
        """The persistent write log (its media survives crashes)."""
        return self._log

    @property
    def media(self) -> PwlMedia:
        """The durable log media — grab this before a crash, hand it to
        :meth:`recover` after."""
        return self._log.media

    @property
    def pending_records(self) -> int:
        """Acked write batches not yet drained to the cluster."""
        return self._log.pending_records

    @classmethod
    def recover(cls, image: ImageLike, media: PwlMedia,
                config: Optional[CacheConfig] = None,
                ) -> Tuple["PwlImage", RecoveryReport]:
        """Reopen an image over surviving log media after a crash.

        Replays every complete acked record to the cluster in append
        order (discarding a torn tail frame, if the crash interrupted an
        append), checkpoints, and returns the ready image plus a report.
        """
        pwl = cls(image, config=config, media=media)
        report = RecoveryReport(
            replayed_records=pwl.stats.replayed_records,
            discarded_torn_tail=not pwl._log.recovered_clean,
            checkpoint_seq=pwl._log.checkpoint_seq)
        return pwl, report

    # -- drain -----------------------------------------------------------------

    def _drain(self, count: Optional[int] = None) -> OpReceipt:
        """Write the oldest ``count`` pending records (all when ``None``)
        through to the cluster in append order, then checkpoint.

        One inner ``write_extents`` call per record: records may overlap,
        and append order must win — coalescing across records would put
        overlapping extents into one transaction with an undefined
        winner.  ``crash_point("mid-drain")`` precedes every record, so a
        kill leaves a drained prefix; replaying it again is idempotent
        (same plaintext, fresh IVs).
        """
        pending = self._log.pending
        if count is None:
            count = len(pending)
        if count <= 0:
            return OpReceipt()
        receipt = OpReceipt()
        drained_to = None
        try:
            for seq, extents in list(pending[:count]):
                crash_point(STAGE_MID_DRAIN)
                receipt.extend(self._image.write_extents(
                    [(offset, memoryview(data)) for offset, data in extents]))
                drained_to = seq
                self.stats.drained_records += 1
                self._ledger.count("pwl.drained_records")
        finally:
            # Even when a crash lands mid-drain, the drained prefix is on
            # the cluster (inner writes are synchronous), so advancing
            # the checkpoint over it is durable bookkeeping, not a lie.
            if drained_to is not None:
                self._log.checkpoint(drained_to)
                self.stats.checkpoints += 1
                self._ledger.count("pwl.checkpoints")
        self.stats.drains += 1
        self._ledger.count("pwl.drains")
        return receipt

    def _drain_over_watermark(self) -> Tuple[OpReceipt, bool]:
        """Drain oldest records until log occupancy is at the watermark."""
        receipt = OpReceipt()
        drained = False
        while (self._log.bytes_used > self._watermark
               and self._log.pending_records):
            drained = True
            receipt.extend(self._drain(1))
        return receipt, drained

    # -- data path: writes -----------------------------------------------------

    def write(self, offset: int, data) -> OpReceipt:
        """Write ``data`` at ``offset`` (acked at the log append)."""
        return self.write_extents([(offset, data)])

    def write_extents(self, extents: Sequence[Tuple[int, bytes]]) -> OpReceipt:
        """Ack a vectored write batch after a local log append, then drain
        in order if the log is over its watermark."""
        staged = self._staged(extents)     # the log append copies them
        if not staged:
            return OpReceipt()
        crash_point(STAGE_PRE_LOG_APPEND)
        seq, cost = self._log.append(staged)
        self.stats.appends += 1
        appended = sum(len(data) for _offset, data in staged)
        self.stats.appended_bytes += appended
        self._ledger.count("pwl.appends")
        self._ledger.count("pwl.appended_bytes", appended)
        if self.ack_listener is not None:
            self.ack_listener(seq)
        crash_point(STAGE_POST_ACK_PRE_DRAIN)
        receipt, touched_inner = self._drain_over_watermark()
        receipt.bytes_moved += appended
        return self._account(receipt, cost, touched_inner)

    # -- data path: reads ------------------------------------------------------

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` (pending writes overlaid)."""
        return self.read_with_receipt(offset, length).data

    def read_with_receipt(self, offset: int, length: int) -> IoResult:
        """Read returning both the data and the aggregated cost receipt."""
        pieces, receipt = self.read_extents([(offset, length)])
        return IoResult(data=pieces[0], receipt=receipt)

    def read_extents(self, extents: Sequence[Tuple[int, int]],
                     ) -> Tuple[List[bytes], OpReceipt]:
        """Serve a vectored read from the cluster, patching in the pending
        (acked, undrained) records in append order."""
        extents = list(extents)
        if self._image.read_snapshot_id is not None:
            # Snapshot reads bypass the overlay: snapshots are created
            # behind a flush barrier, so they never miss pending writes.
            return self._image.read_extents(extents)
        pieces, receipt = self._image.read_extents(extents)
        pending = self._log.pending
        if not pending:
            return pieces, receipt
        patched: List[bytes] = []
        overlaid = False
        for (offset, length), piece in zip(extents, pieces):
            buffer = None
            end = offset + length
            for _seq, record in pending:
                for woff, wdata in record:
                    wend = woff + len(wdata)
                    lo, hi = max(offset, woff), min(end, wend)
                    if lo >= hi:
                        continue
                    if buffer is None:
                        buffer = bytearray(piece)
                    buffer[lo - offset:hi - offset] = \
                        wdata[lo - woff:hi - woff]
                    overlaid = True
            patched.append(bytes(buffer) if buffer is not None else piece)
        if overlaid:
            self.stats.overlay_reads += 1
            self._ledger.count("pwl.overlay_reads")
        return patched, receipt

    # -- data path: discard / flush --------------------------------------------

    def discard(self, offset: int, length: int) -> OpReceipt:
        """Deallocate a byte range.  Pending records drain first so the
        discard lands after every acked write, exactly as the application
        observed the order."""
        self._image.check_io(offset, length)
        if not length:
            return OpReceipt()
        receipt = self._drain()
        receipt.extend(self._image.discard(offset, length))
        return receipt

    def flush(self) -> OpReceipt:
        """Flush barrier: drain every pending record in order, checkpoint,
        then flush the inner image.  When this returns, the cluster holds
        every acknowledged write and the log is empty."""
        receipt = self._drain()
        receipt.extend(self._image.flush())
        self.stats.flushes += 1
        self._ledger.count("pwl.flushes")
        return receipt
