"""The persistent write log: client-local media, framed records, replay.

The log models libRBD's pwl SSD/PMEM pool as a :class:`PwlMedia` object
that survives a client crash (the simulation's "crash" discards every
Python object *except* the media and the cluster).  Records are framed
with the same magic/length/crc32 envelope as the kvstore WAL
(:func:`repro.kvstore.wal.encode_record`), so a torn tail — a crash in
the middle of an append — is detected and discarded by
:func:`repro.kvstore.wal.recover_records` instead of poisoning replay.

Record payloads carry a monotonically increasing sequence number; the
media's ``checkpoint_seq`` marks the newest record known durable on the
cluster.  Reopening the log replays every complete record newer than the
checkpoint — exactly the writes that were acked but possibly never
drained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..faults.plan import STAGE_TORN_LOG_TAIL, ClientCrash, torn_tail_bytes
from ..kvstore.wal import WAL_FRAME_OVERHEAD, encode_record, recover_records
from ..sim.costparams import CostParameters


class PwlReplayError(ReproError):
    """A structurally complete log record failed to decode."""


@dataclass
class PwlMedia:
    """The client-local persistent media backing one write log.

    Survives crashes: tests grab the reference before killing the client
    and hand it to :meth:`PwlImage.recover`.  ``checkpoint_seq`` stands
    in for the pwl superblock pointer; updating it is atomic (a real pwl
    updates a single root pointer after the new root is durable).
    """

    buffer: bytearray = field(default_factory=bytearray)
    checkpoint_seq: int = 0


def encode_pwl_record(seq: int, extents: Sequence[Tuple[int, bytes]]) -> bytes:
    """Serialize one logged write batch: seq, then (offset, data) extents."""
    parts = [seq.to_bytes(8, "little"), len(extents).to_bytes(4, "little")]
    for offset, data in extents:
        parts.append(offset.to_bytes(8, "little"))
        parts.append(len(data).to_bytes(4, "little"))
        parts.append(bytes(data))
    return b"".join(parts)


def decode_pwl_record(payload: bytes) -> Tuple[int, List[Tuple[int, bytes]]]:
    """Inverse of :func:`encode_pwl_record`."""
    if len(payload) < 12:
        raise PwlReplayError("pwl record shorter than its header")
    seq = int.from_bytes(payload[:8], "little")
    count = int.from_bytes(payload[8:12], "little")
    pos = 12
    extents: List[Tuple[int, bytes]] = []
    for _ in range(count):
        if len(payload) < pos + 12:
            raise PwlReplayError("pwl record extent header out of bounds")
        offset = int.from_bytes(payload[pos:pos + 8], "little")
        length = int.from_bytes(payload[pos + 8:pos + 12], "little")
        pos += 12
        if len(payload) < pos + length:
            raise PwlReplayError("pwl record extent data out of bounds")
        extents.append((offset, payload[pos:pos + length]))
        pos += length
    if pos != len(payload):
        raise PwlReplayError("pwl record has trailing bytes")
    return seq, extents


class PersistentWriteLog:
    """Append/replay machinery over one :class:`PwlMedia`.

    Opening the log *is* recovery: complete records newer than the
    media's checkpoint become the pending (acked, not yet drained) set,
    and a torn tail record — the signature of a crash mid-append — is
    discarded, never raised (``recovered_clean`` reports it).
    """

    def __init__(self, media: PwlMedia,
                 params: Optional[CostParameters] = None) -> None:
        self._media = media
        self._params = params if params is not None else CostParameters()
        payloads, clean = recover_records(media.buffer)
        self.recovered_clean = clean
        #: records found pending at open time (the replay set)
        self.recovered_records = 0
        self._pending: List[Tuple[int, List[Tuple[int, bytes]]]] = []
        next_seq = media.checkpoint_seq + 1
        for payload in payloads:
            seq, extents = decode_pwl_record(payload)
            next_seq = max(next_seq, seq + 1)
            if seq > media.checkpoint_seq:
                self._pending.append((seq, extents))
        self._pending.sort(key=lambda entry: entry[0])
        self.recovered_records = len(self._pending)
        self._next_seq = next_seq
        if not clean or len(self._pending) != len(payloads):
            self._rewrite_media()   # shed the torn tail / stale records

    # -- introspection ---------------------------------------------------------

    @property
    def media(self) -> PwlMedia:
        """The durable media (hand this to recovery after a crash)."""
        return self._media

    @property
    def checkpoint_seq(self) -> int:
        """Newest sequence number known durable on the cluster."""
        return self._media.checkpoint_seq

    @property
    def pending(self) -> List[Tuple[int, List[Tuple[int, bytes]]]]:
        """Acked-but-undrained records, oldest first (shared, do not mutate)."""
        return self._pending

    @property
    def pending_records(self) -> int:
        """Number of acked-but-undrained records."""
        return len(self._pending)

    @property
    def bytes_used(self) -> int:
        """Bytes of media the log currently occupies."""
        return len(self._media.buffer)

    def frame_size(self, extents: Sequence[Tuple[int, bytes]]) -> int:
        """On-media size one appended batch would occupy."""
        payload = 12 + sum(12 + len(data) for _offset, data in extents)
        return WAL_FRAME_OVERHEAD + payload

    def append_cost_us(self, nbytes: int) -> float:
        """Client-side cost of persisting ``nbytes`` to the log media."""
        params = self._params
        return (params.pwl_append_latency_us
                + nbytes / (params.pwl_bandwidth_mbps * 1024 * 1024) * 1e6)

    # -- mutation --------------------------------------------------------------

    def append(self, extents: Sequence[Tuple[int, bytes]]) -> Tuple[int, float]:
        """Persist one write batch; returns ``(seq, client_cost_us)``.

        The ack point of the pwl write path: once this returns, the batch
        survives any crash.  An armed ``torn-log-tail`` fault persists
        only a prefix of the frame and raises
        :class:`~repro.faults.plan.ClientCrash` — the batch was *not*
        acked and recovery discards the partial frame.
        """
        seq = self._next_seq
        copied = [(offset, bytes(data)) for offset, data in extents]
        frame = encode_record(encode_pwl_record(seq, copied))
        keep = torn_tail_bytes(len(frame))
        if keep is not None:
            self._media.buffer.extend(frame[:keep])
            raise ClientCrash(STAGE_TORN_LOG_TAIL,
                              f"persisted {keep}/{len(frame)} frame bytes")
        self._media.buffer.extend(frame)
        self._next_seq = seq + 1
        self._pending.append((seq, copied))
        return seq, self.append_cost_us(len(frame))

    def checkpoint(self, seq: int) -> None:
        """Mark every record up to ``seq`` durable on the cluster and
        reclaim its media space."""
        if seq <= self._media.checkpoint_seq:
            return
        self._media.checkpoint_seq = seq
        self._pending = [entry for entry in self._pending if entry[0] > seq]
        self._rewrite_media()

    def _rewrite_media(self) -> None:
        frames = bytearray()
        for seq, extents in self._pending:
            frames.extend(encode_record(encode_pwl_record(seq, extents)))
        self._media.buffer[:] = frames
