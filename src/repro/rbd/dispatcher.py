"""Object dispatchers: the layer that turns per-object extents into RADOS
operations.

``RawObjectDispatcher`` writes plaintext bytes at the same in-object offset
the striping produced — this is an unencrypted image.  The encryption
formats in :mod:`repro.encryption` provide a ``CryptoObjectDispatcher`` that
encrypts 4 KiB blocks and persists per-sector metadata according to the
selected layout; the :class:`~repro.rbd.image.Image` only ever talks to the
dispatcher interface.

The interface is vectored and has one data path: a dispatcher receives an
object's whole share of an image IO via ``write_extents``/``read_extents``
and turns it into a *single* RADOS transaction / read operation.  A scalar
image read or write is a one-extent batch (:class:`~repro.rbd.image.Image`
says so once), so there is no per-extent twin to keep in step.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .striping import object_name
from ..errors import ObjectNotFoundError
from ..rados.client import IoCtx
from ..rados.transaction import ReadOperation, WriteTransaction
from ..sim.ledger import OpReceipt


class ObjectDispatcher:
    """Interface implemented by the raw and encrypted dispatchers."""

    def write_extents(self, object_no: int,
                      extents: Sequence[Tuple[int, bytes]]) -> OpReceipt:
        """Write a batch of (offset, data) extents to one object as one
        transaction."""
        raise NotImplementedError

    def read_extents(self, object_no: int,
                     extents: Sequence[Tuple[int, int]]) -> Tuple[List[bytes], OpReceipt]:
        """Read a batch of (offset, length) extents from one object with one
        read operation; one buffer per requested extent, in order."""
        raise NotImplementedError

    def discard(self, object_no: int, offset: int, length: int) -> OpReceipt:
        """Deallocate a range of an object: it reads as zeros afterwards and
        no byte outside it changes."""
        raise NotImplementedError

    def flush(self) -> None:
        """Flush any buffered state (the simulator writes through)."""


class RawObjectDispatcher(ObjectDispatcher):
    """Plaintext dispatcher: in-object offsets map 1:1 to stored offsets."""

    def __init__(self, ioctx: IoCtx, image_id: str, object_size: int) -> None:
        self._ioctx = ioctx
        self._image_id = image_id
        self._object_size = object_size

    def _name(self, object_no: int) -> str:
        return object_name(self._image_id, object_no)

    def discard(self, object_no: int, offset: int, length: int) -> OpReceipt:
        txn = WriteTransaction().zero(offset, length)
        return self._ioctx.operate_write(self._name(object_no), txn,
                                         object_size_hint=self._object_size)

    def write_extents(self, object_no: int,
                      extents: Sequence[Tuple[int, bytes]]) -> OpReceipt:
        extents = [(offset, data) for offset, data in extents if data]
        if not extents:
            return OpReceipt()
        txn = WriteTransaction().write_extents(extents)
        txn.client_extents = len(extents)
        return self._ioctx.operate_write(self._name(object_no), txn,
                                         object_size_hint=self._object_size)

    def read_extents(self, object_no: int,
                     extents: Sequence[Tuple[int, int]]) -> Tuple[List[bytes], OpReceipt]:
        if not extents:
            return [], OpReceipt()
        readop = ReadOperation().read_extents(extents)
        try:
            result = self._ioctx.operate_read(self._name(object_no), readop)
        except ObjectNotFoundError:
            # Sparse region that has never been written: reads as zeros.
            return [bytes(length) for _offset, length in extents], OpReceipt()
        pieces: List[bytes] = []
        for (_offset, length), op_result in zip(extents, result.results):
            data = op_result.data
            if len(data) < length:
                data = data + bytes(length - len(data))
            pieces.append(data)
        return pieces, result.receipt
