"""The image surface, declared once, and the base of the front-ends on it.

:class:`ImageLike` is all a caller may ask of an image, whether it holds
a bare :class:`~repro.rbd.image.Image` or any stack of cache, pwl and
clone front-ends over one.  Nothing else is forwarded: ``header``,
``list_snapshots``, ``remove_snapshot``, ``set_dispatcher``, … have no
caller through a wrapper and stay reachable as ``wrapper.image.…``.

:class:`ImageWrapper` owns what the front-ends share.  ``flush()`` *is*
the barrier (a front-end that buffers drains in it), so the base takes it
before snapshot, protect, resize and flatten and no front-end re-encodes
the rule.  ``write``, ``read``, ``read_with_receipt``, ``write_extents``,
``read_extents`` and ``flush`` stay in every class's own ``__dict__``:
``perf/trace.py`` patches ``vars(cls)[name]`` per layer, and an inherited
shim would put one layer's wall-clock time on another's account.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, Tuple

from .dispatcher import ObjectDispatcher
from .image import ImageSnapshot, IoResult
from ..rados.client import IoCtx
from ..sim.ledger import OpReceipt, OpTrace, RES_CLIENT_CPU
from ..util import as_readonly_view


class ImageLike(Protocol):
    """What may be asked of an image, wrapped or not."""

    @property
    def name(self) -> str:
        """Image name."""

    @property
    def size(self) -> int:
        """Image size in bytes."""

    @property
    def object_size(self) -> int:
        """Size of each data object in bytes."""

    @property
    def block_size(self) -> int:
        """IO granularity of the layer below: the encryption block size,
        or the device sector size of an unencrypted image."""

    @property
    def ioctx(self) -> IoCtx:
        """The IO context (and through it the cluster, ledger, params)."""

    @property
    def dispatcher(self) -> ObjectDispatcher:
        """The object dispatcher installed in the bottom image."""

    @property
    def read_snapshot_id(self) -> Optional[int]:
        """Snapshot id reads are routed to (``None`` = head)."""

    def check_io(self, offset: int, length: int) -> None:
        """Raise :class:`RbdError` unless the byte range is in bounds."""

    def write(self, offset: int, data) -> OpReceipt:
        """Write a bytes-like object at a byte offset."""

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at a byte offset."""

    def read_with_receipt(self, offset: int, length: int) -> IoResult:
        """Read returning the data and its cost receipt."""

    def write_extents(self, extents: Sequence[Tuple[int, bytes]]) -> OpReceipt:
        """Write ``(offset, data)`` extents as one batched operation."""

    def read_extents(self, extents: Sequence[Tuple[int, int]]
                     ) -> Tuple[List[bytes], OpReceipt]:
        """Read ``(offset, length)`` extents as one batched operation."""

    def discard(self, offset: int, length: int) -> OpReceipt:
        """Deallocate a byte range."""

    def flush(self) -> OpReceipt:
        """Barrier: on return the cluster holds every acknowledged write."""

    def resize(self, new_size: int) -> None:
        """Grow or shrink the image."""

    def create_snapshot(self, snap_name: str) -> ImageSnapshot:
        """Snapshot the image with every acknowledged write in it."""

    def protect_snapshot(self, snap_name: str) -> ImageSnapshot:
        """Mark a snapshot protected so it can serve as a clone parent."""

    def set_read_snapshot(self, snap_name: Optional[str]) -> None:
        """Route reads to a named snapshot (``None`` = head)."""

    def set_read_snapshot_id(self, snap_id: Optional[int]) -> None:
        """Route reads to a snapshot id (``None`` = head)."""

    def flatten(self) -> OpReceipt:
        """Migrate parent-backed objects in and detach from the parent
        (an empty receipt when there is no parent)."""


class ImageWrapper:
    """Base of every front-end stacked on an image (itself :class:`ImageLike`
    once a subclass supplies the data path)."""

    #: op-trace kind of an op that never reached the cluster (front-ends
    #: that charge client-side work through :meth:`_account` set it)
    _client_only_kind: str

    def __init__(self, image: ImageLike) -> None:
        self._image = image
        cluster = image.ioctx.cluster
        self._ledger = cluster.ledger
        self._params = cluster.params

    # -- answered by the wrapped image -----------------------------------------

    @property
    def image(self) -> ImageLike:
        """The wrapped image (reach undeclared :class:`Image` API here)."""
        return self._image

    @property
    def name(self) -> str:
        """Image name."""
        return self._image.name

    @property
    def size(self) -> int:
        """Image size in bytes."""
        return self._image.size

    @property
    def object_size(self) -> int:
        """Size of each data object in bytes."""
        return self._image.object_size

    @property
    def block_size(self) -> int:
        """Encryption block size (device sector size when unencrypted)."""
        return self._image.block_size

    @property
    def ioctx(self) -> IoCtx:
        """The IO context the image operates on."""
        return self._image.ioctx

    @property
    def dispatcher(self) -> ObjectDispatcher:
        """The object dispatcher installed in the bottom image."""
        return self._image.dispatcher

    @property
    def read_snapshot_id(self) -> Optional[int]:
        """Snapshot id reads are currently routed to (``None`` = head)."""
        return self._image.read_snapshot_id

    def check_io(self, offset: int, length: int) -> None:
        """Validate an IO range against the image bounds (raises RbdError)."""
        self._image.check_io(offset, length)

    def set_read_snapshot(self, snap_name: Optional[str]) -> None:
        """Route subsequent reads to a snapshot (``None`` reads the head)."""
        self._image.set_read_snapshot(snap_name)

    def set_read_snapshot_id(self, snap_id: Optional[int]) -> None:
        """Route reads to a snapshot *id* directly."""
        self._image.set_read_snapshot_id(snap_id)

    # -- shared by the front-ends ----------------------------------------------

    def _staged(self, extents: Sequence[Tuple[int, bytes]]
                ) -> List[Tuple[int, memoryview]]:
        """A write batch's non-empty extents as read-only *byte* views, each
        bounds-checked by its byte length (``len()`` of an ``array('I')``
        counts items) before any of it is cached, logged or acknowledged."""
        staged: List[Tuple[int, memoryview]] = []
        for offset, data in extents:
            view = as_readonly_view(data)
            self._image.check_io(offset, len(view))
            if len(view):
                staged.append((offset, view))
        return staged

    def _account(self, receipt: OpReceipt, cost: float,
                 touched_inner: bool) -> OpReceipt:
        """Charge ``cost`` µs of client CPU for the front-end's own work.

        On the analytic path the cost lands as ``client.cpu`` busy time
        and on the receipt's critical path; on the event-driven path an
        op that never reached the cluster is recorded as a
        client-CPU-only :class:`OpTrace` (no OSD visits), while one that
        did folds the cost into its RADOS trace.
        """
        self._ledger.busy(RES_CLIENT_CPU, cost)
        if touched_inner:
            self._ledger.attribute_client_cpu(cost)
        else:
            self._ledger.record_op_trace(
                OpTrace(kind=self._client_only_kind, client_cpu_us=cost,
                        client_net_us=0.0, network_us=0.0))
        receipt.latency_us += cost
        return receipt

    # -- management behind the flush barrier -----------------------------------

    def flush(self) -> OpReceipt:
        """The barrier: every front-end defines its own."""
        raise NotImplementedError

    def create_snapshot(self, snap_name: str) -> ImageSnapshot:
        """Snapshot after the barrier, so it holds all acknowledged writes."""
        self.flush()
        return self._image.create_snapshot(snap_name)

    def protect_snapshot(self, snap_name: str) -> ImageSnapshot:
        """Protect after the barrier: a snapshot about to become a clone
        parent must hold every acknowledged write."""
        self.flush()
        return self._image.protect_snapshot(snap_name)

    def resize(self, new_size: int) -> None:
        """Resize after the barrier (buffered extents could fall outside
        the new bounds)."""
        self.flush()
        self._image.resize(new_size)

    def flatten(self) -> OpReceipt:
        """Flatten after the barrier, so the migration sees the child's
        acknowledged writes and skips their objects instead of overwriting
        them with parent data (an empty receipt when there is no parent)."""
        receipt = self.flush()
        receipt.extend(self._image.flatten())
        return receipt
