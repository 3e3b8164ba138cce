"""RBD images: creation, opening, IO, resizing and snapshots.

An image is described by a header object holding its size, object size and
snapshot table; its data lives in numbered data objects.  IO is striped
over the data objects and handed to an :class:`ObjectDispatcher` — either
the raw (plaintext) dispatcher or an encrypting one.  There is one data
path, ``write_extents``/``read_extents``: each object receives its whole
share of a batch in one dispatcher call, and a scalar ``write``/``read`` is
a one-extent batch.

Every data-path method returns (or stores into the returned value) an
:class:`~repro.sim.ledger.OpReceipt` so the workload runner can account
per-IO latency; object-level pieces of a single image IO are treated as
issued in parallel, which is how libRBD behaves with AIO.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .dispatcher import ObjectDispatcher, RawObjectDispatcher
from .striping import header_object_name, map_extent
from ..errors import (CloneError, ImageExistsError, ImageNotFoundError,
                      RbdError, SnapshotError)
from ..rados.client import IoCtx, SnapContext
from ..rados.transaction import WriteTransaction
from ..sim.ledger import OpReceipt
from ..util import MIB, as_readonly_view

DEFAULT_OBJECT_SIZE = 4 * MIB


@dataclass(frozen=True)
class ImageSnapshot:
    """One entry of an image's snapshot table."""

    snap_id: int
    name: str
    #: protected snapshots cannot be removed and are the only ones that
    #: may serve as clone parents (librbd's ``snap protect``)
    protected: bool = False
    #: image size when the snapshot was taken (``None`` on entries written
    #: before this field existed; clones then fall back to the head size)
    size: Optional[int] = None


@dataclass(frozen=True)
class ParentRef:
    """A clone child's reference to its parent (image, snapshot) layer."""

    image: str       #: parent image name
    snap_id: int     #: parent snapshot id the clone was taken from
    snap_name: str   #: snapshot name at clone time (for display/debugging)
    overlap: int     #: bytes of the child covered by the parent (clone-time size)

    def to_doc(self) -> Dict[str, object]:
        """JSON-serializable form."""
        return {"image": self.image, "snap_id": self.snap_id,
                "snap_name": self.snap_name, "overlap": self.overlap}

    @classmethod
    def from_doc(cls, doc: Dict[str, object]) -> "ParentRef":
        """Parse the JSON form."""
        return cls(image=doc["image"], snap_id=int(doc["snap_id"]),
                   snap_name=doc.get("snap_name", ""),
                   overlap=int(doc["overlap"]))


@dataclass
class ImageHeader:
    """Persisted image metadata (stored as JSON in the header object)."""

    image_id: str
    size: int
    object_size: int
    snapshots: List[ImageSnapshot]
    encryption: Optional[Dict[str, object]] = None
    #: set on clone children: the (image, snapshot) layer below this one
    parent: Optional[ParentRef] = None
    #: set on clone parents: ``[{"snap_id": ..., "image": child_name}, ...]``
    children: List[Dict[str, object]] = field(default_factory=list)

    def to_json(self) -> bytes:
        """Serialize to the on-disk JSON form."""
        return json.dumps({
            "image_id": self.image_id,
            "size": self.size,
            "object_size": self.object_size,
            "snapshots": [{"id": s.snap_id, "name": s.name,
                           "protected": s.protected, "size": s.size}
                          for s in self.snapshots],
            "encryption": self.encryption,
            "parent": self.parent.to_doc() if self.parent else None,
            "children": self.children,
        }).encode("utf-8")

    @classmethod
    def from_json(cls, raw: bytes) -> "ImageHeader":
        """Parse the on-disk JSON form."""
        doc = json.loads(raw.decode("utf-8"))
        parent_doc = doc.get("parent")
        return cls(
            image_id=doc["image_id"],
            size=int(doc["size"]),
            object_size=int(doc["object_size"]),
            snapshots=[ImageSnapshot(
                           int(s["id"]), s["name"],
                           bool(s.get("protected", False)),
                           int(s["size"]) if s.get("size") is not None
                           else None)
                       for s in doc.get("snapshots", [])],
            encryption=doc.get("encryption"),
            parent=ParentRef.from_doc(parent_doc) if parent_doc else None,
            children=list(doc.get("children", [])),
        )


def create_image(ioctx: IoCtx, name: str, size: int,
                 object_size: int = DEFAULT_OBJECT_SIZE) -> None:
    """Create an image; raises :class:`ImageExistsError` if it exists."""
    if size <= 0:
        raise RbdError("image size must be positive")
    if object_size <= 0 or object_size % 4096:
        raise RbdError("object size must be a positive multiple of 4096")
    header_name = header_object_name(name)
    if ioctx.object_exists(header_name):
        raise ImageExistsError(f"image {name!r} already exists")
    header = ImageHeader(image_id=name, size=size, object_size=object_size,
                         snapshots=[])
    txn = WriteTransaction().create(exclusive=True).write_full(header.to_json())
    ioctx.operate_write(header_name, txn, object_size_hint=64 * 1024)


def open_image(ioctx: IoCtx, name: str) -> "Image":
    """Open an existing image."""
    return Image(ioctx, name)


def remove_image(ioctx: IoCtx, name: str) -> None:
    """Remove an image: header, data objects and crypto header if present.

    Refuses to remove an image that still has clone children (they would
    lose their backing layer); a clone child deregisters itself from its
    parent's header on removal.
    """
    header_name = header_object_name(name)
    if not ioctx.object_exists(header_name):
        raise ImageNotFoundError(f"image {name!r} does not exist")
    image = Image(ioctx, name)
    if image.header.children:
        children = sorted({c["image"] for c in image.header.children})
        raise RbdError(
            f"image {name!r} still has clone children {children}; "
            f"flatten or remove them first")
    if image.header.parent is not None:
        parent = Image(ioctx, image.header.parent.image)
        parent.deregister_child(image.header.parent.snap_id, name)
    for object_no in range(image.object_count()):
        data_name = image.data_object_name(object_no)
        if ioctx.object_exists(data_name):
            ioctx.remove_object(data_name)
    crypto_header = f"rbd_crypto_header.{name}"
    if ioctx.object_exists(crypto_header):
        ioctx.remove_object(crypto_header)
    ioctx.remove_object(header_name)


@dataclass
class IoResult:
    """Data plus the aggregated cost receipt of one image-level IO."""

    data: bytes
    receipt: OpReceipt


def _merge_parallel(total: Optional[OpReceipt],
                    receipt: OpReceipt) -> OpReceipt:
    """Fold one per-object receipt into the running parallel composition
    (object-level pieces of an image IO are issued in parallel)."""
    if total is None:
        return receipt
    total.merge_parallel(receipt)
    return total


class Image:
    """An open RBD image."""

    def __init__(self, ioctx: IoCtx, name: str) -> None:
        self._ioctx = ioctx
        self.name = name
        self._header_name = header_object_name(name)
        raw = self._read_header()
        self._header = ImageHeader.from_json(raw)
        self._dispatcher: ObjectDispatcher = RawObjectDispatcher(
            ioctx, self._header.image_id, self._header.object_size)
        self._read_snap_id: Optional[int] = None
        self._refresh_snap_context()

    # -- header plumbing --------------------------------------------------------

    def _read_header(self) -> bytes:
        if not self._ioctx.object_exists(self._header_name):
            raise ImageNotFoundError(f"image {self.name!r} does not exist")
        size = self._ioctx.stat(self._header_name) or 0
        return self._ioctx.read(self._header_name, 0, size).data

    def _save_header(self) -> None:
        txn = WriteTransaction().write_full(self._header.to_json())
        self._ioctx.operate_write(self._header_name, txn,
                                  object_size_hint=64 * 1024)

    def _refresh_snap_context(self) -> None:
        snaps = tuple(sorted((s.snap_id for s in self._header.snapshots),
                             reverse=True))
        seq = max(snaps) if snaps else 0
        self._ioctx.set_snap_context(SnapContext(seq=seq, snaps=snaps))

    # -- properties ---------------------------------------------------------------

    @property
    def ioctx(self) -> IoCtx:
        """The IO context the image operates on."""
        return self._ioctx

    @property
    def size(self) -> int:
        """Image size in bytes."""
        return self._header.size

    @property
    def object_size(self) -> int:
        """Size of each data object in bytes."""
        return self._header.object_size

    @property
    def header(self) -> ImageHeader:
        """The in-memory image header."""
        return self._header

    def object_count(self) -> int:
        """Number of data objects covering the image."""
        return (self._header.size + self._header.object_size - 1) // self._header.object_size

    def data_object_name(self, object_no: int) -> str:
        """RADOS name of data object ``object_no``."""
        from .striping import object_name
        return object_name(self._header.image_id, object_no)

    def set_dispatcher(self, dispatcher: ObjectDispatcher) -> None:
        """Install an object dispatcher (used by the encryption layer)."""
        self._dispatcher = dispatcher

    @property
    def dispatcher(self) -> ObjectDispatcher:
        """The currently installed object dispatcher."""
        return self._dispatcher

    @property
    def block_size(self) -> int:
        """What cache blocks and engine hazards align to: the encryption
        block size when encrypted, the device sector size otherwise."""
        return getattr(self._dispatcher, "block_size",
                       self._ioctx.cluster.params.sector_size)

    # -- data path -------------------------------------------------------------------

    def check_io(self, offset: int, length: int) -> None:
        """Validate an IO range against the image bounds (raises RbdError)."""
        if offset < 0 or length < 0:
            raise RbdError("offset and length must be non-negative")
        if offset + length > self._header.size:
            raise RbdError(
                f"IO [{offset}, {offset + length}) beyond image size "
                f"{self._header.size}")

    def write(self, offset: int, data) -> OpReceipt:
        """Write ``data`` (any bytes-like object) at image byte ``offset``."""
        return self.write_extents([(offset, data)])

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at image byte ``offset``."""
        return self.read_with_receipt(offset, length).data

    def read_with_receipt(self, offset: int, length: int) -> IoResult:
        """Read returning both the data and the aggregated cost receipt."""
        pieces, receipt = self.read_extents([(offset, length)])
        return IoResult(data=pieces[0], receipt=receipt)

    def write_extents(self, extents: Sequence[Tuple[int, bytes]]) -> OpReceipt:
        """Write several image-level extents as one batched operation.

        All extents are striped onto their objects and each object receives
        its whole share of the batch as a *single* dispatcher call (one
        RADOS transaction).  Per-object pieces are zero-copy views of the
        callers' buffers (the dispatcher materialises bytes when it builds
        the transaction) and keep the arrival order of ``extents``; objects
        are issued in parallel, like libRBD AIO.
        """
        per_object: Dict[int, List[Tuple[int, memoryview]]] = {}
        for offset, data in extents:
            view = as_readonly_view(data)
            self.check_io(offset, len(view))
            if not len(view):
                continue
            for extent in map_extent(offset, len(view), self._header.object_size):
                piece = view[extent.buffer_offset:extent.buffer_offset + extent.length]
                per_object.setdefault(extent.object_no, []).append(
                    (extent.offset, piece))
        combined: Optional[OpReceipt] = None
        for object_no, object_extents in per_object.items():
            receipt = self._dispatcher.write_extents(object_no, object_extents)
            combined = _merge_parallel(combined, receipt)
        return combined or OpReceipt()

    def read_extents(self, extents: Sequence[Tuple[int, int]]) -> Tuple[List[bytes], OpReceipt]:
        """Read several image-level extents as one batched operation.

        Returns one buffer per requested extent, in order, plus the
        aggregated receipt.  Each object serves its whole share of the batch
        through a single dispatcher call (one RADOS read operation);
        objects are read in parallel.
        """
        #: per extent, its per-object pieces in image order
        parts: List[List[bytes]] = []
        per_object: Dict[int, List[Tuple[int, int]]] = {}
        #: (extent index, piece index) for each per-object piece, in order
        placements: Dict[int, List[Tuple[int, int]]] = {}
        for index, (offset, length) in enumerate(extents):
            self.check_io(offset, length)
            mapped = map_extent(offset, length, self._header.object_size)
            parts.append([b""] * len(mapped))
            for position, extent in enumerate(mapped):
                per_object.setdefault(extent.object_no, []).append(
                    (extent.offset, extent.length))
                placements.setdefault(extent.object_no, []).append(
                    (index, position))
        combined: Optional[OpReceipt] = None
        for object_no, object_extents in per_object.items():
            pieces, receipt = self._dispatcher.read_extents(object_no,
                                                            object_extents)
            for piece, (index, position) in zip(pieces,
                                                placements[object_no]):
                parts[index][position] = piece
            combined = _merge_parallel(combined, receipt)
        # Joining a lone piece hands it back as it is: an extent inside one
        # object is never copied here.
        return [b"".join(pieces) for pieces in parts], combined or OpReceipt()

    def discard(self, offset: int, length: int) -> OpReceipt:
        """Deallocate an image byte range."""
        self.check_io(offset, length)
        combined: Optional[OpReceipt] = None
        for extent in map_extent(offset, length, self._header.object_size):
            receipt = self._dispatcher.discard(extent.object_no, extent.offset,
                                               extent.length)
            combined = _merge_parallel(combined, receipt)
        return combined or OpReceipt()

    def flush(self) -> OpReceipt:
        """Flush the dispatcher (no-op for write-through dispatchers)."""
        self._dispatcher.flush()
        return OpReceipt()

    # -- management ---------------------------------------------------------------------

    def resize(self, new_size: int) -> None:
        """Grow or shrink the image (shrinking does not trim objects)."""
        if new_size <= 0:
            raise RbdError("image size must be positive")
        self._header.size = new_size
        self._save_header()

    def update_encryption_metadata(self, metadata: Optional[Dict[str, object]]) -> None:
        """Record encryption-format metadata in the image header."""
        self._header.encryption = metadata
        self._save_header()

    # -- snapshots -------------------------------------------------------------------------

    def list_snapshots(self) -> List[ImageSnapshot]:
        """All snapshots of the image, oldest first."""
        return list(self._header.snapshots)

    def create_snapshot(self, snap_name: str) -> ImageSnapshot:
        """Create a snapshot; subsequent writes preserve pre-write data."""
        if any(s.name == snap_name for s in self._header.snapshots):
            raise SnapshotError(f"snapshot {snap_name!r} already exists")
        snap_id = self._ioctx.create_self_managed_snap()
        snapshot = ImageSnapshot(snap_id=snap_id, name=snap_name,
                                 size=self._header.size)
        self._header.snapshots.append(snapshot)
        self._save_header()
        self._refresh_snap_context()
        return snapshot

    def remove_snapshot(self, snap_name: str) -> None:
        """Remove a snapshot from the table and release its id.

        Protected snapshots — and snapshots that still back clone children
        — refuse removal: deleting them would orphan the chain state the
        clones read through.  Unprotect (which itself refuses while
        children exist) before removing.
        """
        for i, snap in enumerate(self._header.snapshots):
            if snap.name == snap_name:
                children = self.children_of_snapshot(snap.snap_id)
                if children:
                    raise SnapshotError(
                        f"snapshot {snap_name!r} still backs clone children "
                        f"{children}; flatten or remove them first")
                if snap.protected:
                    raise SnapshotError(
                        f"snapshot {snap_name!r} is protected; unprotect it "
                        f"before removing")
                self._ioctx.remove_self_managed_snap(snap.snap_id)
                del self._header.snapshots[i]
                self._save_header()
                self._refresh_snap_context()
                return
        raise SnapshotError(f"snapshot {snap_name!r} does not exist")

    def protect_snapshot(self, snap_name: str) -> ImageSnapshot:
        """Mark a snapshot protected so it can serve as a clone parent."""
        for i, snap in enumerate(self._header.snapshots):
            if snap.name == snap_name:
                if not snap.protected:
                    snap = replace(snap, protected=True)
                    self._header.snapshots[i] = snap
                    self._save_header()
                return snap
        raise SnapshotError(f"snapshot {snap_name!r} does not exist")

    def unprotect_snapshot(self, snap_name: str) -> ImageSnapshot:
        """Clear a snapshot's protection (refused while clones depend on it)."""
        for i, snap in enumerate(self._header.snapshots):
            if snap.name == snap_name:
                children = self.children_of_snapshot(snap.snap_id)
                if children:
                    raise SnapshotError(
                        f"snapshot {snap_name!r} still backs clone children "
                        f"{children}; flatten or remove them first")
                if snap.protected:
                    snap = replace(snap, protected=False)
                    self._header.snapshots[i] = snap
                    self._save_header()
                return snap
        raise SnapshotError(f"snapshot {snap_name!r} does not exist")

    def snapshot_by_name(self, snap_name: str) -> ImageSnapshot:
        """Look up a snapshot by name."""
        for snap in self._header.snapshots:
            if snap.name == snap_name:
                return snap
        raise SnapshotError(f"snapshot {snap_name!r} does not exist")

    def set_read_snapshot(self, snap_name: Optional[str]) -> None:
        """Route subsequent reads to a snapshot (``None`` reads the head)."""
        if snap_name is None:
            self.set_read_snapshot_id(None)
            return
        self.set_read_snapshot_id(self.snapshot_by_name(snap_name).snap_id)

    def set_read_snapshot_id(self, snap_id: Optional[int]) -> None:
        """Route reads to a snapshot *id* directly.

        Used by the clone machinery (a child records its parent's snapshot
        by id) and to save/restore read routing around head-targeted reads.
        The id is not validated against the snapshot table: clone parents
        legitimately route to ids the child image never listed.
        """
        self._read_snap_id = snap_id
        self._ioctx.snap_set_read(snap_id)

    @property
    def read_snapshot_id(self) -> Optional[int]:
        """Snapshot id reads are currently routed to (``None`` = head)."""
        return self._read_snap_id

    # -- clone chain bookkeeping ------------------------------------------------

    @property
    def parent_ref(self) -> Optional[ParentRef]:
        """This image's parent layer (``None`` unless it is a clone child)."""
        return self._header.parent

    def set_parent(self, ref: Optional[ParentRef]) -> None:
        """Record (or, on flatten, clear) the parent layer reference."""
        self._header.parent = ref
        self._save_header()

    def flatten(self) -> OpReceipt:
        """Nothing to migrate without a parent.  A clone child opened
        without its chain cannot read what it would have to copy in."""
        if self._header.parent is not None:
            raise CloneError(
                f"image {self.name!r} is a clone child; open it with its "
                f"chain (repro.clone.open_layered_image) to flatten it")
        return OpReceipt()

    def children_of_snapshot(self, snap_id: int) -> List[str]:
        """Names of clone children backed by one of this image's snapshots."""
        return sorted(c["image"] for c in self._header.children
                      if int(c["snap_id"]) == snap_id)

    def register_child(self, snap_id: int, child_name: str) -> None:
        """Record a new clone child under the given snapshot."""
        entry = {"snap_id": snap_id, "image": child_name}
        if entry not in self._header.children:
            self._header.children.append(entry)
            self._save_header()

    def deregister_child(self, snap_id: int, child_name: str) -> None:
        """Drop a clone child record (after flatten or child removal)."""
        before = len(self._header.children)
        self._header.children = [
            c for c in self._header.children
            if not (int(c["snap_id"]) == snap_id and c["image"] == child_name)]
        if len(self._header.children) != before:
            self._save_header()
