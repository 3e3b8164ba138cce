"""The layered image front-end: COW clone chains with per-layer decryption.

:class:`LayeredImage` is an :class:`~repro.rbd.wrapper.ImageWrapper` and
so an :class:`~repro.rbd.wrapper.ImageLike`: it slots between any caller
and a clone child without either side changing — exactly like
:class:`~repro.cache.image.CachedImage`, which may in turn wrap it.

Semantics mirror librbd's layering:

* **Reads** of objects the child has never written descend the parent
  chain: each ancestor layer is an independently opened image, routed to
  its clone-time snapshot via the existing ``snap_set_read`` machinery and
  decrypted by *its own* dispatcher (its own LUKS volume key).  The first
  layer that holds the object serves the read; a miss through the whole
  chain reads as zeros.  Nothing is re-encrypted on the way up.
* **Writes** to objects the child has never written perform *copyup*: the
  full backing object is read from the parent chain (plaintext), the
  write is spliced in, and the whole object is written through the
  child's dispatcher as one extent — i.e. one atomic
  :class:`~repro.rados.transaction.WriteTransaction` per object carrying
  the copied-up data *and* the new write (and, for encrypted children,
  all per-sector metadata), re-encrypted under the child's key.
* **flatten()** migrates every remaining backed object down into the
  child and detaches it from its parent, after which the image is
  self-contained.

Cost attribution needs no special casing: parent reads travel through the
ordinary instrumented read path of the parent layer's image (charging
client/OSD resources and, in event mode, recording ``OpTrace``s) and the
copyup transaction through the child's ordinary write path, so a copyup
costs exactly "parent read + child transaction" in both the analytic and
the event-driven performance models.  The ledger additionally counts
``clone.copyups`` / ``clone.parent_reads`` / ``clone.copyup_bytes`` so
benchmarks can report copyup traffic explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import CloneError, ObjectNotFoundError
from ..faults.plan import STAGE_MID_COPYUP, crash_point
from ..rados.transaction import ReadOperation
from ..rbd.image import Image, IoResult, ParentRef
from ..rbd.striping import map_extent
from ..rbd.wrapper import ImageWrapper
from ..sim.ledger import OpReceipt


@dataclass
class CloneLayer:
    """One ancestor of a layered image, opened read-only at its snapshot."""

    image: Image          #: independently opened image (own IoCtx/dispatcher)
    snap_id: int          #: snapshot the layer is frozen at
    overlap: int          #: bytes of the layer *above* covered by this layer

    def __post_init__(self) -> None:
        # Route every read of this layer to its clone-time snapshot; the
        # layer owns its IoCtx so this cannot disturb other handles.
        self.image.set_read_snapshot_id(self.snap_id)
        # The layer must address the snapshot-time range even when its
        # head was later shrunk: widen the handle's in-memory size (never
        # persisted — this handle is read-only and private to the layer)
        # so bounds checks admit reads the snapshot legitimately covers.
        if self.image.header.size < self.overlap:
            self.image.header.size = self.overlap


class LayeredImage(ImageWrapper):
    """A clone child plus its ancestor chain, presented as one image."""

    def __init__(self, image: Image, layers: Sequence[CloneLayer]) -> None:
        if image.header.parent is None and layers:
            raise CloneError(f"image {image.name!r} is not a clone child")
        for layer in layers:
            if layer.image.object_size != image.object_size:
                raise CloneError(
                    "clone layers must share the child's object size")
        super().__init__(image)
        self._layers = list(layers)
        #: lazily discovered child object existence (True once written)
        self._present: Dict[int, bool] = {}
        #: per-(snap id, object) child presence for snapshot-routed reads
        #: (a snapshot's view is frozen: an object absent-or-empty at the
        #: snapshot stays that way even after a later copyup, so negative
        #: results may be cached too)
        self._snap_present: Dict[Tuple[int, int], bool] = {}
        #: lazily discovered per-layer object existence (frozen snapshots,
        #: so negative results may be cached too)
        self._layer_present: List[Dict[int, bool]] = [{} for _ in layers]

    # -- plumbing ---------------------------------------------------------------

    @property
    def layers(self) -> List[CloneLayer]:
        """Ancestor layers, nearest parent first (empty after flatten)."""
        return list(self._layers)

    @property
    def clone_depth(self) -> int:
        """Number of ancestor layers below the child."""
        return len(self._layers)

    # -- object presence --------------------------------------------------------

    def _stat_size(self, image: Image, name: str,
                   receipt: OpReceipt) -> Optional[int]:
        """Object size through ``image``'s IoCtx (snapshot routing applies),
        folding the stat's cost into ``receipt``; ``None`` when absent."""
        try:
            result = image.ioctx.operate_read(name, ReadOperation().stat())
        except ObjectNotFoundError:
            return None
        receipt.extend(result.receipt)
        return result.results[0].size

    def _child_has_object(self, object_no: int, receipt: OpReceipt) -> bool:
        """Whether the child has *materialized* the object (copyup/write).

        This is COW-structure state, independent of read routing: the stat
        may travel through a snapshot-routed IoCtx, but an object that
        exists at the head also exists (as an empty preserved clone, size
        0) at any earlier snapshot, so the boolean is routing-invariant.
        """
        cached = self._present.get(object_no)
        if cached is not None:
            return cached
        size = self._stat_size(self._image,
                               self._image.data_object_name(object_no), receipt)
        present = size is not None
        self._present[object_no] = present
        return present

    def _child_serves_read(self, object_no: int, receipt: OpReceipt) -> bool:
        """Whether a *read* of the object should stop at the child layer.

        At the head this is plain materialization.  While a read-snapshot
        is set on the child, the object must have held data *at that
        snapshot*: an object copied up after the snapshot preserves an
        empty clone there (size 0), and such a read belongs to the parent
        chain — exactly like a mid-chain layer's presence rule.
        """
        snap_id = self._image.read_snapshot_id
        if snap_id is None:
            return self._child_has_object(object_no, receipt)
        cached = self._snap_present.get((snap_id, object_no))
        if cached is not None:
            return cached
        size = self._stat_size(self._image,
                               self._image.data_object_name(object_no), receipt)
        present = bool(size)
        self._snap_present[(snap_id, object_no)] = present
        return present

    def _layer_has_object(self, index: int, object_no: int,
                          receipt: OpReceipt) -> bool:
        """Whether layer ``index`` holds data for ``object_no`` at its
        snapshot.  Size 0 counts as absent: a copied-up-after-snapshot
        object preserves an *empty* clone at the snapshot, which must fall
        through to the next layer."""
        cached = self._layer_present[index].get(object_no)
        if cached is not None:
            return cached
        layer = self._layers[index]
        size = self._stat_size(layer.image,
                               layer.image.data_object_name(object_no), receipt)
        present = bool(size)
        self._layer_present[index][object_no] = present
        return present

    def _mark_written(self, object_no: int) -> None:
        self._present[object_no] = True

    # -- chain reads ------------------------------------------------------------

    def _resolve_chain_layer(self, object_no: int, image_offset: int,
                             end: int, receipt: OpReceipt
                             ) -> Optional[Tuple[int, int]]:
        """The (layer index, visible end) serving ``[image_offset, end)``
        of an object the child has not materialized, or ``None`` when no
        ancestor holds it.

        Per-layer overlaps clip visibility cumulatively on the way down:
        bytes past the clipped end read as zeros, matching librbd's
        parent-overlap rule.  (The layer handle's size covers its
        overlap — CloneLayer widens it when the head was shrunk later.)
        """
        visible_to = end
        for index, layer in enumerate(self._layers):
            visible_to = min(visible_to, layer.overlap)
            if visible_to <= image_offset:
                return None
            if self._layer_has_object(index, object_no, receipt):
                return index, visible_to
        return None

    def _read_from_chain(self, object_no: int, offset: int, length: int,
                         receipt: OpReceipt) -> Optional[bytes]:
        """Serve ``length`` bytes at in-object ``offset`` from the first
        ancestor layer holding the object (``None`` when no layer does)."""
        image_offset = object_no * self._image.object_size + offset
        resolved = self._resolve_chain_layer(object_no, image_offset,
                                             image_offset + length, receipt)
        if resolved is None:
            return None
        index, visible_to = resolved
        result = self._layers[index].image.read_with_receipt(
            image_offset, visible_to - image_offset)
        receipt.extend(result.receipt)
        self._ledger.count("clone.parent_reads")
        self._ledger.count("clone.parent_read_bytes", len(result.data))
        data = result.data
        if len(data) < length:
            data = data + bytes(length - len(data))
        return data

    def _backing_object(self, object_no: int,
                        receipt: OpReceipt) -> Optional[bytes]:
        """The full backing data of one object from the chain, clipped to
        the child's size (``None`` when no ancestor holds the object)."""
        start = object_no * self._image.object_size
        length = min(self._image.object_size, self._image.size - start)
        if length <= 0:
            return None
        return self._read_from_chain(object_no, 0, length, receipt)

    # -- data path: reads -------------------------------------------------------

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` (descending the chain)."""
        return self.read_with_receipt(offset, length).data

    def read_with_receipt(self, offset: int, length: int) -> IoResult:
        """Read returning both the data and the aggregated cost receipt."""
        pieces, receipt = self.read_extents([(offset, length)])
        return IoResult(data=pieces[0], receipt=receipt)

    def read_extents(self, extents: Sequence[Tuple[int, int]]
                     ) -> Tuple[List[bytes], OpReceipt]:
        """Vectored read: child-resident pieces travel as one inner
        vectored call, and chain-served pieces are grouped by their
        resolving layer into one vectored call *per layer* — a boot-storm
        window over a fresh clone costs one parent round trip per object,
        not one per piece."""
        extents = list(extents)
        buffers: List[bytearray] = []
        child_extents: List[Tuple[int, int]] = []
        #: (extent index, buffer offset) per child-resident piece, in order
        child_placement: List[Tuple[int, int]] = []
        #: per resolving layer: clipped (image offset, length) extents
        layer_extents: Dict[int, List[Tuple[int, int]]] = {}
        layer_placement: Dict[int, List[Tuple[int, int]]] = {}
        receipt = OpReceipt()
        for index, (offset, length) in enumerate(extents):
            self._image.check_io(offset, length)
            buffers.append(bytearray(length))
            for extent in map_extent(offset, length,
                                     self._image.object_size):
                if self._child_serves_read(extent.object_no, receipt):
                    child_extents.append(
                        (extent.object_no * self._image.object_size
                         + extent.offset, extent.length))
                    child_placement.append((index, extent.buffer_offset))
                    continue
                image_offset = (extent.object_no * self._image.object_size
                                + extent.offset)
                resolved = self._resolve_chain_layer(
                    extent.object_no, image_offset,
                    image_offset + extent.length, receipt)
                if resolved is None:
                    # Whole-chain miss reads as zeros (buffer is zeroed).
                    continue
                layer_index, visible_to = resolved
                layer_extents.setdefault(layer_index, []).append(
                    (image_offset, visible_to - image_offset))
                layer_placement.setdefault(layer_index, []).append(
                    (index, extent.buffer_offset))
        if child_extents:
            pieces, child_receipt = self._image.read_extents(child_extents)
            for piece, (index, buffer_offset) in zip(pieces, child_placement):
                buffers[index][buffer_offset:buffer_offset + len(piece)] = piece
            receipt.extend(child_receipt)
        for layer_index in sorted(layer_extents):
            pieces, layer_receipt = self._layers[layer_index].image.read_extents(
                layer_extents[layer_index])
            for piece, (index, buffer_offset) in zip(
                    pieces, layer_placement[layer_index]):
                buffers[index][buffer_offset:buffer_offset + len(piece)] = piece
            receipt.extend(layer_receipt)
            self._ledger.count("clone.parent_reads",
                               len(layer_extents[layer_index]))
            self._ledger.count("clone.parent_read_bytes",
                               sum(len(p) for p in pieces))
        return [bytes(buffer) for buffer in buffers], receipt

    # -- data path: writes ------------------------------------------------------

    def write(self, offset: int, data) -> OpReceipt:
        """Write ``data`` at ``offset`` (copying up on first touch)."""
        return self.write_extents([(offset, data)])

    def write_extents(self, extents: Sequence[Tuple[int, bytes]]) -> OpReceipt:
        """Vectored write batch with librbd-style copyup.

        Objects the child already holds receive their pieces through one
        inner vectored call (one transaction per object, as always).  An
        object touched for the first time whose backing exists in the
        chain is copied up: the write's pieces are spliced into the full
        backing data and the object travels as a single full-object extent
        — copied-up bytes and the new write commit in one atomic
        transaction, re-encrypted under the child's key.
        """
        receipt = OpReceipt()
        #: per-object pieces in arrival order: (in-object offset, view)
        pieces: Dict[int, List[Tuple[int, memoryview]]] = {}
        order: List[int] = []
        for offset, view in self._staged(extents):
            for extent in map_extent(offset, len(view),
                                     self._image.object_size):
                if extent.object_no not in pieces:
                    order.append(extent.object_no)
                pieces.setdefault(extent.object_no, []).append(
                    (extent.offset,
                     view[extent.buffer_offset:
                          extent.buffer_offset + extent.length]))

        forward: List[Tuple[int, memoryview]] = []
        for object_no in order:
            object_base = object_no * self._image.object_size
            if not self._child_has_object(object_no, receipt):
                backing = self._backing_object(object_no, receipt)
                if backing is not None:
                    # Copyup: splice the new pieces into the backing data
                    # and write the whole object as one extent/transaction.
                    buffer = bytearray(backing)
                    for in_obj_offset, piece in pieces[object_no]:
                        buffer[in_obj_offset:in_obj_offset + len(piece)] = piece
                    # Fault hook: a kill here leaves the parent read done
                    # but the child object unwritten — recovery must see
                    # the pre-copyup state, never a half-materialised one.
                    crash_point(STAGE_MID_COPYUP)
                    copyup_receipt = self._image.write_extents(
                        [(object_base, memoryview(buffer))])
                    receipt.extend(copyup_receipt)
                    self._mark_written(object_no)
                    self._ledger.count("clone.copyups")
                    self._ledger.count("clone.copyup_bytes", len(buffer))
                    continue
                # Whole-chain miss: plain first write, object materialises
                # sparse exactly as on an unlayered image.
            for in_obj_offset, piece in pieces[object_no]:
                forward.append((object_base + in_obj_offset, piece))
            self._mark_written(object_no)
        if forward:
            receipt.extend(self._image.write_extents(forward))
        return receipt

    def discard(self, offset: int, length: int) -> OpReceipt:
        """Deallocate a byte range without exposing parent data.

        Discarding an unwritten-but-backed object copies it up first with
        the discarded range zeroed (one transaction); otherwise falling
        back to the chain on a later read would resurrect the discarded
        bytes.  Written (or unbacked) objects forward to the child, whose
        dispatcher zeroes the same exact byte range.
        """
        self._image.check_io(offset, length)
        if not length:
            return OpReceipt()
        receipt = OpReceipt()
        for extent in map_extent(offset, length, self._image.object_size):
            object_base = extent.object_no * self._image.object_size
            if not self._child_has_object(extent.object_no, receipt):
                backing = self._backing_object(extent.object_no, receipt)
                if backing is not None:
                    buffer = bytearray(backing)
                    buffer[extent.offset:extent.offset + extent.length] = \
                        bytes(extent.length)
                    crash_point(STAGE_MID_COPYUP)
                    receipt.extend(self._image.write_extents(
                        [(object_base, memoryview(buffer))]))
                    self._mark_written(extent.object_no)
                    self._ledger.count("clone.copyups")
                    self._ledger.count("clone.copyup_bytes", len(buffer))
                    continue
            receipt.extend(self._image.discard(object_base + extent.offset,
                                               extent.length))
            self._mark_written(extent.object_no)
        return receipt

    # -- management -------------------------------------------------------------
    # Nothing is buffered here, so resize/flatten take no barrier.

    def flush(self) -> OpReceipt:
        """Flush the child (the clone layer itself buffers nothing)."""
        return self._image.flush()

    def resize(self, new_size: int) -> None:
        """Resize the child; shrinking clips the parent overlap for good
        (regrowing later must not resurrect parent data past the shrink)."""
        self._image.resize(new_size)
        ref = self._image.parent_ref
        if ref is not None and new_size < ref.overlap:
            self._image.set_parent(ParentRef(
                image=ref.image, snap_id=ref.snap_id,
                snap_name=ref.snap_name, overlap=new_size))
            if self._layers:
                self._layers[0].overlap = new_size

    def flatten(self) -> OpReceipt:
        """Copy every remaining backed object into the child and detach it.

        After flatten the image is self-contained: reads never touch the
        chain, the parent's snapshot may be unprotected/removed, and the
        returned receipt aggregates the migration cost (each object is one
        parent read plus one child transaction, like a copyup).
        """
        receipt = OpReceipt()
        ref = self._image.parent_ref
        if ref is None:
            return receipt
        flattened = 0
        for object_no in range(self._image.object_count()):
            if self._child_has_object(object_no, receipt):
                continue
            backing = self._backing_object(object_no, receipt)
            if backing is None:
                continue
            object_base = object_no * self._image.object_size
            receipt.extend(self._image.write_extents(
                [(object_base, memoryview(bytearray(backing)))]))
            self._mark_written(object_no)
            flattened += 1
        self._image.set_parent(None)
        if self._layers:
            parent_head = self._layers[0].image
            # Deregister through a head-routed handle of the parent.
            parent = Image(parent_head.ioctx.cluster.client().open_ioctx(
                parent_head.ioctx.pool_name), parent_head.name)
            parent.deregister_child(ref.snap_id, self._image.name)
        self._layers = []
        self._layer_present = []
        self._ledger.count("clone.flattens")
        self._ledger.count("clone.flatten_objects", flattened)
        return receipt
