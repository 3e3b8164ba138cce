"""Per-sector metadata layouts — Fig. 2 of the paper.

A layout decides *where inside a RADOS object* the ciphertext of each
4 KiB block and its per-sector metadata (the random IV, and optionally an
authentication tag) are stored, and how a contiguous range of blocks is
turned into write-transaction ops and read-operation ops:

* :class:`BaselineLayout` ("luks-baseline") — no metadata at all; ciphertext
  is stored at the block's natural offset.  This is stock LUKS2 and the
  performance baseline.
* :class:`UnalignedLayout` ("unaligned", Fig. 2a) — each block's metadata is
  stored immediately after its ciphertext, so block *i* lives at
  ``i * (block_size + metadata_size)``.  A single contiguous access
  suffices, but nearly every access is misaligned with device sectors and
  triggers read-modify-write on writes.
* :class:`ObjectEndLayout` ("object-end", Fig. 2b) — ciphertext keeps its
  natural offset and all metadata entries of the object are packed together
  after the data area.  Writes add one small extra write op; reads add one
  small extra read op that the OSD executes in parallel with the data read.
* :class:`OmapLayout` ("omap", Fig. 2c) — ciphertext keeps its natural
  offset and metadata goes to the object's OMAP (key-value) namespace,
  keyed by block index, using range operations for contiguous runs.

All layouts receive the ciphertext blocks of one contiguous run plus their
metadata and append ops to the same :class:`WriteTransaction`, so data and
metadata commit atomically on every replica.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, EncryptionFormatError
from ..rados.transaction import OpResult, ReadOperation, WriteTransaction


class MetadataLayout:
    """Interface shared by the four layouts."""

    #: registry name persisted in the encryption header
    name: str = "abstract"

    def __init__(self, object_size: int, block_size: int,
                 metadata_size: int) -> None:
        if object_size <= 0 or block_size <= 0:
            raise ConfigurationError("object and block size must be positive")
        if object_size % block_size:
            raise ConfigurationError(
                "object size must be a multiple of the block size")
        if metadata_size < 0:
            raise ConfigurationError("metadata size must be non-negative")
        self.object_size = object_size
        self.block_size = block_size
        self.metadata_size = metadata_size
        self.blocks_per_object = object_size // block_size

    # -- geometry ---------------------------------------------------------------

    def physical_object_size(self) -> int:
        """Bytes of object space the layout may touch (data + metadata)."""
        raise NotImplementedError

    def data_offset(self, block_index: int) -> int:
        """Physical in-object offset of the ciphertext of ``block_index``."""
        raise NotImplementedError

    # -- write path ----------------------------------------------------------------

    def build_write(self, txn: WriteTransaction, first_block: int,
                    ciphertexts: Sequence[bytes],
                    metadatas: Sequence[bytes]) -> None:
        """Append the ops storing a contiguous run of blocks to ``txn``."""
        raise NotImplementedError

    def build_discard(self, txn: WriteTransaction, first_block: int,
                      block_count: int) -> None:
        """Append the ops deallocating a contiguous run of whole blocks,
        data and per-sector metadata together, to ``txn``."""
        self._check_run(first_block, block_count)
        txn.zero(self.data_offset(first_block), block_count * self.block_size)

    # -- read path -----------------------------------------------------------------

    def build_read(self, readop: ReadOperation, first_block: int,
                   block_count: int) -> None:
        """Append the ops fetching a contiguous run of blocks to ``readop``."""
        raise NotImplementedError

    def parse_read(self, results: List[OpResult], first_block: int,
                   block_count: int) -> Tuple[List[bytes], List[Optional[bytes]]]:
        """Split op results into per-block ciphertexts and metadata."""
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------------------

    def _check_run(self, first_block: int, block_count: int) -> None:
        if first_block < 0 or block_count <= 0:
            raise EncryptionFormatError("invalid block run")
        if first_block + block_count > self.blocks_per_object:
            raise EncryptionFormatError(
                f"block run [{first_block}, {first_block + block_count}) "
                f"exceeds object capacity {self.blocks_per_object}")

    def _split_blocks(self, data: bytes, block_count: int) -> List[bytes]:
        if len(data) < block_count * self.block_size:
            data = data + bytes(block_count * self.block_size - len(data))
        return [data[i * self.block_size:(i + 1) * self.block_size]
                for i in range(block_count)]


class BaselineLayout(MetadataLayout):
    """Stock LUKS2: no per-sector metadata is stored anywhere."""

    name = "luks-baseline"

    def __init__(self, object_size: int, block_size: int,
                 metadata_size: int) -> None:
        if metadata_size != 0:
            raise ConfigurationError(
                "the baseline layout cannot store per-sector metadata; "
                "use a deterministic IV policy (plain64/essiv) or choose "
                "one of the metadata layouts")
        super().__init__(object_size, block_size, metadata_size)

    def physical_object_size(self) -> int:
        return self.object_size

    def data_offset(self, block_index: int) -> int:
        return block_index * self.block_size

    def build_write(self, txn: WriteTransaction, first_block: int,
                    ciphertexts: Sequence[bytes],
                    metadatas: Sequence[bytes]) -> None:
        self._check_run(first_block, len(ciphertexts))
        txn.write(self.data_offset(first_block), b"".join(ciphertexts))

    def build_read(self, readop: ReadOperation, first_block: int,
                   block_count: int) -> None:
        self._check_run(first_block, block_count)
        readop.read(self.data_offset(first_block),
                    block_count * self.block_size)

    def parse_read(self, results: List[OpResult], first_block: int,
                   block_count: int) -> Tuple[List[bytes], List[Optional[bytes]]]:
        blocks = self._split_blocks(results[0].data, block_count)
        return blocks, [None] * block_count


class UnalignedLayout(MetadataLayout):
    """Fig. 2a: metadata interleaved directly after each block."""

    name = "unaligned"

    @property
    def stride(self) -> int:
        """Distance between the starts of consecutive blocks on disk."""
        return self.block_size + self.metadata_size

    def physical_object_size(self) -> int:
        return self.blocks_per_object * self.stride

    def data_offset(self, block_index: int) -> int:
        return block_index * self.stride

    def build_write(self, txn: WriteTransaction, first_block: int,
                    ciphertexts: Sequence[bytes],
                    metadatas: Sequence[bytes]) -> None:
        self._check_run(first_block, len(ciphertexts))
        interleaved = bytearray()
        for ciphertext, metadata in zip(ciphertexts, metadatas):
            interleaved += ciphertext
            interleaved += metadata.ljust(self.metadata_size, b"\x00")
        txn.write(self.data_offset(first_block), bytes(interleaved))

    def build_discard(self, txn: WriteTransaction, first_block: int,
                      block_count: int) -> None:
        self._check_run(first_block, block_count)
        txn.zero(self.data_offset(first_block), block_count * self.stride)

    def build_read(self, readop: ReadOperation, first_block: int,
                   block_count: int) -> None:
        self._check_run(first_block, block_count)
        readop.read(self.data_offset(first_block), block_count * self.stride)

    def parse_read(self, results: List[OpResult], first_block: int,
                   block_count: int) -> Tuple[List[bytes], List[Optional[bytes]]]:
        raw = results[0].data
        if len(raw) < block_count * self.stride:
            raw = raw + bytes(block_count * self.stride - len(raw))
        ciphertexts: List[bytes] = []
        metadatas: List[Optional[bytes]] = []
        for i in range(block_count):
            start = i * self.stride
            ciphertexts.append(raw[start:start + self.block_size])
            metadata = raw[start + self.block_size:start + self.stride]
            metadatas.append(metadata if any(metadata) else None)
        return ciphertexts, metadatas


class ObjectEndLayout(MetadataLayout):
    """Fig. 2b: all of an object's metadata packed after its data area."""

    name = "object-end"

    def metadata_area_offset(self) -> int:
        """In-object offset where the packed metadata area starts."""
        return self.object_size

    def metadata_offset(self, block_index: int) -> int:
        """In-object offset of the metadata entry for ``block_index``."""
        return self.metadata_area_offset() + block_index * self.metadata_size

    def physical_object_size(self) -> int:
        return self.object_size + self.blocks_per_object * self.metadata_size

    def data_offset(self, block_index: int) -> int:
        return block_index * self.block_size

    def build_write(self, txn: WriteTransaction, first_block: int,
                    ciphertexts: Sequence[bytes],
                    metadatas: Sequence[bytes]) -> None:
        self._check_run(first_block, len(ciphertexts))
        txn.write(self.data_offset(first_block), b"".join(ciphertexts))
        if self.metadata_size:
            packed = b"".join(m.ljust(self.metadata_size, b"\x00")
                              for m in metadatas)
            txn.write(self.metadata_offset(first_block), packed)

    def build_discard(self, txn: WriteTransaction, first_block: int,
                      block_count: int) -> None:
        super().build_discard(txn, first_block, block_count)
        if self.metadata_size:
            txn.zero(self.metadata_offset(first_block),
                     block_count * self.metadata_size)

    def build_read(self, readop: ReadOperation, first_block: int,
                   block_count: int) -> None:
        self._check_run(first_block, block_count)
        readop.read(self.data_offset(first_block),
                    block_count * self.block_size)
        if self.metadata_size:
            readop.read(self.metadata_offset(first_block),
                        block_count * self.metadata_size)

    def parse_read(self, results: List[OpResult], first_block: int,
                   block_count: int) -> Tuple[List[bytes], List[Optional[bytes]]]:
        blocks = self._split_blocks(results[0].data, block_count)
        metadatas: List[Optional[bytes]] = [None] * block_count
        if self.metadata_size and len(results) > 1:
            raw = results[1].data
            if len(raw) < block_count * self.metadata_size:
                raw = raw + bytes(block_count * self.metadata_size - len(raw))
            for i in range(block_count):
                entry = raw[i * self.metadata_size:(i + 1) * self.metadata_size]
                metadatas[i] = entry if any(entry) else None
        return blocks, metadatas


class OmapLayout(MetadataLayout):
    """Fig. 2c: metadata stored in the object's OMAP key-value namespace."""

    name = "omap"
    KEY_PREFIX = b"iv\x00"

    def physical_object_size(self) -> int:
        return self.object_size

    def data_offset(self, block_index: int) -> int:
        return block_index * self.block_size

    def omap_key(self, block_index: int) -> bytes:
        """OMAP key of the metadata entry for ``block_index``."""
        return self.KEY_PREFIX + block_index.to_bytes(8, "big")

    def block_of_key(self, key: bytes) -> int:
        """Inverse of :meth:`omap_key`."""
        if not key.startswith(self.KEY_PREFIX):
            raise EncryptionFormatError(f"unexpected OMAP key {key!r}")
        return int.from_bytes(key[len(self.KEY_PREFIX):], "big")

    def build_write(self, txn: WriteTransaction, first_block: int,
                    ciphertexts: Sequence[bytes],
                    metadatas: Sequence[bytes]) -> None:
        self._check_run(first_block, len(ciphertexts))
        txn.write(self.data_offset(first_block), b"".join(ciphertexts))
        if self.metadata_size:
            values: Dict[bytes, bytes] = {}
            for i, metadata in enumerate(metadatas):
                values[self.omap_key(first_block + i)] = metadata
            txn.omap_set_keys(values)

    def build_discard(self, txn: WriteTransaction, first_block: int,
                      block_count: int) -> None:
        super().build_discard(txn, first_block, block_count)
        if self.metadata_size:
            txn.omap_rm_range(self.omap_key(first_block),
                              self.omap_key(first_block + block_count))

    def build_read(self, readop: ReadOperation, first_block: int,
                   block_count: int) -> None:
        self._check_run(first_block, block_count)
        readop.read(self.data_offset(first_block),
                    block_count * self.block_size)
        if self.metadata_size:
            readop.omap_get_vals_by_range(self.omap_key(first_block),
                                          self.omap_key(first_block + block_count))

    def parse_read(self, results: List[OpResult], first_block: int,
                   block_count: int) -> Tuple[List[bytes], List[Optional[bytes]]]:
        blocks = self._split_blocks(results[0].data, block_count)
        metadatas: List[Optional[bytes]] = [None] * block_count
        if self.metadata_size and len(results) > 1:
            for key, value in results[1].kv.items():
                index = self.block_of_key(key) - first_block
                if 0 <= index < block_count:
                    metadatas[index] = value
        return blocks, metadatas


#: layout registry (name -> class), in the order the paper presents them
_LAYOUTS = {
    BaselineLayout.name: BaselineLayout,
    UnalignedLayout.name: UnalignedLayout,
    ObjectEndLayout.name: ObjectEndLayout,
    OmapLayout.name: OmapLayout,
}

LAYOUT_NAMES = tuple(_LAYOUTS)

#: aliases accepted on the format API
_ALIASES = {
    "baseline": BaselineLayout.name,
    "luks2": BaselineLayout.name,
    "objectend": ObjectEndLayout.name,
    "object_end": ObjectEndLayout.name,
}


def make_layout(name: str, object_size: int, block_size: int,
                metadata_size: int) -> MetadataLayout:
    """Instantiate a layout by registry name (aliases accepted)."""
    canonical = _ALIASES.get(name, name)
    try:
        cls = _LAYOUTS[canonical]
    except KeyError:
        raise ConfigurationError(
            f"unknown metadata layout {name!r}; choose from {LAYOUT_NAMES}") from None
    return cls(object_size, block_size, metadata_size)
