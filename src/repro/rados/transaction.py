"""Write transactions and read operations against a single RADOS object.

A :class:`WriteTransaction` bundles several mutations that must be applied
atomically on every replica — e.g. an encrypted data extent *and* its
per-sector IVs (object-end layout: two ``write`` ops; OMAP layout: one
``write`` plus one ``omap_set_keys``).  A :class:`ReadOperation` bundles
reads that the OSD may execute in parallel (data extent plus IV extent),
which is how the paper explains the near-baseline read performance.

Both carry multi-extent builders (:meth:`WriteTransaction.write_extents`,
:meth:`ReadOperation.read_extents`) used by the batched I/O engine: a whole
per-object batch of extents travels in *one* transaction / read operation,
so the fixed per-op cost (dispatch, one network round trip, journaling) is
paid once per batch instead of once per block.  ``write_extents`` merges
extents that are exactly adjacent into a single positional write, so a
sequential batch reaches the OSD as one large device write.

The write builders accept any bytes-like payload and are the single point
where the zero-copy write path (pipeline -> striping -> codec) materialises
``bytes``; everything upstream passes memoryviews.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


# --------------------------------------------------------------------------
# Write ops
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OpCreate:
    """Create the object (optionally failing if it already exists)."""

    exclusive: bool = False


@dataclass(frozen=True)
class OpWrite:
    """Write ``data`` at byte ``offset`` within the object."""

    offset: int
    data: bytes


@dataclass(frozen=True)
class OpWriteFull:
    """Replace the whole object body with ``data``."""

    data: bytes


@dataclass(frozen=True)
class OpZero:
    """Zero the byte range ``[offset, offset + length)``."""

    offset: int
    length: int


@dataclass(frozen=True)
class OpTruncate:
    """Truncate (or logically extend) the object to ``size`` bytes."""

    size: int


@dataclass(frozen=True)
class OpRemove:
    """Delete the object."""


@dataclass(frozen=True)
class OpSetXattr:
    """Set the extended attribute ``name`` to ``value``."""

    name: str
    value: bytes


@dataclass(frozen=True)
class OpOmapSetKeys:
    """Insert/overwrite OMAP keys."""

    values: Tuple[Tuple[bytes, bytes], ...]

    @classmethod
    def from_dict(cls, values: Dict[bytes, bytes]) -> "OpOmapSetKeys":
        """Build from a dict, keeping a deterministic key order."""
        return cls(tuple(sorted(values.items())))


@dataclass(frozen=True)
class OpOmapRmKeys:
    """Remove specific OMAP keys."""

    keys: Tuple[bytes, ...]


@dataclass(frozen=True)
class OpOmapRmRange:
    """Remove every OMAP key in ``[start, end)``."""

    start: bytes
    end: bytes


WriteOp = object  # documentation alias; ops are plain dataclasses


class WriteTransaction:
    """Ordered list of mutations applied atomically to one object."""

    def __init__(self) -> None:
        self.ops: List[object] = []
        #: number of client extents this transaction carries, set by batching
        #: dispatchers so the OSD can account amortization; ``None`` for
        #: scalar transactions (op count is no proxy — layouts add metadata
        #: ops, and adjacent extents merge into one op).
        self.client_extents: Optional[int] = None

    # Fluent builders -------------------------------------------------------

    def create(self, exclusive: bool = False) -> "WriteTransaction":
        """Append an object-create op."""
        self.ops.append(OpCreate(exclusive))
        return self

    def write(self, offset: int, data) -> "WriteTransaction":
        """Append a positional write.

        ``data`` is any bytes-like object; this is where the zero-copy
        write path materialises its single copy (the memoryviews threaded
        down from the pipeline become immutable transaction payload here).
        """
        self.ops.append(OpWrite(offset, bytes(data)))
        return self

    def write_extents(self, extents: Iterable[Tuple[int, bytes]]) -> "WriteTransaction":
        """Append several positional writes, merging exactly adjacent ones.

        Extents are kept in arrival order (later writes win on overlap, the
        same as issuing them as separate transactions), but a run of
        back-to-back extents collapses into a single ``write`` op so the OSD
        sees — and charges for — one large device write per contiguous run.
        """
        runs: List[Tuple[int, List[bytes]]] = []
        run_end: Optional[int] = None
        for offset, data in extents:
            if not len(data):
                continue
            if offset != run_end:
                runs.append((offset, []))
            runs[-1][1].append(data)
            run_end = offset + len(data)
        # One join per run: a lone piece is copied once (not at all when it
        # already is ``bytes``).
        self.ops.extend(OpWrite(offset, b"".join(pieces))
                        for offset, pieces in runs)
        return self

    def write_full(self, data: bytes) -> "WriteTransaction":
        """Append a full-object replace."""
        self.ops.append(OpWriteFull(bytes(data)))
        return self

    def zero(self, offset: int, length: int) -> "WriteTransaction":
        """Append a zero/deallocate op."""
        self.ops.append(OpZero(offset, length))
        return self

    def truncate(self, size: int) -> "WriteTransaction":
        """Append a truncate op."""
        self.ops.append(OpTruncate(size))
        return self

    def remove(self) -> "WriteTransaction":
        """Append an object delete."""
        self.ops.append(OpRemove())
        return self

    def set_xattr(self, name: str, value: bytes) -> "WriteTransaction":
        """Append an xattr set."""
        self.ops.append(OpSetXattr(name, bytes(value)))
        return self

    def omap_set_keys(self, values: Dict[bytes, bytes]) -> "WriteTransaction":
        """Append an OMAP multi-key insert."""
        self.ops.append(OpOmapSetKeys.from_dict(values))
        return self

    def omap_rm_keys(self, keys: List[bytes]) -> "WriteTransaction":
        """Append an OMAP multi-key remove."""
        self.ops.append(OpOmapRmKeys(tuple(keys)))
        return self

    def omap_rm_range(self, start: bytes, end: bytes) -> "WriteTransaction":
        """Append an OMAP range remove."""
        self.ops.append(OpOmapRmRange(start, end))
        return self

    # Introspection ----------------------------------------------------------

    def payload_bytes(self) -> int:
        """Bytes of data carried by this transaction (network payload)."""
        total = 0
        for op in self.ops:
            if isinstance(op, OpWrite):
                total += len(op.data)
            elif isinstance(op, OpWriteFull):
                total += len(op.data)
            elif isinstance(op, OpOmapSetKeys):
                total += sum(len(k) + len(v) for k, v in op.values)
            elif isinstance(op, OpSetXattr):
                total += len(op.value)
        return total

    def __len__(self) -> int:
        return len(self.ops)

    def __bool__(self) -> bool:
        return bool(self.ops)


# --------------------------------------------------------------------------
# Read ops
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OpRead:
    """Read ``length`` bytes at byte ``offset``."""

    offset: int
    length: int


@dataclass(frozen=True)
class OpOmapGetValsByKeys:
    """Fetch the values of specific OMAP keys."""

    keys: Tuple[bytes, ...]


@dataclass(frozen=True)
class OpOmapGetValsByRange:
    """Fetch every OMAP key/value in ``[start, end)``."""

    start: bytes
    end: bytes


@dataclass(frozen=True)
class OpGetXattr:
    """Fetch one extended attribute."""

    name: str


@dataclass(frozen=True)
class OpStat:
    """Fetch the object size."""


class ReadOperation:
    """Ordered list of reads executed (conceptually in parallel) on one object."""

    def __init__(self) -> None:
        self.ops: List[object] = []

    def read(self, offset: int, length: int) -> "ReadOperation":
        """Append an extent read."""
        self.ops.append(OpRead(offset, length))
        return self

    def read_extents(self, extents: Iterable[Tuple[int, int]]) -> "ReadOperation":
        """Append several extent reads (executed in parallel by the OSD)."""
        for offset, length in extents:
            self.ops.append(OpRead(offset, length))
        return self

    def omap_get_vals_by_keys(self, keys: List[bytes]) -> "ReadOperation":
        """Append a multi-key OMAP fetch."""
        self.ops.append(OpOmapGetValsByKeys(tuple(keys)))
        return self

    def omap_get_vals_by_range(self, start: bytes, end: bytes) -> "ReadOperation":
        """Append an OMAP range fetch."""
        self.ops.append(OpOmapGetValsByRange(start, end))
        return self

    def get_xattr(self, name: str) -> "ReadOperation":
        """Append an xattr fetch."""
        self.ops.append(OpGetXattr(name))
        return self

    def stat(self) -> "ReadOperation":
        """Append a stat."""
        self.ops.append(OpStat())
        return self

    def __len__(self) -> int:
        return len(self.ops)

    def __bool__(self) -> bool:
        return bool(self.ops)


@dataclass
class OpResult:
    """Result of a single op inside a :class:`ReadOperation`."""

    data: bytes = b""
    kv: Dict[bytes, bytes] = field(default_factory=dict)
    xattr: Optional[bytes] = None
    size: Optional[int] = None
