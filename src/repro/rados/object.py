"""Per-OSD representation of a RADOS object.

Each object owns a contiguous region of its OSD's data device (a simple
bump allocator hands out regions), an xattr dictionary, a key prefix inside
the OSD's LSM store for its OMAP namespace, and a list of snapshot clones.

Snapshot model (simplified self-managed snapshots)
--------------------------------------------------
The RBD layer allocates snapshot ids from the pool.  When a write carries a
snapshot context whose sequence number is newer than the object has seen,
the OSD first preserves the current object state (data, omap, xattrs) as a
:class:`CloneInfo` covering the snapshot ids in the context, then applies
the write to the head.  Reads at a snapshot id return the state of the
first clone that covers the id, falling back to the head if the object has
not been written since the snapshot was taken.  This mirrors the
copy-on-write behaviour the paper leans on when discussing how snapshots
retain old ciphertext (and old IVs) alongside new data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set


@dataclass
class CloneInfo:
    """Preserved pre-write state of an object, covering a set of snapshots."""

    snap_ids: Set[int]
    data: bytes
    size: int
    omap: Dict[bytes, bytes] = field(default_factory=dict)
    xattrs: Dict[str, bytes] = field(default_factory=dict)


@dataclass
class RadosObject:
    """Metadata the OSD keeps for one replica of one object."""

    name: str
    pool: str
    region_offset: int          #: start of the device region backing the head
    region_length: int          #: maximum size the head may grow to
    size: int = 0               #: current logical size of the head
    xattrs: Dict[str, bytes] = field(default_factory=dict)
    clones: List[CloneInfo] = field(default_factory=list)
    snap_seq_seen: int = 0      #: newest snapshot sequence already cloned for
    exists: bool = True
    #: transaction counter of this replica; peering compares versions
    #: across the replica set to find the authoritative copy (stale or
    #: missing replicas are backfill targets).
    version: int = 0

    def omap_prefix(self) -> bytes:
        """Key prefix isolating this object's OMAP namespace in the LSM store."""
        return f"omap/{self.pool}/{self.name}/".encode("utf-8")

    def omap_key(self, key: bytes) -> bytes:
        """Fully-qualified LSM key for an object-scoped OMAP key."""
        return self.omap_prefix() + key

    def clone_for_snap(self, snap_id: int) -> Optional[CloneInfo]:
        """Return the clone covering ``snap_id`` or ``None`` (use the head)."""
        for clone in self.clones:
            if snap_id in clone.snap_ids:
                return clone
        return None
