"""The erasure-coded pool backend: objects stripe into ``k + m`` chunks.

The client is the EC "primary": a write reassembles the current stripe
if the transaction needs a read-modify-write, applies the data ops to the
logical buffer, re-encodes, and commits one chunk per acting shard as a
single atomic multi-chunk transaction (all shards ack or the attempt
fails and the caller retries).  Metadata ops ride on every shard so
OMAP/xattrs stay readable from any single survivor.  Reads concatenate
the ``k`` data chunks and only touch GF(256) math when one is missing;
repair reconstructs exactly the chunk a stale shard should hold from any
``k`` survivors.

Shard identity is the chunk index *recorded* on each shard
(:data:`~repro.rados.ec.EC_SHARD_XATTR`), never the up-set position.
See :mod:`repro.rados.backend` for what a backend owns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .backend import BackfillItem, PoolBackend
from .cluster import Cluster, EcPool
from .ec import (EC_SHARD_XATTR, EC_SIZE_XATTR, assign_shard_indices,
                 ec_codec, parse_logical_size, parse_shard_index)
from .object import CloneInfo, RadosObject
from .osd import OSD
from .transaction import (OpCreate, OpGetXattr, OpOmapGetValsByKeys,
                          OpOmapGetValsByRange, OpOmapRmKeys, OpOmapRmRange,
                          OpOmapSetKeys, OpRead, OpRemove, OpResult,
                          OpSetXattr, OpStat, OpTruncate, OpWrite, OpWriteFull,
                          OpZero, ReadOperation, WriteTransaction)
from ..errors import (DegradedClusterError, ObjectNotFoundError, OsdDownError,
                      TransactionError)
from ..faults.plan import STAGE_KILL_EC_SHARD_MID_TXN, osd_kill_due
from ..obs.names import KIND_EC_REPAIR
from ..sim.ledger import RES_CLIENT_CPU, RES_CLUSTER_NET, RES_OSD_CPU

#: write-transaction ops that touch object data (striped across shards)
_DATA_OPS = (OpCreate, OpWrite, OpWriteFull, OpZero, OpTruncate, OpRemove)
#: write-transaction ops that carry metadata (replicated onto every shard)
_META_OPS = (OpSetXattr, OpOmapSetKeys, OpOmapRmKeys, OpOmapRmRange)


def _shard_xattr(index: int) -> bytes:
    return str(index).encode("ascii")


def _without_shard_xattr(xattrs: Dict[str, bytes]) -> Dict[str, bytes]:
    """A shard's xattrs minus its own chunk index: what must be equal on
    every shard of a stripe."""
    return {name: value for name, value in xattrs.items()
            if name != EC_SHARD_XATTR}


@dataclass
class _StripeWrite:
    """One logical write, prepared once and re-committed by every retry.

    The stripe (RMW read + encode) is built by the first dispatch attempt
    and never again: a retry after a mid-stripe kill re-commits the *same*
    chunks idempotently — it must never read back the half-committed
    stripe the failed attempt left behind.
    """

    data_ops: List[object]
    meta_ops: List[object]
    removes: bool
    shard_hint: int
    encoded: bool = False
    chunks: Optional[List[bytes]] = None   #: None: metadata-only write
    size: int = 0                          #: logical size after the write
    read_us: float = 0.0                   #: the serial RMW stripe read


@dataclass
class _StripeScrub:
    """What deep scrub collects while walking one stripe's shards."""

    meta: Dict[str, bytes]
    omap: Dict[bytes, bytes]
    holder: Dict[int, int] = field(default_factory=dict)   #: index -> osd
    chunks: Dict[int, bytes] = field(default_factory=dict)


class EcBackend(PoolBackend):
    """``k`` data + ``m`` parity chunks, one per up-set member."""

    member = "EC shard"

    def __init__(self, cluster: Cluster, pool: EcPool) -> None:
        super().__init__(cluster, pool)
        self._codec = ec_codec(pool.k, pool.m)

    # -- write path --------------------------------------------------------------

    def prepare_write(self, txn: WriteTransaction,
                      object_size_hint: int) -> _StripeWrite:
        """Split ``txn`` into data ops (striped) and metadata ops
        (replicated per shard); reject shapes the stripe path cannot make
        atomic."""
        data_ops = [op for op in txn.ops if isinstance(op, _DATA_OPS)]
        meta_ops = [op for op in txn.ops if isinstance(op, _META_OPS)]
        if len(data_ops) + len(meta_ops) != len(txn.ops):
            unknown = [op for op in txn.ops
                       if not isinstance(op, _DATA_OPS + _META_OPS)]
            raise TransactionError(
                f"unknown write op {unknown[0]!r} in EC pool transaction")
        removes = [op for op in data_ops if isinstance(op, OpRemove)]
        if removes and len(txn.ops) > len(removes):
            raise TransactionError(
                "OpRemove cannot be combined with other ops in an EC "
                "pool transaction")
        return _StripeWrite(data_ops, meta_ops, bool(removes),
                            shard_hint=-(-object_size_hint // self._codec.k))

    def dispatch_write(self, prepared: _StripeWrite, acting: List[int],
                       name: str, object_size_hint: int, snap_seq: int,
                       snap_ids: Tuple[int, ...],
                       payload: int) -> Tuple[float, float, int]:
        """One stripe-commit attempt (the armed EC kill fires in
        :meth:`_commit_shard`)."""
        params = self._cluster.params
        ledger = self._cluster.ledger
        total = self._pool.replica_count
        latencies: List[float] = []
        shard_payload = 0
        if prepared.removes:
            # Delete every shard: one remove per shard, nothing to encode.
            for position, osd_id in enumerate(acting):
                latencies.append(self._commit_shard(
                    position, osd_id, name, WriteTransaction().remove(),
                    prepared.shard_hint, snap_seq, snap_ids))
                ledger.count("net.ec_shard_bytes", 0)
        else:
            # Shard identity comes from the recorded indices (never from
            # the up-set position): re-peek each attempt so a retried
            # commit re-applies the same chunk to any shard that took it.
            exists, recorded, logical_size = self._peek_shards(acting, name)
            if not prepared.encoded:
                self._encode_stripe(prepared, name, exists, logical_size,
                                    object_size_hint)
            assignment = assign_shard_indices(total, recorded, acting)
            size_value = str(prepared.size).encode("ascii")
            for position, osd_id in enumerate(acting):
                index = assignment[osd_id]
                shard_txn = WriteTransaction()
                for op in prepared.data_ops:
                    if isinstance(op, OpCreate):
                        shard_txn.ops.append(op)
                if prepared.chunks is not None:
                    shard_txn.write_full(prepared.chunks[index])
                shard_txn.ops.extend(prepared.meta_ops)
                shard_txn.set_xattr(EC_SHARD_XATTR, _shard_xattr(index))
                shard_txn.set_xattr(EC_SIZE_XATTR, size_value)
                shard_payload = shard_txn.payload_bytes()
                latencies.append(self._commit_shard(
                    position, osd_id, name, shard_txn, prepared.shard_hint,
                    snap_seq, snap_ids))
                ledger.busy(RES_CLUSTER_NET,
                            params.cluster_transfer_us(shard_payload))
                ledger.count("net.ec_shard_bytes", shard_payload)
        self._equalize_versions(acting, name)
        if len(acting) < total:
            ledger.count("cluster.ec_degraded_writes")
        # Chunk commits proceed in parallel after the (serial) RMW read;
        # chunks beyond the first ride the backend network like replica
        # pushes.
        return prepared.read_us, max(latencies), shard_payload

    def _commit_shard(self, position: int, osd_id: int, name: str,
                      shard_txn: WriteTransaction, shard_hint: int,
                      snap_seq: int, snap_ids: Tuple[int, ...]) -> float:
        """Apply one shard's part of the stripe transaction; returns its
        latency as the client sees it."""
        cluster = self._cluster
        latency = cluster.osd_by_id(osd_id).apply_transaction(
            self._pool.name, name, shard_txn, shard_hint, snap_seq, snap_ids)
        if osd_kill_due(STAGE_KILL_EC_SHARD_MID_TXN, osd_id):
            # The shard committed locally, then its daemon died before
            # the stripe acked: the client retries against the
            # survivors (re-applying the stripe is idempotent).
            cluster.mark_osd_down(osd_id)
            raise OsdDownError(
                f"osd.{osd_id} (EC shard) died mid-stripe-transaction")
        return (latency if position == 0
                else cluster.params.replication_hop_us + latency)

    def _peek_shards(self, acting: List[int], name: str,
                     ) -> Tuple[bool, Dict[int, int], int]:
        """Bookkeeping peek at the acting shards: does the stripe exist,
        which recorded chunk index does each OSD hold, and the recorded
        logical size."""
        pool = self._pool
        exists = False
        recorded: Dict[int, int] = {}
        logical_size = 0
        for osd_id in acting:
            obj = self._cluster.osd_by_id(osd_id).lookup(pool.name, name)
            if obj is None:
                continue
            exists = True
            index = parse_shard_index(obj.xattrs, pool.replica_count)
            if index is not None:
                recorded[osd_id] = index
            logical_size = max(logical_size, parse_logical_size(obj.xattrs))
        return exists, recorded, logical_size

    @staticmethod
    def _apply_data_ops(buf: bytearray, size: int, data_ops: List[object],
                        region_limit: int) -> Tuple[bytearray, int]:
        """Apply data ops to the logical stripe buffer, mirroring the OSD
        device semantics exactly: OpZero discards bytes without moving the
        object size, OpTruncate moves the size without touching bytes."""
        for op in data_ops:
            if isinstance(op, OpWrite):
                if op.offset < 0:
                    raise TransactionError("negative write offset")
                end = op.offset + len(op.data)
                if end > region_limit:
                    raise TransactionError(
                        f"write [{op.offset}, {end}) exceeds object "
                        f"region {region_limit}")
                if end > len(buf):
                    buf.extend(bytes(end - len(buf)))
                buf[op.offset:end] = op.data
                size = max(size, end)
            elif isinstance(op, OpWriteFull):
                buf = bytearray(op.data)
                size = len(op.data)
            elif isinstance(op, OpZero):
                if op.offset < 0 or op.length < 0:
                    raise TransactionError("negative zero range")
                end = op.offset + op.length
                if end > len(buf):
                    buf.extend(bytes(end - len(buf)))
                buf[op.offset:end] = bytes(op.length)
            elif isinstance(op, OpTruncate):
                if op.size < 0:
                    raise TransactionError("negative truncate size")
                size = op.size
        return buf, size

    def _encode_stripe(self, prepared: _StripeWrite, name: str, exists: bool,
                       logical_size: int, object_size_hint: int) -> None:
        """Build the chunks the stripe commit will write: reassemble the
        stripe if the transaction needs a read-modify-write (real reads —
        the EC write amplification the cost model must see), apply the
        data ops to the logical buffer, and encode."""
        cluster = self._cluster
        ledger = cluster.ledger
        pool = self._pool
        data_ops = prepared.data_ops

        for op in data_ops:
            if isinstance(op, OpCreate) and op.exclusive and exists:
                raise TransactionError(
                    f"object {pool.name}/{name} already exists "
                    f"(exclusive create)")

        mutating = [op for op in data_ops if not isinstance(op, OpCreate)]
        needs_rmw = exists and any(
            isinstance(op, (OpWrite, OpZero, OpTruncate)) for op in mutating)
        buf = bytearray()
        size = 0
        read_us = 0.0
        if needs_rmw:
            padded, size, read_us = self._read_stripe(name, None)
            buf = bytearray(padded)
            ledger.count("cluster.ec_rmw_reads")
        elif exists:
            size = logical_size

        region_limit = object_size_hint + cluster.config.object_region_reserve
        buf, size = self._apply_data_ops(buf, size, data_ops, region_limit)

        if mutating:
            chunks = self._codec.encode(bytes(buf))
            stripe_bytes = len(chunks[0]) * pool.replica_count
            ledger.busy(RES_CLIENT_CPU,
                        cluster.params.ec_encode_cost_us_per_kib
                        * stripe_bytes / 1024.0)
            ledger.count("ec.encode_bytes", stripe_bytes)
            ledger.count("ec.stripe_writes")
            prepared.chunks = chunks
        prepared.size = size
        prepared.read_us = read_us
        prepared.encoded = True

    def _equalize_versions(self, acting: List[int], name: str) -> None:
        """One stripe transaction = one version.

        A retried stripe commit bumps the surviving shards' versions past
        the freshly-written ones; EC repair needs *k* sources at a single
        authoritative version, so after the commit acks every shard is
        stamped with the stripe's max version (real EC pools log one pg
        version for the whole stripe).
        """
        key = (self._pool.name, name)
        objs = [obj for osd_id in acting
                if (obj := self._cluster.osd_by_id(osd_id)
                    .objects.get(key)) is not None]
        if objs:
            stripe_version = max(obj.version for obj in objs)
            for obj in objs:
                obj.version = stripe_version

    # -- read path ---------------------------------------------------------------

    def _read_stripe(self, name: str, snap_id: Optional[int],
                     ) -> Tuple[bytes, int, float]:
        """Fetch and reassemble one EC stripe from its shards; returns
        (zero-padded logical body of ``k * chunk_len`` bytes, recorded
        logical size, OSD-side µs with the chunk reads in parallel).

        The healthy path reads the ``k`` data chunks (recorded shard
        indices ``0..k-1``) and concatenates them — no GF(256) math at
        all.  When a data chunk's OSD is down, any ``k`` surviving chunks
        reconstruct the stripe by matrix inversion; such reads count
        ``cluster.ec_degraded_reads`` and stay bit-identical to the
        healthy read, which the equivalence suite asserts through the
        full encrypted path.
        """
        pool = self._pool
        codec = self._codec
        cluster = self._cluster
        ledger = cluster.ledger
        up_set, acting = self._acting_for_read(name)
        # Bookkeeping peek: which chunk index does each reachable shard
        # hold (recorded per shard — never positional).
        holders: Dict[int, Tuple[int, int]] = {}
        size = 0
        found = 0
        unborn = 0
        for osd_id in acting:
            obj = cluster.osd_by_id(osd_id).lookup(pool.name, name)
            if obj is None:
                continue
            clone = obj.clone_for_snap(snap_id) if snap_id is not None else None
            xattrs = clone.xattrs if clone is not None else obj.xattrs
            chunk_size = clone.size if clone is not None else obj.size
            found += 1
            unborn += clone is not None and not clone.xattrs
            index = parse_shard_index(xattrs, pool.replica_count)
            if index is None or index in holders:
                continue
            holders[index] = (osd_id, chunk_size)
            size = max(size, parse_logical_size(xattrs))
        if found == 0:
            raise ObjectNotFoundError(
                f"object {pool.name}/{name} not found on any acting "
                f"EC shard {acting}")
        if unborn == found:
            # Every reachable shard's covering clone is the empty marker its
            # first write left: the object did not exist at the snapshot.
            return b"", 0, 0.0
        if len(holders) < codec.k:
            raise DegradedClusterError(
                f"read of {pool.name}/{name}: only {len(holders)} of "
                f"{codec.k} required EC chunks reachable (up set {up_set})")
        # Prefer data chunks; fall back to parity in index order.
        chosen = sorted(holders)[:codec.k]
        shards: Dict[int, bytes] = {}
        latencies: List[float] = []
        for index in chosen:
            osd_id, chunk_size = holders[index]
            results, latency = cluster.osd_by_id(osd_id).execute_read(
                pool.name, name, ReadOperation().read(0, chunk_size), snap_id)
            shards[index] = results[0].data
            latencies.append(latency)
        padded = codec.decode(shards)
        stripe_us = max(latencies) if latencies else 0.0
        if chosen != list(range(codec.k)):
            decode_us = (cluster.params.ec_decode_cost_us_per_kib
                         * len(padded) / 1024.0)
            ledger.busy(RES_CLIENT_CPU, decode_us)
            stripe_us += decode_us
            ledger.count("ec.decode_bytes", len(padded))
            ledger.count("cluster.ec_degraded_reads")
        return padded, size, stripe_us

    def read(self, name: str, readop: ReadOperation,
             snap_id: Optional[int]) -> Tuple[List[OpResult], float]:
        """One EC read attempt: extent reads reassemble the stripe;
        stat/xattr/OMAP ops go to a single shard (metadata is replicated
        on every shard, and OpStat translates to the recorded logical-size
        xattr because a shard's own size is a chunk length)."""
        meta_op = ReadOperation()
        wants_data = False
        for op in readop.ops:
            if isinstance(op, OpRead):
                wants_data = True
            elif isinstance(op, OpStat):
                meta_op.ops.append(OpGetXattr(EC_SIZE_XATTR))
            elif isinstance(op, (OpGetXattr, OpOmapGetValsByKeys,
                                 OpOmapGetValsByRange)):
                meta_op.ops.append(op)
            else:
                raise TransactionError(
                    f"unknown read op {op!r} in EC pool read")
        latencies: List[float] = []
        padded = b""
        if wants_data:
            padded, _size, stripe_us = self._read_stripe(name, snap_id)
            latencies.append(stripe_us)
        meta_results: List[OpResult] = []
        if meta_op.ops:
            meta_results, meta_us = self._read_first_holder(name, meta_op,
                                                            snap_id)
            latencies.append(meta_us)

        results: List[OpResult] = []
        meta_iter = iter(meta_results)
        for op in readop.ops:
            if isinstance(op, OpRead):
                data = padded[op.offset:op.offset + op.length]
                if len(data) < op.length:
                    # Unwritten device region: reads return zeros.
                    data = data + bytes(op.length - len(data))
                results.append(OpResult(data=data))
            elif isinstance(op, OpStat):
                results.append(OpResult(size=parse_logical_size(
                    {EC_SIZE_XATTR: next(meta_iter).xattr})))
            else:
                results.append(next(meta_iter))
        return results, max(latencies) if latencies else 0.0

    # -- repair ------------------------------------------------------------------

    def _rebuild(self, item: BackfillItem,
                 target: OSD) -> Optional[Tuple[int, float]]:
        """Reconstruct one lost/stale chunk onto ``target``.

        The repair reads ``k`` surviving chunks at the authoritative
        version (real reads), decodes the stripe, re-encodes exactly the
        chunk the target should hold, and commits it as a real
        transaction — so an EC repair storm moves ``k`` times the chunk
        payload through devices and network, the asymmetry the paper's
        recovery model cares about.  ``None`` when fewer than ``k``
        chunks survive at that version (unrecoverable this pass).
        """
        cluster = self._cluster
        params = cluster.params
        ledger = cluster.ledger
        codec = self._codec
        total = self._pool.replica_count
        key = (self._pool.name, item.name)

        def index_at_version(osd: OSD) -> Optional[int]:
            obj = osd.objects.get(key)
            if obj is None or not obj.exists or obj.version != item.version:
                return None
            return parse_shard_index(obj.xattrs, total)

        # Survivors: up holders of the authoritative version with a valid
        # recorded chunk index (shard identity is never positional).
        sources: Dict[int, OSD] = {}
        for osd in cluster.osds:
            if osd.up and osd is not target:
                index = index_at_version(osd)
                if index is not None and index not in sources:
                    sources[index] = osd
        if len(sources) < codec.k:
            ledger.count("recovery.ec_unrecoverable")
            return None

        # Which chunk should the target hold?  Reuse its own recorded index
        # when no consistent up-set member claims it, else the first free one.
        claimed = {index for osd_id in self.up_set(item.name)
                   if osd_id != target.osd_id
                   and (index := index_at_version(
                       cluster.osd_by_id(osd_id))) is not None}
        tgt_old = target.objects.get(key)
        target_index = (parse_shard_index(tgt_old.xattrs, total)
                        if tgt_old is not None else None)
        if target_index is None or target_index in claimed:
            free = [index for index in range(total) if index not in claimed]
            if not free:
                ledger.count("recovery.ec_unrecoverable")
                return None
            target_index = free[0]

        ledger.busy(RES_OSD_CPU, params.recovery_op_cost_us)

        # Read k surviving chunks (real reads, in parallel) plus the OMAP off
        # the first survivor — metadata is replicated on every shard.
        chosen = sorted(sources)[:codec.k]
        ref_obj = sources[chosen[0]].objects[key]
        shards: Dict[int, bytes] = {}
        read_latencies: List[float] = []
        omap: Dict[bytes, bytes] = {}
        for index in chosen:
            source = sources[index]
            readop = ReadOperation().read(0, source.objects[key].size)
            if index == chosen[0]:
                readop.omap_get_vals_by_range(b"", b"\xff")
            results, latency = source.execute_read(key[0], item.name, readop,
                                                   None)
            shards[index] = results[0].data
            if index == chosen[0]:
                omap = results[1].kv
            read_latencies.append(latency)

        # Decode the stripe, re-encode the target's chunk; charged as OSD CPU
        # (repair runs on the shards, not the client).
        padded = codec.decode(shards)
        chunk = codec.reconstruct(shards, target_index)
        ledger.busy(RES_OSD_CPU,
                    params.ec_decode_cost_us_per_kib * len(padded) / 1024.0
                    + params.ec_encode_cost_us_per_kib * len(chunk) / 1024.0)

        xattrs = sorted(_without_shard_xattr(ref_obj.xattrs).items())
        xattrs.append((EC_SHARD_XATTR, _shard_xattr(target_index)))
        # Snapshot clones are reconstructed the same way, per clone, from the
        # survivors' parallel clone histories (bookkeeping, not data-path IO).
        clones = self._reconstruct_clones(sources, chosen, ref_obj,
                                          target_index)
        payload, latency = self._commit_push(
            target, ref_obj, chunk, omap, xattrs, clones,
            max(read_latencies), KIND_EC_REPAIR)
        ledger.count("recovery.ec_objects_repaired")
        ledger.count("recovery.ec_bytes_repaired", payload)
        return payload, latency

    def _reconstruct_clones(self, sources: Dict[int, OSD], chosen: List[int],
                            ref_obj: RadosObject,
                            target_index: int) -> List[CloneInfo]:
        """Rebuild the target's snapshot-clone chunks from the survivors'
        clone histories (positionally parallel: replicated snap contexts
        append clones in the same order on every shard)."""
        codec = self._codec
        total = self._pool.replica_count
        clones: List[CloneInfo] = []
        for position, ref_clone in enumerate(ref_obj.clones):
            clone_shards: Dict[int, bytes] = {}
            for index in chosen:
                src_obj = sources[index].objects[(ref_obj.pool, ref_obj.name)]
                if position >= len(src_obj.clones):
                    break
                clone = src_obj.clones[position]
                clone_index = parse_shard_index(clone.xattrs, total)
                if clone_index is None or clone_index in clone_shards:
                    continue
                clone_shards[clone_index] = clone.data
            if len(clone_shards) < codec.k:
                # Defensive: mismatched clone histories — skip rather than
                # fabricate (deep scrub does not compare clones).
                continue
            chunk = codec.reconstruct(clone_shards, target_index)
            xattrs = _without_shard_xattr(ref_clone.xattrs)
            xattrs[EC_SHARD_XATTR] = _shard_xattr(target_index)
            clones.append(CloneInfo(snap_ids=set(ref_clone.snap_ids),
                                    data=chunk, size=len(chunk),
                                    omap=dict(ref_clone.omap), xattrs=xattrs))
        return clones

    # -- deep scrub --------------------------------------------------------------
    #
    # Shards hold *different* bytes by design, so instead of comparing raw
    # bytes every up-set shard must hold identical metadata (OMAP, user
    # xattrs, recorded logical size) and a *distinct in-range* chunk index;
    # at least ``k`` chunks of equal length must survive; and decoding the
    # stripe then re-encoding it must reproduce every held chunk bit-exactly
    # (the MDS self-check — a corrupt parity chunk cannot hide behind a
    # healthy systematic read).

    def _scrub_begin(self, ref_osd: OSD,
                     reference: RadosObject) -> _StripeScrub:
        return _StripeScrub(meta=_without_shard_xattr(reference.xattrs),
                            omap=ref_osd._snapshot_omap(reference))

    def _scrub_member(self, state: _StripeScrub, osd: OSD,
                      obj: RadosObject) -> Optional[str]:
        index = parse_shard_index(obj.xattrs, self._pool.replica_count)
        if index is None:
            return "missing/invalid chunk index"
        if index in state.holder:
            return (f"duplicate chunk index {index} "
                    f"(also on osd.{state.holder[index]})")
        state.holder[index] = osd.osd_id
        if _without_shard_xattr(obj.xattrs) != state.meta:
            return "xattrs differ"
        if osd._snapshot_omap(obj) != state.omap:
            return "OMAP differs"
        state.chunks[index] = osd._read_head_bytes(obj)
        return None

    def _scrub_end(self, state: _StripeScrub,
                   up_set: List[int]) -> List[Tuple[int, str]]:
        chunks = state.chunks
        if not chunks:
            return []
        lengths = {len(chunk) for chunk in chunks.values()}
        if len(lengths) > 1:
            return [(state.holder[min(chunks)],
                     f"chunk lengths differ: {sorted(lengths)}")]
        k = self._codec.k
        if len(chunks) < k:
            return [(up_set[0],
                     f"only {len(chunks)} of {k} chunks present — stripe "
                     f"unrecoverable")]
        expected = self._codec.encode(self._codec.decode(chunks))
        return [(state.holder[index],
                 f"chunk {index} differs from re-encoded stripe")
                for index, chunk in sorted(chunks.items())
                if chunk != expected[index]]
