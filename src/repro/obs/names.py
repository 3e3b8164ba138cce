"""Canonical observability name registries.

Two flat namespaces used across the stack were historically stringly
typed:

* **ledger counter names** — ``ledger.count("cache.read_hits")`` wrote
  into a ``defaultdict``, so a typo'd name silently created a fresh
  counter instead of failing;
* **operation kinds** — ``OpTrace(kind=...)`` literals were scattered
  across the RADOS client, the cache, the persistent write log and the
  recovery path, with nothing pinning the set.

This module declares both registries.  They are plain data (no imports
from the rest of the package) so every layer — ``sim``, ``rados``,
``cache``, ``pwl`` — can import them without cycles.  The test suite
scans ``src/`` and fails on any literal that does not resolve here
(``tests/obs/test_counter_names.py``).
"""

from __future__ import annotations

from typing import Dict, Tuple

# ---------------------------------------------------------------------------
# operation kinds
# ---------------------------------------------------------------------------

#: RADOS-level operation kinds an :class:`~repro.sim.ledger.OpTrace` may
#: carry.  Order matters: the compact trace columns store the *index*
#: into this tuple, so appending is safe but reordering would change
#: encoded streams.
KIND_WRITE = "write"
KIND_READ = "read"
KIND_CACHE_HIT = "cache-hit"
KIND_PWL_APPEND = "pwl-append"
KIND_BACKFILL = "backfill"
KIND_EC_REPAIR = "ec-repair"
#: placeholder for synthetic traces built by tests/tools
KIND_OP = "op"

OP_KINDS: Tuple[str, ...] = (KIND_WRITE, KIND_READ, KIND_CACHE_HIT,
                             KIND_PWL_APPEND, KIND_BACKFILL, KIND_EC_REPAIR,
                             KIND_OP)

#: kind -> compact-column index (the encoder's lookup table)
KIND_INDEX: Dict[str, int] = {kind: i for i, kind in enumerate(OP_KINDS)}


# ---------------------------------------------------------------------------
# ledger counters
# ---------------------------------------------------------------------------

#: every counter name the simulation may write, with the one-line help
#: string the Prometheus exposition carries.  Grouped by namespace.
COUNTERS: Dict[str, str] = {
    # -- client-side block cache ------------------------------------------------
    "cache.read_hits": "read blocks served from the client cache",
    "cache.read_misses": "read blocks that missed the client cache",
    "cache.write_hits": "written blocks that hit a cached block",
    "cache.write_misses": "written blocks absent from the cache",
    "cache.readahead_blocks": "blocks prefetched by sequential readahead",
    "cache.readahead_hits": "reads served from a readahead prefetch",
    "cache.fill_reads": "cluster reads issued to fill cache blocks",
    "cache.evictions": "clean blocks evicted from the cache",
    "cache.dirty_evictions": "dirty blocks written back on eviction",
    "cache.writebacks": "writeback flush operations issued",
    "cache.writeback_blocks": "dirty blocks coalesced into writebacks",
    "cache.flushes": "explicit cache flush barriers",
    # -- persistent write log ---------------------------------------------------
    "pwl.appends": "write records appended to the persistent log",
    "pwl.appended_bytes": "payload bytes appended to the persistent log",
    "pwl.drains": "in-order drain passes from log to cluster",
    "pwl.drained_records": "log records drained through to RADOS",
    "pwl.checkpoints": "log checkpoints (drain watermarks persisted)",
    "pwl.replayed_records": "records replayed from the log on reopen",
    "pwl.overlay_reads": "reads served from the undrained log overlay",
    "pwl.flushes": "explicit pwl flush barriers",
    # -- clone / layering -------------------------------------------------------
    "clone.clones_created": "COW clone images created",
    "clone.copyups": "copyup operations (first write to a cloned object)",
    "clone.copyup_bytes": "bytes copied up from parent layers",
    "clone.parent_reads": "reads that descended to a parent layer",
    "clone.parent_read_bytes": "bytes read from parent layers",
    "clone.flattens": "clone flatten operations",
    "clone.flatten_objects": "objects migrated down by flatten",
    # -- batched I/O engine -----------------------------------------------------
    "engine.batches": "engine windows flushed",
    "engine.batched_requests": "client requests coalesced into windows",
    "engine.batched_blocks": "blocks carried by flushed windows",
    # -- crypto -----------------------------------------------------------------
    "crypto.blocks": "4 KiB blocks encrypted or decrypted",
    "crypto.journal_writes": "journal-mode metadata journal writes",
    # -- RADOS client -----------------------------------------------------------
    "rados.transactions": "write transactions committed",
    "rados.write_ops": "object write ops inside transactions",
    "rados.read_ops": "object read ops",
    "rados.client_write_ops": "client-visible RADOS write operations",
    "rados.client_read_ops": "client-visible RADOS read operations",
    "rados.objects_created": "RADOS objects created",
    "rados.clones_created": "object clones created by snapshots",
    "rados.multi_extent_transactions": "transactions carrying >1 extent",
    "rados.batched_extents": "extents carried by multi-extent transactions",
    # -- cluster / failure lifecycle --------------------------------------------
    "cluster.degraded_writes": "writes committed below full replica count",
    "cluster.degraded_reads": "reads served by a non-primary replica",
    "cluster.write_retries": "write attempts repeated after a failure",
    "cluster.read_retries": "read attempts repeated after a failure",
    "cluster.osd_dispatch_timeouts": "dispatches that burned an OSD timeout",
    "cluster.osd_down_events": "OSD daemon death events",
    "cluster.osd_out_events": "OSDs marked out of the data distribution",
    "cluster.osd_restart_events": "OSD daemon restarts",
    "cluster.osd_recovered_events": "OSDs that finished recovery",
    "cluster.ec_degraded_writes": "EC writes committed with shards missing",
    "cluster.ec_degraded_reads": "EC reads reconstructed through the codec",
    "cluster.ec_rmw_reads": "EC stripe reads forced by sub-stripe writes",
    # -- erasure coding ---------------------------------------------------------
    "ec.stripe_writes": "full EC stripes encoded and written",
    "ec.encode_bytes": "bytes pushed through the EC encoder",
    "ec.decode_bytes": "bytes reconstructed by the EC decoder",
    # -- recovery / backfill ----------------------------------------------------
    "recovery.objects_pushed": "objects pushed by backfill",
    "recovery.bytes_pushed": "bytes pushed by backfill",
    "recovery.incomplete_passes": "backfill passes that ended incomplete",
    "recovery.ec_objects_repaired": "EC chunks rebuilt by ec-repair",
    "recovery.ec_bytes_repaired": "bytes rebuilt by ec-repair",
    "recovery.ec_unrecoverable": "EC objects with too few survivors",
    # -- simulated devices ------------------------------------------------------
    "device.ops": "block-device operations",
    "device.sectors": "sectors touched by device operations",
    "device.sectors_read": "sectors read from devices",
    "device.sectors_written": "sectors written to devices",
    "device.rmw_turns": "device-level read-modify-write turns",
    "device.rmw_sectors": "sectors re-read by device RMW turns",
    "device.flushes": "device cache flushes",
    "device.discards": "device discard (trim) operations",
    # -- OMAP / embedded LSM ----------------------------------------------------
    "omap.keys_written": "OMAP keys written",
    "omap.keys_read": "OMAP keys read",
    "omap.point_lookups": "OMAP point lookups",
    "omap.bytes_written": "bytes written into the OMAP store",
    "omap.write_batches": "OMAP write batches",
    "omap.read_batches": "OMAP read batches",
    "omap.wal_bytes": "bytes appended to the OMAP write-ahead log",
    "omap.flushes": "OMAP memtable flushes",
    "omap.compactions": "OMAP SSTable compactions",
    # -- network ----------------------------------------------------------------
    "net.client_bytes": "bytes moved on the client access network",
    "net.replication_bytes": "bytes moved by replication pushes",
    "net.recovery_bytes": "bytes moved by recovery traffic",
    "net.ec_shard_bytes": "bytes moved to EC shard OSDs",
}


def is_registered_counter(name: str) -> bool:
    """True if ``name`` is a declared ledger counter."""
    return name in COUNTERS


def counter_help(name: str) -> str:
    """Help string for a counter (a generic fallback for unknown names)."""
    return COUNTERS.get(name, "simulation counter")
