"""Cost parameters of the simulated testbed.

The defaults are calibrated so that the *baseline* (LUKS2, no per-sector
metadata) roughly matches the scale of the paper's Fig. 3 measurements on
their 3-node cluster (NVMe OSDs, ~13 Gb/s effective client link, 3-way
replication): reads plateauing around ~2.4 GB/s and writes around
~1.1 GB/s for multi-megabyte IOs, with IOPS/CPU-limited behaviour at 4 KB.
Absolute values are calibration constants — the comparisons between
encryption layouts are *produced* by the simulation (extra device
operations, read-modify-write turns, OMAP key insertions), not assumed.
See DESIGN.md §2 and EXPERIMENTS.md for the calibration discussion.

Two kinds of cost appear throughout:

* **latency** — time on the critical path of a single operation; feeds the
  queue-depth (Little's law) bound.
* **occupancy** — time a shared resource is kept busy; feeds the
  bottleneck-resource bound.  For an NVMe device the occupancy of one
  operation (a few µs of channel time) is much smaller than its latency
  (tens of µs), which is why queue depth helps throughput at all.

All times are microseconds, all bandwidths are MiB/s.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from ..errors import ConfigurationError

#: valid values of :attr:`CostParameters.sim_mode` (and the CLI's
#: ``--sim-mode`` flag).
SIM_MODES = ("analytic", "events")

#: the one value :attr:`CostParameters.event_engine` accepts.  No module
#: reads the field: there is one event engine (the index machine of
#: :mod:`repro.sim.replay` and its vectorized open-loop scans).  Field and
#: tuple stay only because ``perf/workloads.py:559`` still passes
#: ``event_engine="compact"``; ROADMAP item 1(c) drops that keyword and
#: deletes both with their validation.
EVENT_ENGINES = ("compact",)


@dataclass
class CostParameters:
    """Tunable constants of the simulated hardware and software stack."""

    # --- NVMe device (aggregate per OSD node) --------------------------------
    device_read_latency_us: float = 65.0     #: critical-path latency of a read
    device_write_latency_us: float = 25.0    #: critical-path latency of a write
    device_op_occupancy_us: float = 4.0      #: channel occupancy per operation
    device_read_bandwidth_mbps: float = 2800.0
    device_write_bandwidth_mbps: float = 1150.0
    #: additional occupancy charged once per unaligned (read-modify-write) write
    device_rmw_penalty_us: float = 8.0
    #: additional critical-path latency of the read-before-write turn
    device_rmw_latency_us: float = 65.0
    #: writes strictly smaller than this are treated as deferred/journaled
    #: small writes (BlueStore-style): no read-modify-write turn is charged.
    deferred_write_threshold: int = 4096
    sector_size: int = 4096

    # --- network ------------------------------------------------------------
    network_round_trip_us: float = 90.0      #: client <-> primary OSD RTT
    replication_hop_us: float = 45.0         #: primary -> replica latency
    client_bandwidth_mbps: float = 2600.0    #: client NIC effective bandwidth
    cluster_bandwidth_mbps: float = 9000.0   #: aggregate backend network

    # --- OSD request processing ---------------------------------------------
    osd_op_cost_us: float = 20.0             #: fixed CPU cost per transaction/read
    osd_subop_cost_us: float = 3.0           #: CPU cost of each op inside it
    osd_byte_cost_us_per_kib: float = 0.010  #: CPU cost of moving payload
    #: how many transaction pipelines one OSD node keeps busy concurrently
    #: (shards); OSD work (CPU + device occupancy) is divided by this.
    osd_shards: int = 1

    # --- OMAP / embedded key-value store -------------------------------------
    omap_op_cost_us: float = 2.0             #: fixed cost of one OMAP op in a txn
    omap_write_key_cost_us: float = 1.8      #: per key inserted/updated
    omap_read_key_cost_us: float = 0.2       #: per key returned by a lookup
    omap_byte_cost_us_per_kib: float = 0.25  #: per KiB of key+value payload
    omap_compaction_factor: float = 0.25     #: amortised compaction overhead
    wal_group_commit: int = 8                #: WAL appends sharing one flush

    # --- client (libRBD) ------------------------------------------------------
    client_op_cost_us: float = 12.0          #: per-IO client dispatch cost
    crypto_block_cost_us: float = 0.8        #: AES-NI cost per 4 KiB block
    iv_generation_cost_us: float = 0.15      #: DRBG cost per random IV
    #: Reed-Solomon encode cost per KiB of stripe output (all k+m chunks);
    #: charged like the crypto kernels — table-driven GF(256) math runs at
    #: the same order as AES-NI (crypto_block_cost_us is 0.8 us / 4 KiB).
    ec_encode_cost_us_per_kib: float = 0.20
    #: Reed-Solomon decode cost per KiB of stripe reconstructed; decode
    #: pays a matrix inversion on top of the multiply-XOR sweep, so it
    #: runs a bit hotter than encode.
    ec_decode_cost_us_per_kib: float = 0.35
    #: client CPU cost of one block-cache lookup + copy (charged once per
    #: cached operation by :class:`repro.cache.CachedImage`)
    cache_hit_cost_us: float = 2.0
    #: fixed latency of one persistent-write-log append (local SSD/PMEM
    #: pool; charged by :class:`repro.pwl.PwlImage` at the ack point)
    pwl_append_latency_us: float = 6.0
    #: transfer bandwidth of the persistent-write-log media
    pwl_bandwidth_mbps: float = 2000.0

    # --- failure handling and recovery ----------------------------------------
    #: time a client burns before declaring one dispatch to a dead OSD
    #: failed (the per-op timeout; charged as critical-path latency on
    #: every failed attempt).
    osd_timeout_us: float = 2000.0
    #: base of the client's bounded exponential retry backoff; attempt
    #: ``k`` waits ``min(base * 2**k, cap)`` plus seeded jitter.
    retry_backoff_base_us: float = 100.0
    #: cap of the exponential retry backoff.
    retry_backoff_cap_us: float = 8000.0
    #: dispatch attempts (first try included) before a write/read gives up.
    retry_max_attempts: int = 5
    #: fixed OSD CPU cost of one backfill push (scan + object bookkeeping
    #: on top of the data movement itself).
    recovery_op_cost_us: float = 30.0
    #: throttled bandwidth one backfill push may use on the backend
    #: network — recovery deliberately runs below wire speed so client
    #: traffic survives a rebuild storm.
    recovery_bandwidth_mbps: float = 600.0

    # --- cluster shape --------------------------------------------------------
    osd_count: int = 3
    replica_count: int = 3

    #: which performance model converts recorded work into elapsed time:
    #: "analytic" (closed-form two-bound fast path) or "events" (discrete-
    #: event replay through per-OSD FIFO queues — the accurate path, and
    #: the only one that can express multi-client contention).
    sim_mode: str = "analytic"

    #: accepted and ignored, see :data:`EVENT_ENGINES`.
    event_engine: str = "compact"

    #: how many independent contention domains the event replay is split
    #: into: clients (and the OSD queues they drive) are partitioned into
    #: ``sim_shards`` shards simulated independently and merged
    #: deterministically.  1 reproduces the single shared-cluster replay
    #: exactly; >1 trades cross-shard OSD contention for parallelism.
    sim_shards: int = 1

    #: worker processes used to advance shards in parallel.  Purely an
    #: execution knob: results are bit-identical for any ``sim_jobs``
    #: (the shard partition and the merge order depend only on
    #: ``sim_shards``).
    sim_jobs: int = 1

    #: fraction of the simulated elapsed time a resource's busy time must
    #: reach before an event replay labels the run with that resource as
    #: its bound; below it the run is reported as paced by operation
    #: latency at the configured depth ("latency(qd)") or by the open-loop
    #: arrival process ("arrival(open-loop)").  One named knob shared by
    #: both replay paths (index machine, vectorized scans) so they agree
    #: on what "saturated" means; the analytic estimate needs no threshold
    #: because its winning resource bound is saturated by construction.
    saturation_threshold: float = 0.8

    #: free-form labels describing the calibration, carried into reports
    notes: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.osd_count <= 0:
            raise ConfigurationError("osd_count must be positive")
        if not 1 <= self.replica_count <= self.osd_count:
            raise ConfigurationError(
                "replica_count must be between 1 and osd_count")
        if self.sector_size <= 0 or self.sector_size % 512:
            raise ConfigurationError("sector_size must be a multiple of 512")
        if self.osd_shards <= 0:
            raise ConfigurationError("osd_shards must be positive")
        if self.wal_group_commit <= 0:
            raise ConfigurationError("wal_group_commit must be positive")
        if self.sim_mode not in SIM_MODES:
            raise ConfigurationError(
                f"sim_mode must be one of {SIM_MODES}, got {self.sim_mode!r}")
        if self.event_engine not in EVENT_ENGINES:
            raise ConfigurationError(
                f"event_engine must be one of {EVENT_ENGINES}, got "
                f"{self.event_engine!r} (the legacy scheduler was removed "
                f"in PR 24)")
        if self.sim_shards <= 0:
            raise ConfigurationError("sim_shards must be positive")
        if self.sim_jobs <= 0:
            raise ConfigurationError("sim_jobs must be positive")
        if not 0.0 < self.saturation_threshold <= 1.0:
            raise ConfigurationError(
                "saturation_threshold must be within (0, 1]")
        if self.pwl_append_latency_us < 0:
            raise ConfigurationError("pwl_append_latency_us must be >= 0")
        if self.retry_max_attempts < 1:
            raise ConfigurationError("retry_max_attempts must be >= 1")
        for name in ("osd_timeout_us", "retry_backoff_base_us",
                     "retry_backoff_cap_us", "recovery_op_cost_us",
                     "ec_encode_cost_us_per_kib", "ec_decode_cost_us_per_kib"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        for name in ("device_read_bandwidth_mbps", "device_write_bandwidth_mbps",
                     "client_bandwidth_mbps", "cluster_bandwidth_mbps",
                     "pwl_bandwidth_mbps", "recovery_bandwidth_mbps"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")

    # -- convenience conversions ----------------------------------------------

    def device_transfer_us(self, nbytes: int, is_write: bool) -> float:
        """Time to move ``nbytes`` to/from one device (excludes op cost)."""
        bw = (self.device_write_bandwidth_mbps if is_write
              else self.device_read_bandwidth_mbps)
        return nbytes / (bw * 1024 * 1024) * 1e6

    def client_transfer_us(self, nbytes: int) -> float:
        """Time for ``nbytes`` to cross the client NIC."""
        return nbytes / (self.client_bandwidth_mbps * 1024 * 1024) * 1e6

    def cluster_transfer_us(self, nbytes: int) -> float:
        """Time for ``nbytes`` of replication traffic on the backend network."""
        return nbytes / (self.cluster_bandwidth_mbps * 1024 * 1024) * 1e6

    def with_overrides(self, **kwargs: object) -> "CostParameters":
        """Return a copy with selected fields replaced (ablation studies)."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


def default_cost_parameters() -> CostParameters:
    """The calibration used by the benchmark harness (see EXPERIMENTS.md)."""
    params = CostParameters()
    params.notes["calibration"] = (
        "matched to the scale of HotStorage'22 Fig.3 baseline: "
        "~2.4 GB/s large reads, ~1.1 GB/s large writes, CPU/IOPS-bound 4 KiB IOs")
    return params
