"""Workload specifications (the fio job file of the reproduction)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..errors import WorkloadError
from ..util import KIB, MIB, parse_size

#: The IO-size sweep of the paper's Fig. 3 / Fig. 4 (4 KiB ... 4 MiB).
PAPER_IO_SIZES = (4 * KIB, 8 * KIB, 16 * KIB, 32 * KIB, 64 * KIB, 128 * KIB,
                  256 * KIB, 512 * KIB, 1024 * KIB, 2048 * KIB, 4096 * KIB)

_VALID_PATTERNS = ("randread", "randwrite", "read", "write", "randrw")


@dataclass(frozen=True)
class IORequest:
    """One request produced by the generator."""

    op: str          #: "read" or "write"
    offset: int
    length: int


@dataclass
class WorkloadSpec:
    """Description of one fio-style job."""

    name: str = "job"
    #: access pattern: randread / randwrite / read / write / randrw
    rw: str = "randwrite"
    io_size: int = 4 * KIB
    queue_depth: int = 32
    #: how many requests to issue (if None, derived from total_bytes)
    io_count: Optional[int] = None
    #: total bytes to move (used when io_count is None)
    total_bytes: Optional[int] = 32 * MIB
    #: fraction of reads in a randrw mix
    read_fraction: float = 0.5
    #: RNG seed for offset/op selection (deterministic runs)
    seed: int = 42
    #: write the image sequentially before measuring (needed for reads)
    prefill: bool = False
    #: drive the IO through the batched engine (:mod:`repro.engine`): up to
    #: ``queue_depth`` requests coalesce into one RADOS transaction per object
    batched: bool = False
    #: cap on blocks one object accumulates per engine window (None = no cap)
    batch_size: Optional[int] = None
    #: how many independent client streams issue this job concurrently
    #: against one shared cluster, one image each (each stream keeps
    #: ``queue_depth`` ops in flight; >1 needs the event-driven sim mode to
    #: mean anything — the analytic model cannot see contention)
    num_clients: int = 1
    #: client-side cache mode: None (off), "writethrough", "writeback"
    #: (block cache) or "pwl" (crash-safe persistent write log); each
    #: client stream gets its own cache/log
    cache_mode: Optional[str] = None
    #: cache capacity in bytes (None = the cache package default)
    cache_size: Optional[int] = None
    #: cache eviction policy: "lru" or "arc"
    cache_policy: str = "lru"
    #: maximum blocks of sequential-read prefetch (0 = readahead off)
    readahead: int = 0
    #: issue operations open-loop: each op starts at a timestamp drawn
    #: from the arrival process (``arrival_rate``) instead of waiting for
    #: a completion slot.  Offered load no longer adapts to the system —
    #: overload shows up as unbounded queueing and a collapsing tail —
    #: and the replay can be fully vectorized.  Needs ``sim_mode="events"``
    #: (the analytic model has no notion of arrival times).
    open_loop: bool = False
    #: open-loop Poisson arrival rate per client, in client-visible
    #: operations per second (required when ``open_loop`` is set)
    arrival_rate: Optional[float] = None
    #: name of the golden image this job's images are clones of (None =
    #: standalone images); image construction is done by the harness
    #: (:func:`repro.clone.clone_fanout`, ``SweepConfig``), the spec only
    #: carries the scenario shape so runs stay self-describing
    parent_image: Optional[str] = None
    #: layers between each client's image and the golden image (0 = not a
    #: clone scenario; >= 1 requires ``parent_image``)
    clone_depth: int = 0
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rw not in _VALID_PATTERNS:
            raise WorkloadError(
                f"unknown access pattern {self.rw!r}; valid: {_VALID_PATTERNS}")
        if isinstance(self.io_size, str):
            self.io_size = parse_size(self.io_size)
        if self.io_size <= 0:
            raise WorkloadError("io_size must be positive")
        if self.queue_depth <= 0:
            raise WorkloadError("queue_depth must be positive")
        if self.io_count is None and self.total_bytes is None:
            raise WorkloadError("one of io_count or total_bytes is required")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise WorkloadError("read_fraction must be within [0, 1]")
        if self.batch_size is not None and self.batch_size <= 0:
            raise WorkloadError("batch_size must be positive")
        if self.batch_size is not None and not self.batched:
            raise WorkloadError("batch_size only takes effect with batched=True")
        if self.num_clients <= 0:
            raise WorkloadError("num_clients must be positive")
        from ..cache.config import CACHE_MODES, CACHE_POLICIES
        if self.cache_mode is not None and self.cache_mode not in CACHE_MODES:
            raise WorkloadError(
                f"cache_mode must be None or one of {CACHE_MODES}")
        if self.cache_policy not in CACHE_POLICIES:
            raise WorkloadError(
                f"cache_policy must be one of {CACHE_POLICIES}")
        if isinstance(self.cache_size, str):
            self.cache_size = parse_size(self.cache_size)
        if self.cache_size is not None and self.cache_size <= 0:
            raise WorkloadError("cache_size must be positive")
        if self.readahead < 0:
            raise WorkloadError("readahead must be >= 0")
        if self.cache_mode is None and (self.cache_size is not None
                                        or self.readahead
                                        or self.cache_policy != "lru"):
            raise WorkloadError(
                "cache_size/readahead/cache_policy only take effect with "
                "a cache_mode")
        if self.open_loop and self.arrival_rate is None:
            raise WorkloadError("open_loop needs an arrival_rate (ops/s)")
        if self.arrival_rate is not None:
            if not self.open_loop:
                raise WorkloadError(
                    "arrival_rate only takes effect with open_loop=True")
            if self.arrival_rate <= 0:
                raise WorkloadError("arrival_rate must be positive")
        if self.clone_depth < 0:
            raise WorkloadError("clone_depth must be >= 0")
        if self.clone_depth and not self.parent_image:
            raise WorkloadError("clone_depth requires a parent_image")
        if self.parent_image and not self.clone_depth:
            self.clone_depth = 1

    @property
    def is_random(self) -> bool:
        """True for random-offset patterns."""
        return self.rw.startswith("rand")

    def resolved_io_count(self, image_size: int) -> int:
        """Number of requests to issue against an image of ``image_size``."""
        if self.io_size > image_size:
            raise WorkloadError(
                f"io_size {self.io_size} exceeds image size {image_size}")
        if self.io_count is not None:
            return max(1, self.io_count)
        return max(1, int(self.total_bytes) // self.io_size)

    def for_client(self, client: int) -> "WorkloadSpec":
        """The per-stream job one client of a multi-client run issues.

        Streams are independent (fio's ``numjobs``): same shape, a
        distinct deterministic seed so the clients do not replay identical
        offsets in lockstep.
        """
        return replace(self, name=f"{self.name}.c{client}",
                       seed=self.seed + 7919 * client, num_clients=1)

    def cache_config(self):
        """The :class:`~repro.cache.CacheConfig` this spec asks for
        (``None`` when caching is off)."""
        if self.cache_mode is None:
            return None
        from ..cache.config import CacheConfig, DEFAULT_CACHE_SIZE
        return CacheConfig(mode=self.cache_mode,
                           size=self.cache_size or DEFAULT_CACHE_SIZE,
                           policy=self.cache_policy,
                           readahead_blocks=self.readahead)

    def describe(self) -> str:
        """Short fio-style description."""
        engine = " engine=batched" if self.batched else ""
        clients = f" clients={self.num_clients}" if self.num_clients > 1 else ""
        cache = f" cache={self.cache_mode}" if self.cache_mode else ""
        clone = (f" clone-of={self.parent_image} depth={self.clone_depth}"
                 if self.parent_image else "")
        arrivals = (f" open-loop rate={self.arrival_rate:g}/s"
                    if self.open_loop else "")
        return (f"{self.name}: rw={self.rw} bs={self.io_size} "
                f"qd={self.queue_depth} seed={self.seed}{engine}{clients}"
                f"{cache}{clone}{arrivals}")
