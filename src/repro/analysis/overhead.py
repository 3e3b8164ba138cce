"""Layout-comparison sweeps: the machinery behind Fig. 3 and Fig. 4.

A sweep runs the same fio-style workload against one freshly created,
freshly encrypted image per layout and per IO size, on identical clusters,
and collects the simulated bandwidth.  ``overhead_percent`` then computes
the write-performance degradation relative to the LUKS2 baseline, which is
exactly the quantity plotted in the paper's Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..api import create_encrypted_image, make_cluster
from ..crypto.suite import SIMULATION_SUITE
from ..errors import ConfigurationError
from ..sim.costparams import CostParameters, default_cost_parameters
from ..workload.runner import WorkloadResult, WorkloadRunner, prefill_image
from ..workload.spec import PAPER_IO_SIZES, WorkloadSpec
from ..util import KIB, MIB, format_size

#: the four configurations compared in the paper, in presentation order
PAPER_LAYOUTS = ("luks-baseline", "unaligned", "object-end", "omap")


@dataclass
class SweepConfig:
    """Parameters of one Fig. 3-style sweep."""

    io_sizes: Sequence[int] = PAPER_IO_SIZES
    layouts: Sequence[str] = PAPER_LAYOUTS
    image_size: int = 64 * MIB
    object_size: int = 4 * MIB
    queue_depth: int = 32
    #: bytes moved per (layout, io_size) point, bounded by io-count limits
    bytes_per_point: int = 16 * MIB
    min_ios: int = 8
    max_ios: int = 256
    #: cipher suite used for the sweep (the fast simulation cipher by default;
    #: the metadata path is identical, see DESIGN.md §2)
    cipher_suite: str = SIMULATION_SUITE
    codec: str = "xts"
    seed: int = 1234
    osd_count: int = 3
    replica_count: int = 3
    journaled: bool = False
    #: drive the sweep through the batched I/O engine (:mod:`repro.engine`)
    batched: bool = False
    #: cap on blocks one object accumulates per engine window (None = no cap)
    batch_size: Optional[int] = None
    #: performance model: "analytic" (closed-form fast path) or "events"
    #: (discrete-event replay — required for contention to be visible);
    #: ``None`` inherits whatever ``params`` carries (default analytic)
    sim_mode: Optional[str] = None
    #: independent client streams per sweep point (one image each, shared
    #: cluster)
    num_clients: int = 1
    #: issue operations open-loop at ``arrival_rate`` ops/s per client
    #: instead of the closed queue-depth loop (needs sim_mode "events")
    open_loop: bool = False
    #: per-client Poisson arrival rate in ops/s (required with open_loop)
    arrival_rate: Optional[float] = None
    #: independent contention domains of the event replay (``None`` =
    #: inherit; see :attr:`repro.sim.costparams.CostParameters.sim_shards`)
    sim_shards: Optional[int] = None
    #: worker processes advancing shards (``None`` = inherit; results are
    #: identical for any value)
    sim_jobs: Optional[int] = None
    #: client-side block cache mode: None (off), "writethrough", "writeback"
    cache_mode: Optional[str] = None
    #: cache capacity in bytes (None = the cache package default)
    cache_size: Optional[int] = None
    #: cache eviction policy: "lru" or "arc"
    cache_policy: str = "lru"
    #: maximum blocks of sequential-read prefetch (0 = readahead off)
    readahead: int = 0
    #: layers between each sweep image and a shared golden image (0 = the
    #: classic standalone-image sweep; >= 1 clones every client's image
    #: off one prefilled, protected golden snapshot — the boot-storm shape)
    clone_depth: int = 0
    #: name of the golden parent image when ``clone_depth`` > 0
    clone_of: str = "golden"
    #: flatten every clone before measuring (isolates chain-descent cost:
    #: a flattened clone should perform like a standalone image)
    flatten: bool = False
    #: run the sweep against an erasure-coded pool of (k, m) data/parity
    #: chunks instead of the replicated "rbd" pool (needs osd_count >= k+m)
    pool_ec: Optional[Tuple[int, int]] = None
    params: Optional[CostParameters] = None

    def io_count_for(self, io_size: int) -> int:
        """Requests issued for one sweep point."""
        count = self.bytes_per_point // io_size
        return max(self.min_ios, min(self.max_ios, count))


@dataclass
class SweepResults:
    """Results of a sweep: ``results[layout][io_size] -> WorkloadResult``."""

    kind: str
    config: SweepConfig
    results: Dict[str, Dict[int, WorkloadResult]] = field(default_factory=dict)

    def bandwidth(self, layout: str, io_size: int) -> float:
        """Simulated bandwidth (MiB/s) of one point."""
        return self.results[layout][io_size].bandwidth_mbps

    def result(self, layout: str, io_size: int) -> WorkloadResult:
        """The full measurement of one point (latency percentiles included)."""
        return self.results[layout][io_size]

    def layouts(self) -> List[str]:
        """Layouts present in the results, in configuration order."""
        return [l for l in self.config.layouts if l in self.results]

    def io_sizes(self) -> List[int]:
        """IO sizes present in the results, ascending."""
        sizes = set()
        for per_layout in self.results.values():
            sizes.update(per_layout)
        return sorted(sizes)

    def series(self, layout: str) -> List[Tuple[int, float]]:
        """(io_size, bandwidth) series for one layout."""
        return [(size, self.bandwidth(layout, size))
                for size in sorted(self.results.get(layout, {}))]

    def overhead_series(self, layout: str,
                        baseline: str = "luks-baseline") -> List[Tuple[int, float]]:
        """(io_size, overhead %) series for one layout vs the baseline."""
        series = []
        for size in self.io_sizes():
            series.append((size, overhead_percent(self, layout, size, baseline)))
        return series


def overhead_percent(results: SweepResults, layout: str, io_size: int,
                     baseline: str = "luks-baseline") -> float:
    """Write/read performance degradation vs the baseline (Fig. 4), percent."""
    base = results.bandwidth(baseline, io_size)
    if base <= 0:
        raise ConfigurationError("baseline bandwidth is zero")
    value = results.bandwidth(layout, io_size)
    return max(0.0, 100.0 * (1.0 - value / base))


class LayoutSweep:
    """Runs the Fig. 3(a)/(b) sweeps.

    ``tracer`` (a :class:`repro.obs.SpanTracer`) records each point's
    span timeline; points are namespaced ``<layout>/<io_size>`` so a
    whole sweep loads as one Perfetto trace with one process group per
    point.
    """

    def __init__(self, config: Optional[SweepConfig] = None,
                 tracer=None) -> None:
        self.config = config or SweepConfig()
        self._tracer = tracer

    def _make_cluster(self):
        config = self.config
        base = (config.params if config.params is not None
                else default_cost_parameters())
        # with_overrides re-runs validation, so a typo'd sim_mode raises
        # ConfigurationError here instead of silently running analytic.
        overrides = {key: value for key, value in (
            ("sim_mode", config.sim_mode),
            ("sim_shards", config.sim_shards),
            ("sim_jobs", config.sim_jobs)) if value is not None}
        params = base.with_overrides(**overrides)
        return make_cluster(osd_count=config.osd_count,
                            replica_count=config.replica_count,
                            params=params)

    def _make_image(self, layout: str, label: str, cluster):
        config = self.config
        pool = "rbd"
        if config.pool_ec is not None:
            k, m = config.pool_ec
            if config.osd_count < k + m:
                raise ConfigurationError(
                    f"EC pool {k}+{m} needs at least {k + m} OSDs, "
                    f"sweep has osd_count={config.osd_count}")
            pool = f"rbd-ec-{k}-{m}"
            # Idempotent for a shared cluster: create_pool returns the
            # existing pool when the shape matches.
            cluster.create_pool(pool, ec=(k, m))
        image, _info = create_encrypted_image(
            cluster, f"bench-{label}", config.image_size,
            passphrase=b"benchmark-passphrase",
            encryption_format=layout, codec=config.codec,
            cipher_suite=config.cipher_suite,
            object_size=config.object_size,
            random_seed=f"sweep-{label}".encode("utf-8"),
            journaled=config.journaled, pool=pool)
        return image

    def _spec(self, rw: str, io_size: int, prefill: bool) -> WorkloadSpec:
        config = self.config
        return WorkloadSpec(name=f"{rw}-{io_size}", rw=rw, io_size=io_size,
                            queue_depth=config.queue_depth,
                            io_count=config.io_count_for(io_size),
                            seed=config.seed, prefill=prefill,
                            batched=config.batched,
                            batch_size=config.batch_size,
                            num_clients=config.num_clients,
                            cache_mode=config.cache_mode,
                            cache_size=config.cache_size,
                            cache_policy=config.cache_policy,
                            readahead=config.readahead,
                            open_loop=config.open_loop,
                            arrival_rate=config.arrival_rate,
                            parent_image=(config.clone_of
                                          if config.clone_depth else None),
                            clone_depth=config.clone_depth)

    def _run_point(self, kind: str, rw: str, layout: str,
                   io_size: int) -> WorkloadResult:
        config = self.config
        label = f"{kind}-{layout}-{io_size}"
        if self._tracer is not None:
            self._tracer.begin_process(f"{layout}/{format_size(io_size)}")
        spec = self._spec(rw, io_size, prefill=False)
        cluster = self._make_cluster()
        if config.clone_depth > 0:
            images = self._clone_images(layout, label, cluster)
        else:
            images = []
            for client in range(config.num_clients):
                # The label is the object-name prefix CRUSH hashes and the
                # seed of the IV DRBG: a lone client keeps the bare one.
                name = (label if config.num_clients == 1
                        else f"{label}-c{client}")
                image = self._make_image(layout, name, cluster)
                if kind == "read":
                    prefill_image(image)
                images.append(image)
        return WorkloadRunner(cluster, self._tracer).run_streams(
            images, spec, layout_name=layout)

    def _clone_images(self, layout: str, label: str, cluster):
        """Build the clone fan-out for one sweep point: a prefilled golden
        image per (cluster, layout), a ``clone_depth``-deep chain per
        client, every layer under its own passphrase; reads then exercise
        chain descent, writes exercise copyup.  ``flatten`` migrates each
        chain down first, turning the point into a standalone-image
        control measurement."""
        from ..clone import clone_fanout

        config = self.config
        golden_name = f"{config.clone_of}-{label}"
        golden = self._make_image(layout, golden_name, cluster)
        prefill_image(golden)
        golden.create_snapshot("base")
        golden.protect_snapshot("base")
        clones = clone_fanout(
            cluster, f"bench-{golden_name}", "base",
            count=max(1, config.num_clients),
            passphrase_for=lambda i, d: f"clone-{i}-{d}".encode("utf-8"),
            parent_passphrase=b"benchmark-passphrase",
            clone_depth=config.clone_depth,
            random_seed_prefix=f"sweep-{label}".encode("utf-8"),
            pool=golden.ioctx.pool_name)
        if config.flatten:
            for image in clones:
                image.flatten()
        return clones

    def run(self, kind: str) -> SweepResults:
        """Run a sweep; ``kind`` is ``"write"`` or ``"read"``."""
        if kind not in ("read", "write"):
            raise ConfigurationError("sweep kind must be 'read' or 'write'")
        rw = "randread" if kind == "read" else "randwrite"
        sweep = SweepResults(kind=kind, config=self.config)
        for layout in self.config.layouts:
            per_layout: Dict[int, WorkloadResult] = {}
            for io_size in self.config.io_sizes:
                per_layout[io_size] = self._run_point(kind, rw, layout,
                                                      io_size)
            sweep.results[layout] = per_layout
        return sweep

    def run_both(self) -> Tuple[SweepResults, SweepResults]:
        """Convenience: the read sweep and the write sweep (Fig. 3a and 3b)."""
        return self.run("read"), self.run("write")


def quick_sweep_config(io_sizes: Sequence[int] = (4 * KIB, 64 * KIB, 1024 * KIB),
                       layouts: Sequence[str] = PAPER_LAYOUTS) -> SweepConfig:
    """A reduced sweep used by tests and the quickstart example."""
    return SweepConfig(io_sizes=tuple(io_sizes), layouts=tuple(layouts),
                       image_size=32 * MIB, bytes_per_point=4 * MIB,
                       max_ios=64)
