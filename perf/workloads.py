"""The benchmark's workloads: inputs, set-up, one round, verification.

A workload owns a *fixed op list* generated from the seed (the program
sees only offsets and payloads), a ``setup()`` that builds everything the
rounds need through the public API, and ``run_round()`` which issues the
op list once in a closed loop with one client and returns what it
measured.  Rounds repeat the same list, so every count the program keeps
repeats exactly from one timed round to the next; the harness relies on
that (see ``harness.EXACT_ROUND_FIELDS``).

Why these six (the per-layer evidence is in ``perf/README.md``):

``small_rw``        dispatch-bound 4 KiB random I/O on the scalar path
``batched_rw``      the same op list through the QD-16 ``IoPipeline``
``large_aes``       kernel-bound 512 KiB sequential I/O on real AES-XTS
``cache_omap``      Zipf working set 8x the writeback cache, OMAP layout
``clone_ec_stack``  pwl -> depth-2 clone -> EC 4+2: the deepest stack
``fleet_replay``    vectorized open-loop replay of a captured template
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from repro import api
from repro.cache.config import CacheConfig
from repro.errors import ReproError
from repro.obs import export as obs_export
from repro.sim import fleet
from repro.sim.compact import encode_stream
from repro.sim.costparams import default_cost_parameters
from repro.workload.arrival import PoissonArrivals, arrival_schedule
from repro.workload.runner import capture_template_stream
from repro.workload.spec import WorkloadSpec

from .speed import HostSpeed
from .trace import Tracer

KIB = 1024
MIB = 1024 * KIB
BLOCK = 4 * KIB
#: host seconds of work between two speed probes: short against the host's
#: speed phases (seconds), long against the probe itself (~2.5 ms)
SEGMENT_S = 0.04

#: (is_write, image offset, payload for a write / length for a read)
Op = Tuple[bool, int, object]


@dataclass
class Round:
    """What one pass over the op list measured."""

    host_s: float                   #: reference-speed seconds of the op loop
    raw_host_s: float               #: the same interval as the clock read it
    ops: int                        #: client ops in the loop
    write_s: List[float]            #: reference-speed seconds per write call
    read_s: List[float]             #: reference-speed seconds per read call
    attempted: int                  #: operations checked for correctness
    failed: int                     #: raised, or returned wrong bytes
    sim_us: float                   #: modelled latency summed over the ops
    user_bytes_written: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    device: Dict[str, int] = field(default_factory=dict)
    #: workload-specific host timings and modelled values, by metric name
    extras: Dict[str, float] = field(default_factory=dict)


@contextmanager
def _root_span(tracer: Optional[Tracer], name: str, op_id: int):
    """A harness-side root span when tracing, nothing otherwise (the hot op
    loop spells this out instead, to keep a generator off its path)."""
    if tracer is None:
        yield
        return
    index = tracer.begin(name, op_id)
    try:
        yield
    finally:
        tracer.end(index)


class Workload:
    """Interface the harness drives (see the module docstring)."""

    name = ""
    why = ""
    #: untraced timed rounds of a run (None: as many as the budget fits)
    fixed_rounds: Optional[int] = None

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke

    def setup(self) -> None:
        """Build a fresh instance of everything the rounds need."""
        raise NotImplementedError

    def run_round(self, speed: HostSpeed, tracer: Optional[Tracer]) -> Round:
        """Issue the op list once; ``tracer`` is set only in traced rounds.

        The loop is cut into segments of a few tens of milliseconds with a
        ``speed`` probe between them, and every host interval is reported
        at the reference speed (see :mod:`perf.speed`)."""
        raise NotImplementedError

    def finish(self) -> Tuple[int, int]:
        """Final verification: (operations checked, operations wrong)."""
        return 0, 0

    def space(self) -> Tuple[int, int]:
        """(bytes stored on OSDs, distinct image bytes ever written)."""
        return 0, 0

    def setup_phases(self) -> Dict[str, float]:
        """Per-layer set-up timings of the last ``setup()``, by metric name."""
        return {}


# ---------------------------------------------------------------------------
# data-path workloads
# ---------------------------------------------------------------------------

def _device_totals(cluster) -> Dict[str, int]:
    """Summed public ``DeviceStats`` of every OSD's data + metadata disk."""
    totals: Dict[str, int] = {}
    for osd in cluster.osds:
        for device in (osd.data_device, osd.metadata_device):
            for key, value in device.stats.as_dict().items():
                totals[key] = totals.get(key, 0) + value
    return totals


def _stored_bytes(cluster) -> int:
    return sum(osd.data_device.used_bytes() + osd.metadata_device.used_bytes()
               for osd in cluster.osds)


def _mixed_ops(rng: random.Random, offsets: List[int], io_size: int,
               write_fraction: float) -> List[Op]:
    """One op per offset, an *exact* share of them writes, in seeded order.

    The share is exact (not a coin per op) so that the write/read split,
    and with it every per-round count, is the same for every seed.
    """
    writes = round(len(offsets) * write_fraction)
    kinds = [True] * writes + [False] * (len(offsets) - writes)
    rng.shuffle(kinds)
    return [(True, offset, rng.randbytes(io_size)) if is_write
            else (False, offset, io_size)
            for is_write, offset in zip(kinds, offsets)]


class DataPathWorkload(Workload):
    """Shared protocol of the workloads that move bytes through an image.

    Every read is checked against a ``bytearray`` model of the image
    (outside the timed interval) and :meth:`finish` reads the whole image
    back against it.
    """

    image_size = 64 * MIB
    prefill_bytes = 16 * MIB
    passphrase = b"perf-passphrase"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        if smoke:
            self.image_size = min(self.image_size, 8 * MIB)
            self.prefill_bytes = min(self.prefill_bytes, MIB)
        rng = random.Random(seed)
        self.prefill_chunk = rng.randbytes(min(MIB, self.prefill_bytes))
        self.ops: List[Op] = self.make_ops(rng)
        self.drbg_seed = f"perf-{self.name}-{seed}".encode()
        self.cluster = None
        self.image = None
        self.model = bytearray()
        self.written_blocks = bytearray()
        self._sim_us = 0.0

    # -- what subclasses define --------------------------------------------

    def make_ops(self, rng: random.Random) -> List[Op]:
        raise NotImplementedError

    def build(self):
        """Create the cluster and the unlocked image: (cluster, image)."""
        raise NotImplementedError

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        self.cluster, self.image = self.build()
        self.model = bytearray(self.image_size)
        self.written_blocks = bytearray(self.image_size // BLOCK)
        self._prefill(self.image)

    def _prefill(self, image) -> None:
        chunk = self.prefill_chunk
        for offset in range(0, self.prefill_bytes, len(chunk)):
            image.write(offset, chunk)
            self._model_write(offset, chunk)
        image.flush()

    def _model_write(self, offset: int, data) -> None:
        self.model[offset:offset + len(data)] = data
        first, last = offset // BLOCK, (offset + len(data) - 1) // BLOCK
        self.written_blocks[first:last + 1] = b"\x01" * (last - first + 1)

    # -- one round ------------------------------------------------------------

    def round_image(self):
        """The image this round drives (clone workloads open a fresh one)."""
        return self.image

    def run_round(self, speed: HostSpeed, tracer: Optional[Tracer]) -> Round:
        image = self.round_image()
        ledger = self.cluster.ledger
        ledger_before = ledger.snapshot()
        device_before = _device_totals(self.cluster)
        write_s: List[float] = []
        read_s: List[float] = []
        outcomes: List[object] = []     # read bytes, True (write ok) or None
        self._sim_us = 0.0
        host_s, raw_host_s = self._issue(image, speed, tracer, write_s, read_s,
                                         outcomes)
        counters = ledger.diff(ledger_before).counters
        device_after = _device_totals(self.cluster)
        device = {key: device_after[key] - device_before.get(key, 0)
                  for key in device_after}
        failed, user_bytes = self._check(outcomes)
        return Round(host_s=host_s, raw_host_s=raw_host_s, ops=len(self.ops),
                     write_s=write_s, read_s=read_s, attempted=len(self.ops),
                     failed=failed, sim_us=self._sim_us,
                     user_bytes_written=user_bytes, counters=counters,
                     device=device)

    def _issue(self, image, speed: HostSpeed, tracer: Optional[Tracer],
               write_s: List[float], read_s: List[float],
               outcomes: List[object]) -> Tuple[float, float]:
        """The timed closed loop: (reference-speed seconds, raw seconds)."""
        clock = time.perf_counter
        ops = self.ops
        target = self.open_target(image)
        host_s = raw_host_s = 0.0
        index = 0
        speed.reset()
        while index < len(ops):
            first_write, first_read = len(write_s), len(read_s)
            segment_began = now = clock()
            while index < len(ops) and now - segment_began < SEGMENT_S:
                is_write, offset, arg = ops[index]
                root = -1
                if tracer is not None:
                    root = tracer.begin("op.write" if is_write else "op.read",
                                        index)
                try:
                    if is_write:
                        began = clock()
                        receipt = self.write(target, offset, arg)
                        write_s.append(clock() - began)
                        outcomes.append(True)
                    else:
                        began = clock()
                        data, receipt = self.read(target, offset, arg)
                        read_s.append(clock() - began)
                        outcomes.append(data)
                    self.seal(target, receipt)
                except ReproError:
                    outcomes[index:] = [None]
                if tracer is not None:
                    tracer.end(root)
                index += 1
                now = clock()
            if index == len(ops):
                with _root_span(tracer, "op.flush", index):
                    self.close_target(target)
                now = clock()
            elapsed = now - segment_began
            factor = speed.factor()
            raw_host_s += elapsed
            host_s += elapsed / factor
            write_s[first_write:] = [s / factor for s in write_s[first_write:]]
            read_s[first_read:] = [s / factor for s in read_s[first_read:]]
        return host_s, raw_host_s

    # The four hooks below are the QD-1 scalar path and mirror
    # ``WorkloadRunner.run``: every op's receipt is sealed with
    # ``ledger.finish_op`` and the end-of-run flush of a cached image is one
    # more client-visible operation.

    def open_target(self, image):
        """What the ops are issued against (the image, or a pipeline)."""
        return image

    def write(self, target, offset: int, data):
        return target.write(offset, data)

    def read(self, target, offset: int, length: int):
        result = target.read_with_receipt(offset, length)
        return result.data, result.receipt

    def seal(self, target, receipt) -> None:
        self.cluster.ledger.finish_op(receipt)
        self._sim_us += receipt.latency_us

    def close_target(self, target) -> None:
        receipt = target.flush()
        if receipt is not None and (receipt.latency_us or receipt.bytes_moved):
            self.seal(target, receipt)

    def _check(self, outcomes: List[object]) -> Tuple[int, int]:
        """Replay the round on the model: (failed ops, user bytes written)."""
        failed = user_bytes = 0
        for (is_write, offset, arg), outcome in zip(self.ops, outcomes):
            if outcome is None:
                failed += 1
            elif is_write:
                self._model_write(offset, arg)
                user_bytes += len(arg)
            elif outcome != self.model[offset:offset + arg]:
                failed += 1
        return failed, user_bytes

    # -- verification ----------------------------------------------------------

    def finish(self) -> Tuple[int, int]:
        image = self.round_image()
        attempted = failed = 0
        chunk = min(MIB, self.image_size)
        for offset in range(0, self.image_size, chunk):
            attempted += 1
            if image.read(offset, chunk) != self.model[offset:offset + chunk]:
                failed += 1
        return attempted, failed

    def space(self) -> Tuple[int, int]:
        return _stored_bytes(self.cluster), sum(self.written_blocks) * BLOCK


class SmallRw(DataPathWorkload):
    name = "small_rw"
    why = ("dispatch-bound: 4 KiB random 60/40 w/r on the scalar path spreads "
           "host time over rados, crypto IV/DRBG, blockdev and encryption; "
           "the AES kernel, cache, clone, EC and fleet code do nothing")
    cipher_suite = "blake2-xts-sim"
    # Not 50/50: through the pipeline a read that follows a write pays the
    # window flush, so at 50/50 the median read sits on the edge between
    # "nothing pending" and "flush first" and flips with the seed.
    write_fraction = 0.6

    def make_ops(self, rng: random.Random) -> List[Op]:
        count = 120 if self.smoke else 3000
        offsets = [rng.randrange(self.prefill_bytes // BLOCK) * BLOCK
                   for _ in range(count)]
        return _mixed_ops(rng, offsets, BLOCK, self.write_fraction)

    def build(self):
        cluster = api.make_cluster(osd_count=3, replica_count=3)
        image, _info = api.create_encrypted_image(
            cluster, "perf", self.image_size, self.passphrase,
            encryption_format="object-end", cipher_suite=self.cipher_suite,
            random_seed=self.drbg_seed)
        return cluster, image


class BatchedRw(SmallRw):
    name = "batched_rw"
    why = ("the small_rw op list through api.make_pipeline(queue_depth=16): "
           "moves with window coalescing, not per-call cost, so a gain for "
           "the scalar path that costs the batched one shows here")

    def open_target(self, image):
        return api.make_pipeline(image, queue_depth=16)

    def write(self, target, offset: int, data):
        target.write(offset, data)

    def read(self, target, offset: int, length: int):
        return target.read(offset, length), None

    def seal(self, target, receipt) -> None:
        self._seal_completions(target.poll())

    def close_target(self, target) -> None:
        self._seal_completions(target.drain())

    def _seal_completions(self, completions) -> None:
        for completion in completions:
            self.cluster.ledger.finish_op(completion.receipt,
                                          ops=completion.requests)
            self._sim_us += completion.receipt.latency_us


class LargeAes(SmallRw):
    name = "large_aes"
    why = ("kernel-bound: 512 KiB sequential writes then read-backs on the "
           "real aes-xts-256 suite put ~all host time in repro.crypto; a "
           "crypto-kernel change shows here and a dispatch change must not")
    cipher_suite = "aes-xts-256"
    image_size = 16 * MIB
    io_size = 512 * KIB

    def __init__(self, seed: int, smoke: bool) -> None:
        if smoke:
            self.io_size = 16 * KIB
        self.prefill_bytes = 2 * self.io_size       # exactly what rounds touch
        super().__init__(seed, smoke)

    def make_ops(self, rng: random.Random) -> List[Op]:
        offsets = [0, self.io_size]
        return ([(True, offset, rng.randbytes(self.io_size))
                 for offset in offsets]
                + [(False, offset, self.io_size) for offset in offsets])


class CacheOmap(DataPathWorkload):
    name = "cache_omap"
    why = ("working set 4x the 4 MiB writeback cache, Zipf 0.9: evictions "
           "and clustered writebacks through write_extents, and omap is the "
           "only layout that makes repro.kvstore (WAL, memtable) do work")

    def make_ops(self, rng: random.Random) -> List[Op]:
        blocks = list(range(self.prefill_bytes // BLOCK))
        rng.shuffle(blocks)         # seeded permutation: rank -> block
        weights = list(accumulate(1.0 / (rank + 1) ** 0.9
                                  for rank in range(len(blocks))))
        chosen = rng.choices(blocks, cum_weights=weights,
                             k=400 if self.smoke else 3000)
        return _mixed_ops(rng, [block * BLOCK for block in chosen], BLOCK, 0.5)

    def build(self):
        cluster = api.make_cluster(osd_count=3, replica_count=3)
        image, _info = api.create_encrypted_image(
            cluster, "perf", self.image_size, self.passphrase,
            encryption_format="omap", cipher_suite="blake2-xts-sim",
            random_seed=self.drbg_seed,
            cache=CacheConfig(mode="writeback", size=self.prefill_bytes // 4))
        return cluster, image


class CloneEcStack(DataPathWorkload):
    name = "clone_ec_stack"
    why = ("pwl -> depth-2 LayeredImage -> EcPool(4,2): parent-chain descent, "
           "whole-object copyup re-encryption, EC stripe RMW + Reed-Solomon; "
           "wrapper self time is ~0, so a pure refactor predicts no change")
    # 1 MiB objects keep a copyup + stripe encode at ~10 ms of host time,
    # so a run holds enough rounds for a median (4 MiB objects: ~6 s a round).
    object_size = MIB
    image_size = 8 * MIB
    prefill_bytes = 8 * MIB
    pool = "perf-ec"
    io_size = 16 * KIB
    # Every round's fresh child grows the cluster (and the process) by its
    # copied-up objects; a fixed number of rounds keeps ``peak_rss_mib`` a
    # property of the program, not of how many rounds the host's speed fits.
    fixed_rounds = 10

    def __init__(self, seed: int, smoke: bool) -> None:
        if smoke:
            self.object_size = 256 * KIB
            self.image_size = self.prefill_bytes = 2 * self.object_size
        super().__init__(seed, smoke)
        self.golden = bytearray()
        self.child = None
        self.children = 0

    def make_ops(self, rng: random.Random) -> List[Op]:
        # Writes go round the objects so that every object is copied up once
        # a round whatever the seed: copyups, EC stripe writes and the
        # process's growth are then the same for every seed.
        count = 10 if self.smoke else 120
        writes = round(count * 0.3)
        objects = self.image_size // self.object_size
        slots = self.object_size // self.io_size
        ops: List[Op] = [
            (True, (i % objects) * self.object_size
             + rng.randrange(slots) * self.io_size, rng.randbytes(self.io_size))
            for i in range(writes)]
        ops += [(False, rng.randrange(objects * slots) * self.io_size,
                 self.io_size) for _ in range(count - writes)]
        rng.shuffle(ops)
        return ops

    def build(self):
        cluster = api.make_cluster(osd_count=8, replica_count=3)
        cluster.create_pool(self.pool, ec=(4, 2))
        golden, _info = api.create_encrypted_image(
            cluster, "golden", self.image_size, b"golden-pass",
            encryption_format="object-end", cipher_suite="blake2-xts-sim",
            object_size=self.object_size, pool=self.pool,
            random_seed=self.drbg_seed + b"-golden")
        return cluster, golden

    def setup(self) -> None:
        super().setup()             # golden image, prefilled
        self.golden = bytearray(self.model)
        self.golden_blocks = bytearray(self.written_blocks)
        self.image.create_snapshot("base")
        self.image.protect_snapshot("base")
        mid, _info = api.clone_encrypted_image(
            self.cluster, "golden", "base", "mid", b"mid-pass",
            [b"golden-pass"], pool=self.pool,
            random_seed=self.drbg_seed + b"-mid")
        mid.create_snapshot("base")
        mid.image.protect_snapshot("base")
        self.child = None
        self.children = 0

    def round_image(self):
        return self.child

    def run_round(self, speed: HostSpeed, tracer: Optional[Tracer]) -> Round:
        """Each round drives a fresh depth-2 child (own passphrase, own pwl)."""
        self.children += 1
        self.child, _info = api.clone_encrypted_image(
            self.cluster, "mid", "base", f"child-{self.children}",
            b"child-pass", [b"mid-pass", b"golden-pass"], pool=self.pool,
            random_seed=self.drbg_seed + b"-child",
            cache=CacheConfig(mode="pwl", size=MIB))
        self.model = bytearray(self.golden)
        self.written_blocks = bytearray(self.golden_blocks)
        return super().run_round(speed, tracer)


# ---------------------------------------------------------------------------
# fleet replay
# ---------------------------------------------------------------------------

class FleetReplay(Workload):
    name = "fleet_replay"
    why = ("only repro.sim/repro.workload run: one captured 4 KiB write "
           "template and one read template tiled to 1000 open-loop clients "
           "and replayed by the vectorized engine; the data path is idle")
    osd_count = 64
    template_ops = 32
    arrival_rate = 200.0        # simulated ops/s per client (open loop)
    image_size = 8 * MIB

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.clients = 40 if smoke else 1000
        self.ops_per_client = 25 if smoke else 50
        self.prefill_chunk = random.Random(seed).randbytes(MIB)
        self.params = None
        self.streams: Dict[str, list] = {}
        self.arrivals: Dict[str, list] = {}
        self.phases: Dict[str, float] = {}
        self.signature: Optional[tuple] = None

    def setup(self) -> None:
        clock = time.perf_counter
        self.params = default_cost_parameters().with_overrides(
            sim_mode="events", event_engine="compact",
            osd_count=self.osd_count, replica_count=3,
            sim_shards=1, sim_jobs=1)
        cluster = api.make_cluster(osd_count=self.osd_count, replica_count=3,
                                   params=self.params)
        image, _info = api.create_encrypted_image(
            cluster, "fleet-template", self.image_size, b"fleet-template",
            encryption_format="object-end", cipher_suite="blake2-xts-sim",
            random_seed=f"perf-fleet-{self.seed}".encode())
        for offset in range(0, self.image_size, MIB):
            image.write(offset, self.prefill_chunk)     # reads decrypt real data
        phases = {"workload.capture_s": 0.0, "sim.encode_s": 0.0,
                  "sim.tile_s": 0.0, "workload.arrivals_s": 0.0}
        for kind in ("randwrite", "randread"):
            spec = WorkloadSpec(name=f"fleet-{kind}", rw=kind, io_size=BLOCK,
                                queue_depth=1, io_count=self.template_ops,
                                seed=self.seed)
            t0 = clock()
            captured = capture_template_stream(cluster, image, spec)
            t1 = clock()
            template = encode_stream(captured)
            t2 = clock()
            self.streams[kind] = fleet.fleet_streams_from_template(
                template, self.clients, self.ops_per_client,
                osd_count=self.osd_count)
            t3 = clock()
            self.arrivals[kind] = arrival_schedule(
                PoissonArrivals(rate_per_client=self.arrival_rate,
                                seed=self.seed),
                [stream.num_ops for stream in self.streams[kind]])
            t4 = clock()
            phases["workload.capture_s"] += t1 - t0
            phases["sim.encode_s"] += t2 - t1
            phases["sim.tile_s"] += t3 - t2
            phases["workload.arrivals_s"] += t4 - t3
        self.phases = phases
        self.signature = None

    def setup_phases(self) -> Dict[str, float]:
        return dict(self.phases)

    def run_round(self, speed: HostSpeed, tracer: Optional[Tracer]) -> Round:
        clock = time.perf_counter
        results = {}
        seconds = {}        # reference-speed seconds of each replay call
        raw_host_s = 0.0
        speed.reset()
        for index, kind in enumerate(("randwrite", "randread")):
            with _root_span(tracer, f"replay.{kind}", index):
                began = clock()
                # looked up on the module so the traced run sees the wrapper
                results[kind] = fleet.simulate_fleet(
                    self.params, self.streams[kind], self.arrivals[kind])
                elapsed = clock() - began
            raw_host_s += elapsed
            seconds[kind] = elapsed / speed.factor()
        write, read = results["randwrite"], results["randread"]
        host_s = seconds["randwrite"] + seconds["randread"]

        with _root_span(tracer, "export", 2):
            began = clock()
            registry = obs_export.registry_from_sim(write, kind="write")
            registry_s = clock() - began
            began = clock()
            exposition = obs_export.to_prometheus(registry)
            prometheus_s = clock() - began
        factor = speed.factor()
        registry_s /= factor
        prometheus_s /= factor

        expected = self.clients * self.ops_per_client
        percentiles = write.request_stats.percentiles()
        signature = tuple((r.requests, r.events_processed, r.elapsed_us,
                           r.request_stats.mean_us) for r in (write, read)) \
            + (percentiles["p50"], percentiles["p99"])
        if self.signature is None:
            self.signature = signature
        failed = sum(1 for result in (write, read)
                     if result.requests != expected
                     or result.engine != "vectorized")
        if signature != self.signature or "repro_sim_requests" not in exposition:
            failed += 1
        requests = write.requests + read.requests
        sim_us = (write.request_stats.mean_us * write.requests
                  + read.request_stats.mean_us * read.requests)
        return Round(
            host_s=host_s, raw_host_s=raw_host_s, ops=requests,
            write_s=[seconds["randwrite"] / max(write.requests, 1)],
            read_s=[seconds["randread"] / max(read.requests, 1)],
            attempted=3, failed=failed, sim_us=sim_us,
            extras={"sim.events": float(write.events_processed
                                        + read.events_processed),
                    "sim.p50_us": percentiles["p50"],
                    "sim.p99_us": percentiles["p99"],
                    "obs.registry_s": registry_s,
                    "obs.prometheus_s": prometheus_s})


WORKLOADS = {cls.name: cls for cls in (SmallRw, BatchedRw, LargeAes, CacheOmap,
                                       CloneEcStack, FleetReplay)}
