#!/usr/bin/env python3
"""Full-precision transcript of one op script over every image stacking.

The data path promises the *same modelled numbers* across refactors —
receipts, ledger counters, resource busy times, event-engine op traces,
ciphertext — and every PR that moved code between ``rbd.Image`` and the
front-ends stacked on it rebuilt the same proof by hand: drive the parent
tree and the changed tree with the same ops, print everything with
``repr`` and compare.  This tool is that proof, kept::

    git archive <parent-sha> | tar -x -C /root/scratch/parent
    python tools/image_transcript.py --src /root/scratch/parent/src --out parent.txt
    python tools/image_transcript.py --out change.txt
    cmp parent.txt change.txt

``--src`` names the ``src/`` directory whose ``repro`` package is driven
(default: the one next to this file), so one copy of the tool exercises
both trees.  The corpus, all of it derived from fixed seeds:

* ``stack/<stacking>/<layout>/<pool>/<driver>`` — a seeded script
  (unaligned writes, reads, block-aligned discards, flushes, a snapshot,
  snapshot-routed reads with a partial-block write in between, grow and
  shrink) over the seven stackings {``image``, ``writethrough``,
  ``writeback``, ``pwl``, ``clone``, ``writeback-over-clone``,
  ``pwl-over-clone``} (clones are depth 2) x the four layouts x
  {replica-3, EC 4+2} x {scalar calls, ``IoPipeline`` depth 8}, with
  ``ledger.trace_ops`` on;
* ``flatten/...`` — the same image afterwards: ``protect_snapshot``,
  ``flatten()``, read back;
* ``wide/<stacking>/<case>`` — an 8192-byte ``array('I')`` (2048 items)
  written in bounds, and 4096 bytes before the image end where it does
  not fit, through ``write``, ``write_extents`` and the pipeline; after
  the refused one a ``flush()``, a good write and, under a pwl, a
  ``PwlImage.recover``.

Every record lists each op's ``(latency_us, bytes_moved)`` and a digest of
each read, then the ledger (counters and resource busy times in insertion
order, every sealed ``ClientOpTrace``), the front-end's and the pipeline's
``stats``, and digests of the image through the stack, below the caching
front-ends, and of every stored object — all in ``repr``.  Two runs on one
tree are byte-identical (``tests/tools/test_image_transcript.py``; CI
``bench-smoke``).
"""

from __future__ import annotations

import argparse
import array
import hashlib
import random
import sys
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

KIB = 1024
BLOCK = 4 * KIB
OBJECT_SIZE = 64 * KIB
IMAGE_SIZE = 8 * OBJECT_SIZE
#: the script grows the image by an object, then shrinks it to this
GROWN_SIZE = IMAGE_SIZE + OBJECT_SIZE
FINAL_SIZE = IMAGE_SIZE - OBJECT_SIZE // 2
#: small enough that the script evicts, writes back and drains on the way
CACHE_SIZE = 32 * KIB
#: DRBG seed of ``img`` (its ancestors derive theirs from it)
SEED = b"image-transcript"

STACKINGS = ("image", "writethrough", "writeback", "pwl", "clone",
             "writeback-over-clone", "pwl-over-clone")
LAYOUTS = ("luks-baseline", "unaligned", "object-end", "omap")
#: pool name -> erasure-coding profile (None = the default 3-replica pool)
POOLS: Dict[str, Optional[Tuple[int, int]]] = {"rbd": None, "ec42": (4, 2)}
DRIVERS = ("scalar", "pipeline8")
#: ops of the seeded part of the script (the test passes fewer)
SCRIPT_OPS = 36

#: one step of a script: its verb and arguments
Op = Tuple
#: a record: its name and a thunk returning its lines
Record = Tuple[str, Callable[[], List[str]]]


# ---------------------------------------------------------------------------
# the stackings
# ---------------------------------------------------------------------------

def build_stacking(cluster, stacking: str, layout: str = "object-end",
                   pool: str = "rbd"):
    """Create image ``img`` as ``stacking`` on ``cluster``.

    Returns ``(image, content)``: the top of the stack and the bytes it
    reads as before the first op.  Clone stackings sit at depth 2
    (``golden`` -> ``mid`` -> ``img``, independently keyed); ``golden``
    holds data in its even objects and ``mid`` overwrites the start of two
    of them, so the child sees parent data, grandparent data and
    whole-chain misses.
    """
    from repro import api
    from repro.cache.config import CacheConfig

    front = stacking.split("-over-")[0]
    cache = (None if front in ("image", "clone")
             else CacheConfig(mode=front, size=CACHE_SIZE))
    geometry = dict(object_size=OBJECT_SIZE, pool=pool,
                    encryption_format=layout, cipher_suite="blake2-xts-sim")
    if not stacking.endswith("clone"):
        image, _info = api.create_encrypted_image(
            cluster, "img", IMAGE_SIZE, b"img-pw", random_seed=SEED,
            cache=cache, **geometry)
        return image, bytes(IMAGE_SIZE)

    content = bytearray(IMAGE_SIZE)
    rng = random.Random(SEED)
    golden, _info = api.create_encrypted_image(
        cluster, "golden", IMAGE_SIZE, b"golden-pw",
        random_seed=SEED + b"-golden", **geometry)
    for start in range(0, IMAGE_SIZE, 2 * OBJECT_SIZE):
        data = rng.randbytes(OBJECT_SIZE - BLOCK)
        golden.write(start + 100, data)
        content[start + 100:start + 100 + len(data)] = data
    golden.create_snapshot("base")
    mid, _info = api.clone_encrypted_image(
        cluster, "golden", "base", "mid", b"mid-pw", [b"golden-pw"],
        random_seed=SEED + b"-mid", pool=pool)
    for start in (0, 3 * OBJECT_SIZE):
        data = rng.randbytes(3 * BLOCK + 7)
        mid.write(start, data)
        content[start:start + len(data)] = data
    mid.create_snapshot("base")
    image, _info = api.clone_encrypted_image(
        cluster, "mid", "base", "img", b"img-pw", [b"mid-pw", b"golden-pw"],
        random_seed=SEED, pool=pool, cache=cache)
    return image, bytes(content)


def make_cluster(pool: str):
    """An 8-OSD cluster with event-engine tracing on (and ``pool``)."""
    from repro import api

    cluster = api.make_cluster(osd_count=8, replica_count=3)
    if POOLS[pool] is not None:
        cluster.create_pool(pool, ec=POOLS[pool])
    cluster.ledger.trace_ops = True
    return cluster


def below_caches(image):
    """The image under the cache/pwl front-ends (what the cluster holds)."""
    from repro.cache.image import CachedImage
    from repro.pwl.image import PwlImage

    while isinstance(image, (CachedImage, PwlImage)):
        image = image.image
    return image


# ---------------------------------------------------------------------------
# the script
# ---------------------------------------------------------------------------

def make_script(seed: str, count: int = SCRIPT_OPS) -> List[Op]:
    """The seeded op list a ``stack/`` record runs.

    Discards are block-aligned (trees before PR 20 zeroed every block a
    discard touched, and the script must mean the same on both trees of a
    comparison; ``tests/rbd/test_single_data_path.py`` issues the
    unaligned ones) and nothing reads past the current size; otherwise
    offsets and lengths are arbitrary.  ``invalidate`` drops a cache's (clean)
    blocks where the front-end has such a call and is a no-op elsewhere.
    """
    rng = random.Random(seed)

    def extent(limit: int, longest: int = 6 * BLOCK) -> Tuple[int, int]:
        length = rng.randint(1, longest)
        return rng.randrange(limit - length), length

    def mixed(limit: int, steps: int) -> Iterator[Op]:
        for _ in range(steps):
            roll = rng.random()
            if roll < 0.5:
                offset, length = extent(limit)
                yield ("write", offset, rng.randbytes(length))
            elif roll < 0.85:
                yield ("read",) + extent(limit, 3 * OBJECT_SIZE // 2)
            elif roll < 0.93:
                first = rng.randrange(limit // BLOCK - 4)
                yield ("discard", first * BLOCK, rng.randint(1, 4) * BLOCK)
            else:
                yield ("flush",)

    script: List[Op] = list(mixed(IMAGE_SIZE, count))
    script.append(("snapshot", "s1"))
    script.extend(mixed(IMAGE_SIZE, count // 3))
    # Reads routed to the snapshot, and a partial-block write meanwhile:
    # the block's other bytes must come from the head, not the snapshot,
    # also when a cache has to read-fill it (hence the invalidate).
    script += [("flush",), ("invalidate",), ("route", "s1"),
               ("read", 0, 2 * BLOCK + 9), ("read",) + extent(IMAGE_SIZE),
               ("write", 5 * BLOCK + 2, rng.randbytes(10)),
               ("read", 5 * BLOCK, BLOCK), ("route", None),
               ("read", 5 * BLOCK, BLOCK), ("read",) + extent(IMAGE_SIZE)]
    script += [("resize", GROWN_SIZE),
               ("write", IMAGE_SIZE - 300, rng.randbytes(BLOCK + 600)),
               ("read", IMAGE_SIZE - BLOCK, 3 * BLOCK)]
    script.extend(mixed(GROWN_SIZE, count // 4))
    script += [("resize", FINAL_SIZE),
               ("read", FINAL_SIZE - 2 * BLOCK, 2 * BLOCK)]
    script.extend(mixed(FINAL_SIZE, count // 4))
    script.append(("flush",))
    return script


#: run on the same image after its ``stack/`` record
TAIL_SCRIPT: List[Op] = [("protect", "s1"), ("flatten",),
                         ("read", 0, FINAL_SIZE), ("flush",)]

#: script verb -> the management call of the image surface it makes
MANAGEMENT = {"snapshot": "create_snapshot", "protect": "protect_snapshot",
              "route": "set_read_snapshot", "resize": "resize"}


def _cost(receipt) -> Tuple[float, int]:
    # Image.flush and LayeredImage.flush answered None before the image
    # surface was declared; an empty receipt says the same.
    if receipt is None:
        return (0.0, 0)
    return (receipt.latency_us, receipt.bytes_moved)


def run_script(image, script: Sequence[Op], pipeline=None,
               ) -> Iterator[Tuple[Op, object]]:
    """Run ``script`` on ``image`` and yield ``(op, outcome)`` per step.

    The outcome is the read's bytes, the op's ``(latency_us,
    bytes_moved)``, or ``None`` where the call returns nothing; an
    exception is the outcome of the step that raised it.  With a
    ``pipeline`` reads and writes go through it, everything else waits for
    its flush, and the finished windows are yielded as ``("completion",
    kind, requests)`` steps.  Every step is sealed on the ledger as one
    client-visible op, so its RADOS traces stay with it.
    """
    from repro.sim.ledger import OpReceipt

    ledger = image.ioctx.cluster.ledger

    def step(op: Op):
        """``(outcome, receipt to seal the step with or None)``"""
        verb, args = op[0], op[1:]
        if pipeline is not None:
            if verb == "write":
                return pipeline.write(*args), None
            if verb == "read":
                return pipeline.read(*args), None
            pipeline.flush()
        if verb == "read":
            result = image.read_with_receipt(*args)
            return result.data, result.receipt
        if verb in ("write", "discard", "flush", "flatten"):
            receipt = getattr(image, verb)(*args)
            return _cost(receipt), receipt
        if verb == "invalidate":
            getattr(image, "invalidate", lambda: None)()
        else:
            getattr(image, MANAGEMENT[verb])(*args)
        return None, None

    for op in script:
        try:
            outcome, receipt = step(op)
        except Exception as exc:        # the outcome *is* the record
            ledger.discard_open_traces()
            outcome, receipt = exc, None
        for done in pipeline.poll() if pipeline is not None else ():
            ledger.restore_op_traces(done.traces)
            ledger.finish_op(done.receipt, ops=done.requests)
            yield ("completion", done.kind, done.requests), _cost(done.receipt)
        ledger.finish_op(receipt or OpReceipt())
        yield op, outcome


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def _digest(data) -> str:
    return f"{len(data)}:{hashlib.sha256(data).hexdigest()[:20]}"


def _error(exc: Exception) -> str:
    return f"error={type(exc).__name__}: {exc}"


def _op_line(op: Op, outcome) -> str:
    shown = tuple(_digest(arg) if isinstance(arg, (bytes, bytearray)) else arg
                  for arg in op)
    if isinstance(outcome, Exception):
        return f"{shown!r} -> {_error(outcome)}"
    if isinstance(outcome, (bytes, bytearray)):
        return f"{shown!r} -> data={_digest(outcome)}"
    return f"{shown!r} -> {outcome!r}"


def state_lines(image, pipeline=None) -> List[str]:
    """Ledger, stats and content digests of a driven image."""
    cluster = image.ioctx.cluster
    ledger = cluster.ledger
    lines = [f"counters={ledger.counters!r}",
             f"resource_us={ledger.resource_us!r}",
             f"latency_sum_us={ledger.latency_sum_us!r} "
             f"op_count={ledger.op_count!r}"]
    lines += [f"client_op[{index}]={op!r}"
              for index, op in enumerate(ledger.pop_client_ops())]
    lines.append(f"stats={getattr(image, 'stats', None)!r}")
    if pipeline is not None:
        lines.append(f"pipeline.stats={pipeline.stats!r}")
    for label, target in (("image", image), ("cluster", below_caches(image))):
        lines.append(f"{label}={_digest(target.read(0, target.size))}")
    ioctx = cluster.client().open_ioctx(image.ioctx.pool_name)
    stored = hashlib.sha256()
    names = ioctx.list_objects()
    for name in names:
        stored.update(name.encode())
        stored.update(ioctx.read(name, 0, ioctx.stat(name) or 0).data)
    lines.append(f"objects={len(names)}:{stored.hexdigest()[:20]}")
    ledger.discard_open_traces()
    ledger.pop_client_ops()
    return lines


def write_transcript(out, records: Iterator[Record]) -> int:
    """Run every record and write its lines; returns the record count."""
    count = 0
    for name, thunk in records:
        out.write(f"== {name} ==\n")
        try:
            lines = thunk()
        except Exception as exc:        # the outcome *is* the record
            lines = [_error(exc)]
        out.writelines(line + "\n" for line in lines)
        count += 1
    return count


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def stack_records(stacking: str, layout: str, pool: str, driver: str,
                  script: Sequence[Op]) -> Iterator[Record]:
    """The ``stack/`` record of one combination and its ``flatten/`` tail."""
    from repro import api

    held: List = []         # (image, pipeline) handed from record to tail

    def drive(ops: Sequence[Op]) -> List[str]:
        image, pipeline = held[0]
        lines = [_op_line(op, outcome)
                 for op, outcome in run_script(image, ops, pipeline)]
        return lines + state_lines(image, pipeline)

    def main() -> List[str]:
        image, _content = build_stacking(make_cluster(pool), stacking,
                                         layout, pool)
        held.append((image, api.make_pipeline(image, queue_depth=8)
                     if driver == "pipeline8" else None))
        return drive(script)

    tag = f"{stacking}/{layout}/{pool}/{driver}"
    yield f"stack/{tag}", main
    yield f"flatten/{tag}", lambda: drive(TAIL_SCRIPT)


def wide_records(stacking: str) -> Iterator[Record]:
    """Wide-item buffers: ``len()`` counts items, the I/O moves bytes."""
    from repro import api
    from repro.pwl.image import PwlImage

    pattern = bytes(range(256)) * 32                # 8192 bytes

    def scalar(image, offset: int, data):
        return _cost(image.write(offset, data))

    def vectored(image, offset: int, data):
        return _cost(image.write_extents([(offset, data)]))

    def pipelined(image, offset: int, data):
        pipeline = api.make_pipeline(image, queue_depth=4)
        pipeline.write(offset, data)
        return [_cost(done.receipt) for done in pipeline.drain()]

    writers = {"write": scalar, "write_extents": vectored,
               "pipeline": pipelined}

    def attempt(call: Callable, *args) -> str:
        try:
            return repr(call(*args))
        except Exception as exc:        # the outcome *is* the record
            return _error(exc)

    def case(offset: int, refused: bool) -> List[str]:
        lines: List[str] = []
        for name, writer in writers.items():
            image, _content = build_stacking(make_cluster("rbd"), stacking)
            lines.append(f"{name} -> " + attempt(
                writer, image, offset, array.array("I", pattern)))
            if refused:
                # Nothing of the refused write may linger: the barrier
                # works, and a write acked afterwards reaches the cluster
                # (under a pwl: through a crash and the log replay).
                lines.append("flush -> " + attempt(lambda: _cost(image.flush())))
                lines.append("write -> " + attempt(
                    scalar, image, 3 * BLOCK, pattern[:BLOCK]))
                if isinstance(image, PwlImage):
                    lines.append("recover -> " + attempt(lambda: str(
                        PwlImage.recover(image.image, image.media)[1])))
                else:
                    lines.append("flush -> "
                                 + attempt(lambda: _cost(image.flush())))
            stored = below_caches(image)
            lines.append(f"cluster={_digest(stored.read(0, stored.size))}")
        return lines

    yield (f"wide/{stacking}/in-bounds",
           lambda: case(OBJECT_SIZE - BLOCK, refused=False))
    yield (f"wide/{stacking}/past-end",
           lambda: case(IMAGE_SIZE - BLOCK, refused=True))


def corpus(stackings: Sequence[str] = STACKINGS,
           layouts: Sequence[str] = LAYOUTS,
           pools: Sequence[str] = tuple(POOLS),
           drivers: Sequence[str] = DRIVERS,
           script_ops: int = SCRIPT_OPS) -> Iterator[Record]:
    for stacking in stackings:
        for layout in layouts:
            for pool in pools:
                for driver in drivers:
                    # One script per (layout, pool, driver): every stacking
                    # runs the same ops, so their records compare too.
                    script = make_script(f"{layout}/{pool}/{driver}",
                                         script_ops)
                    yield from stack_records(stacking, layout, pool, driver,
                                             script)
    for stacking in stackings:
        yield from wide_records(stacking)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, metavar="FILE")
    parser.add_argument("--src", metavar="DIR",
                        default=str(Path(__file__).resolve().parents[1]
                                    / "src"),
                        help="src/ directory of the tree to drive "
                             "(default: this checkout's)")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    with open(args.out, "w", encoding="utf-8") as out:
        count = write_transcript(out, corpus())
    print(f"{count} records -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
