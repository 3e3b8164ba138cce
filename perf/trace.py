"""Interposed wall-clock span recorder for the traced run.

The program carries no host-time instrumentation (``repro.obs`` observes
the *simulated* clock).  Rather than edit ``src/``, the traced run
replaces a declared table of public boundary callables — one row per
layer boundary, see :data:`BOUNDARIES` — with recording wrappers for the
duration of the run and puts the originals back afterwards.  Every span
records its name, layer, start, end, parent span and the client-op id;
spans stay in memory and are summarised (and optionally exported) once
the round is over.

A layer's *self time* is its spans' duration minus the part covered by
their child spans, so the self times of all spans of one client op sum
exactly to the op's root span.  The wrappers themselves cost time that
lands in the *parent's* self time; ``trace.overhead_ratio`` reports how
much, and end-to-end metrics never come from a traced run.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: the data-path surface every image-like class implements
_IMAGE_METHODS = ("write", "read", "read_with_receipt", "write_extents",
                  "read_extents", "flush")

#: (layer, module, class name or None for a module-level function, attributes)
BOUNDARIES: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("engine", "repro.engine.pipeline", "IoPipeline",
     ("write", "read", "read_extents", "flush", "drain")),
    ("cache", "repro.cache.image", "CachedImage", _IMAGE_METHODS),
    ("pwl", "repro.pwl.image", "PwlImage", _IMAGE_METHODS),
    ("pwl", "repro.pwl.log", "PersistentWriteLog", ("append", "checkpoint")),
    ("clone", "repro.clone.layered", "LayeredImage", _IMAGE_METHODS),
    ("rbd", "repro.rbd.image", "Image", _IMAGE_METHODS),
    ("encryption", "repro.encryption.dispatch", "CryptoObjectDispatcher",
     ("write", "read", "write_extents", "read_extents")),
    # SectorCodec is abstract; XtsCodec is the concrete codec of every
    # workload here (a subclass override would bypass a base-class patch).
    ("encryption", "repro.encryption.codecs", "XtsCodec",
     ("encrypt_sector", "decrypt_sector")),
    ("crypto", "repro.crypto.xts", "XTS", ("encrypt", "decrypt")),
    ("crypto", "repro.crypto.fastcipher", "Blake2Xts", ("encrypt", "decrypt")),
    ("crypto", "repro.crypto.iv", "RandomIV", ("iv_for_write",)),
    ("crypto", "repro.crypto.drbg", "HmacDrbg", ("read",)),
    ("rados", "repro.rados.client", "IoCtx", ("operate_write", "operate_read")),
    ("rados", "repro.rados.placement", "PlacementMap", ("osds_for_object",)),
    ("rados", "repro.rados.osd", "OSD", ("apply_transaction", "execute_read")),
    ("rados", "repro.rados.ec", "ReedSolomonCodec",
     ("encode", "decode", "reconstruct")),
    ("kvstore", "repro.kvstore.lsm", "LsmStore",
     ("put_batch", "get", "get_many", "scan", "flush", "compact")),
    ("blockdev", "repro.blockdev.device", "SimulatedDisk",
     ("read", "write", "flush")),
    ("sim", "repro.sim.ledger", "CostLedger", ("finish_op", "busy", "count")),
    ("sim", "repro.sim.fleet", None, ("simulate_fleet",)),
    ("obs", "repro.obs.export", None, ("registry_from_sim", "to_prometheus")),
)

#: layer of the root span the harness opens around each client op; its
#: self time is harness overhead plus whatever no boundary covers
HARNESS_LAYER = "harness"

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [row[0] for row in BOUNDARIES] + ["workload", HARNESS_LAYER]))


class SpanRecord(NamedTuple):
    """One finished span (times are ``time.perf_counter`` seconds)."""

    name: str
    layer: str
    start: float
    end: float
    parent: int     #: index of the enclosing span in the same list, -1 = root
    op: int         #: client-op id the harness had set when the span began


class SpanSummary(NamedTuple):
    """Aggregate of all spans sharing one name."""

    layer: str
    count: int
    total_us: float     #: inclusive time (children included)
    self_us: float      #: exclusive time


class Tracer:
    """Installs the wrappers, records spans, restores the originals."""

    def __init__(self) -> None:
        self.spans: List[Optional[SpanRecord]] = []
        self.op_id = -1
        self._stack: List[int] = []
        #: (owner object, attribute, original) for every patched callable
        self._patched: List[Tuple[object, str, Callable]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Replace every callable of :data:`BOUNDARIES` with a wrapper."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for layer, module_name, class_name, attributes in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            for attribute in attributes:
                original = vars(owner)[attribute]
                label = f"{class_name or module_name.rsplit('.', 1)[-1]}.{attribute}"
                setattr(owner, attribute, self._wrap(original, label, layer))
                self._patched.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Put every original back (identity-preserving)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def patched(self) -> List[Tuple[object, str, Callable]]:
        """The (owner, attribute, original) triples currently replaced."""
        return list(self._patched)

    def _wrap(self, function: Callable, name: str, layer: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)          # reserve the slot: children point at it
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = SpanRecord(name, layer, start, end, parent,
                                          self.op_id)

        wrapper.__wrapped__ = function
        return wrapper

    # -- harness-side spans -------------------------------------------------

    def begin(self, name: str, op_id: int) -> int:
        """Open a span from harness code (the root of one client op)."""
        self.op_id = op_id
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append(SpanRecord(name, HARNESS_LAYER, time.perf_counter(),
                                     0.0, parent, op_id))
        return index

    def end(self, index: int) -> None:
        """Close a span opened with :meth:`begin`."""
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = self.spans[index]._replace(end=end)

    def take(self) -> List[SpanRecord]:
        """Hand over the finished spans and start an empty list in place."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans = list(self.spans)
        del self.spans[:]       # in place: the wrappers hold this list
        return spans


def self_times_us(spans: Sequence[SpanRecord]) -> List[float]:
    """Exclusive time of each span, in microseconds."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    return [(span.end - span.start - child[i]) * 1e6
            for i, span in enumerate(spans)]


def summarize(spans: Sequence[SpanRecord]) -> Dict[str, SpanSummary]:
    """Aggregate spans by name: count, inclusive and exclusive time."""
    selfs = self_times_us(spans)
    out: Dict[str, SpanSummary] = {}
    for span, self_us in zip(spans, selfs):
        prior = out.get(span.name)
        total_us = (span.end - span.start) * 1e6
        if prior is None:
            out[span.name] = SpanSummary(span.layer, 1, total_us, self_us)
        else:
            out[span.name] = SpanSummary(span.layer, prior.count + 1,
                                         prior.total_us + total_us,
                                         prior.self_us + self_us)
    return out


def inclusive_under_us(spans: Sequence[SpanRecord], parent_layer: str,
                       methods: Sequence[str]) -> float:
    """Inclusive time of the calls ``parent_layer`` makes into the layer
    below it through ``methods`` (e.g. the image writes the write log's
    drain issues)."""
    return sum((span.end - span.start) * 1e6 for span in spans
               if span.parent >= 0 and span.layer != parent_layer
               and spans[span.parent].layer == parent_layer
               and span.name.rsplit(".", 1)[-1] in methods)


def write_wall_trace(path: str, spans: Sequence[SpanRecord]) -> None:
    """Export spans through the program's own Chrome-trace writer.

    One viewer, both clocks: the records become ``repro.obs.spans.Span``
    objects on process ``wall`` with one thread per layer, tagged
    ``args.clock = "wall"``, so Perfetto shows them beside sim-clock
    traces written by the same exporter.
    """
    from repro.obs.export import write_chrome_trace
    from repro.obs.spans import Span

    if not spans:
        write_chrome_trace(path, [])
        return
    origin = min(span.start for span in spans)
    selfs = self_times_us(spans)
    write_chrome_trace(path, [
        Span(name=span.name, cat=span.layer,
             start_us=(span.start - origin) * 1e6,
             dur_us=(span.end - span.start) * 1e6,
             process="wall", thread=span.layer,
             args={"clock": "wall", "op": span.op, "parent": span.parent,
                   "self_us": self_us})
        for span, self_us in zip(spans, selfs)])
