"""The I/O pipeline: windows of requests become per-object batched RADOS ops.

Batching model
--------------

The pipeline sits on top of an :class:`~repro.rbd.wrapper.ImageLike` (a
bare image or any stack of front-ends over one) and queues write requests
into a *window*.  A window flushes when any of these fires:

* it holds ``queue_depth`` requests (the knob that models how many
  operations a client keeps in flight — at depth 1 the pipeline issues one
  transaction per request like the scalar path, though unaligned requests
  still benefit from the batched path's single combined head+tail RMW read
  where the scalar path issues two serial reads),
* one object has accumulated ``batch_size`` blocks (bounds per-transaction
  payload),
* a read arrives (reads must observe queued writes),
* a new write touches a block some queued write already touches (a
  write-after-write hazard, see below), or
* the caller flushes explicitly.

Queued writes are held as zero-copy read-only views of the caller's
buffers: nothing is copied at enqueue time, per-object striping slices
views of views, and the bytes materialise exactly once — when the flushed
window's RADOS write transactions are built (see
:meth:`repro.rados.transaction.WriteTransaction.write`).

On flush the queued extents are striped onto their objects and each object
receives its whole share through ONE dispatcher call —
:meth:`~repro.rbd.image.Image.write_extents` — which the crypto dispatcher
turns into one batched read-modify-write, one encryption pass and one
RADOS transaction per object.  Objects are issued in parallel (libRBD AIO
behaviour); successive windows are serial.

Cost amortization
-----------------

A window of ``n`` single-block writes to one object pays the fixed costs —
client dispatch, one network round trip, the OSD's per-transaction CPU
cost and one replication push per replica — exactly once, while the
per-block costs (device transfer, encryption, per-op CPU, per-sector
metadata) still scale with ``n``.  The ledger records every flush via
``engine.batches`` / ``engine.batched_blocks`` and the OSD records how
much batching survived to it via ``rados.multi_extent_transactions``.

Hazard rule
-----------

Within one window each block is encrypted exactly once, so two queued
writes must never share a block (including the partial boundary blocks
their read-modify-write completes).  The pipeline flushes the window
before admitting a conflicting write; this keeps the batched path
plaintext-equivalent to issuing the same requests one transaction at a
time.  Ciphertext is additionally bit-identical (for a deterministic
random source) as long as a window's writes do not interleave across
objects: flushing groups extents per object, so a window touching several
objects draws IVs per object group rather than in global arrival order —
the bytes differ, the security properties and decrypted contents do not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ConfigurationError
from ..rbd.striping import map_extent
from ..rbd.wrapper import ImageLike
from ..sim.ledger import OpReceipt
from ..util import as_readonly_view

DEFAULT_QUEUE_DEPTH = 16

#: completions retained before the oldest pair is merged into one aggregate
#: record; bounds memory for callers that never poll() while preserving the
#: latency and request totals the accounting needs.
MAX_PENDING_COMPLETIONS = 1024


@dataclass
class EngineConfig:
    """Knobs of the batched I/O pipeline."""

    #: maximum requests per window (1 = scalar, unbatched behaviour)
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    #: maximum blocks one object may accumulate before a forced flush
    #: (``None`` leaves the window bounded by ``queue_depth`` alone; a
    #: single request larger than the cap still travels whole — requests
    #: are never split)
    batch_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.queue_depth <= 0:
            raise ConfigurationError("queue_depth must be positive")
        if self.batch_size is not None and self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")


@dataclass
class Completion:
    """One finished pipeline operation (a flushed window or a read).

    Completions queue up until the caller collects them with
    :meth:`IoPipeline.poll` / :meth:`IoPipeline.drain`; past
    :data:`MAX_PENDING_COMPLETIONS` the oldest are merged into an
    ``"aggregate"`` record (serial receipt composition, summed requests).
    """

    kind: str               #: "write-batch", "read-batch" or "aggregate"
    receipt: OpReceipt
    requests: int           #: client requests completed by this operation
    #: RADOS op traces of this operation (populated only while the
    #: ledger's event-engine tracing is enabled); carried on the
    #: completion so multi-window polls attribute each window's traces to
    #: the right client-visible operation.
    traces: List = field(default_factory=list)


@dataclass
class PipelineStats:
    """Counters the pipeline keeps about its own batching behaviour."""

    write_requests: int = 0
    read_requests: int = 0
    windows: int = 0
    hazard_flushes: int = 0
    read_barrier_flushes: int = 0
    capacity_flushes: int = 0

    @property
    def requests(self) -> int:
        """All requests the pipeline has completed, reads included."""
        return self.write_requests + self.read_requests

    def mean_window_requests(self) -> float:
        """Average writes per flushed window (0 before any flush)."""
        if not self.windows:
            return 0.0
        return self.write_requests / self.windows


class IoPipeline:
    """Batched front-end for an image's data path."""

    def __init__(self, image: ImageLike,
                 config: Optional[EngineConfig] = None) -> None:
        self._image = image
        self._config = config or EngineConfig()
        self._ledger = image.ioctx.cluster.ledger
        #: hazard-tracking granularity
        self._block_size = image.block_size
        self._pending: List[Tuple[int, memoryview]] = []
        self._pending_blocks: Dict[int, Set[int]] = {}
        self._completions: List[Completion] = []
        self.stats = PipelineStats()

    @property
    def image(self) -> ImageLike:
        """The image the pipeline drives."""
        return self._image

    @property
    def config(self) -> EngineConfig:
        """The pipeline's batching knobs."""
        return self._config

    # -- queue bookkeeping -------------------------------------------------------

    def _blocks_of(self, offset: int, length: int) -> Dict[int, Set[int]]:
        """Blocks each object's share of an image extent touches (aligned,
        i.e. including partial boundary blocks completed by RMW)."""
        block_size = self._block_size
        touched: Dict[int, Set[int]] = {}
        for extent in map_extent(offset, length, self._image.object_size):
            first = extent.offset // block_size
            last = (extent.offset + extent.length - 1) // block_size
            touched.setdefault(extent.object_no, set()).update(
                range(first, last + 1))
        return touched

    def _has_hazard(self, touched: Dict[int, Set[int]]) -> bool:
        for object_no, blocks in touched.items():
            pending = self._pending_blocks.get(object_no)
            if pending and pending & blocks:
                return True
        return False

    def _push_completion(self, completion: Completion) -> None:
        completions = self._completions
        completions.append(completion)
        if len(completions) > MAX_PENDING_COMPLETIONS:
            first, second = completions[0], completions[1]
            first.receipt.extend(second.receipt)
            completions[0:2] = [Completion(
                kind="aggregate", receipt=first.receipt,
                requests=first.requests + second.requests,
                traces=first.traces + second.traces)]

    def _over_capacity(self, touched: Dict[int, Set[int]]) -> bool:
        """Would admitting ``touched`` push an object past ``batch_size``?"""
        if self._config.batch_size is None:
            return False
        for object_no, blocks in touched.items():
            pending = self._pending_blocks.get(object_no, set())
            if len(pending | blocks) > self._config.batch_size:
                return True
        return False

    def _at_capacity(self) -> bool:
        """Has any object's pending share reached ``batch_size``?"""
        if self._config.batch_size is None:
            return False
        return any(len(blocks) >= self._config.batch_size
                   for blocks in self._pending_blocks.values())

    # -- data path ----------------------------------------------------------------

    def write(self, offset: int, data) -> None:
        """Queue a write; it commits at the latest on the next flush.

        ``data`` is any bytes-like object, read-only buffers included; the
        pipeline keeps a zero-copy view instead of copying up front, and
        the bytes are materialised exactly once, when the flushed window's
        RADOS transactions are built.  Like any AIO queue, the caller must
        not mutate a passed buffer until the window is flushed (``bytes``
        callers — the common case — are immutable anyway)."""
        # Validate eagerly: a bad extent must fail at the offending call,
        # not poison the whole window at flush time.
        view = as_readonly_view(data)
        self._image.check_io(offset, len(view))
        if not len(view):
            return
        touched = self._blocks_of(offset, len(view))
        if self._has_hazard(touched):
            self.stats.hazard_flushes += 1
            self.flush()
        elif self._pending and self._over_capacity(touched):
            self.stats.capacity_flushes += 1
            self.flush()
        # Keep a zero-copy read-only view; the copy this used to make here
        # (``bytes(data)``) is deferred to transaction build at flush time.
        self._pending.append((offset, view))
        for object_no, blocks in touched.items():
            self._pending_blocks.setdefault(object_no, set()).update(blocks)
        if len(self._pending) >= self._config.queue_depth:
            self.flush()
        elif self._at_capacity():
            # The window reached the per-object block cap (a single request
            # larger than the cap still travels whole — requests are never
            # split): close it now rather than waiting for queue_depth.
            self.stats.capacity_flushes += 1
            self.flush()

    def write_extents(self, extents: Sequence[Tuple[int, bytes]]) -> None:
        """Queue several writes (each is one request toward the window)."""
        for offset, data in extents:
            self.write(offset, data)

    def read(self, offset: int, length: int) -> bytes:
        """Read, observing every queued write (read barrier)."""
        data, = self.read_extents([(offset, length)])
        return data

    def read_extents(self, extents: Sequence[Tuple[int, int]]) -> List[bytes]:
        """Read several extents as one batched operation.

        Queued writes are flushed first so the reads observe them; the
        reads themselves travel together (one read operation per object).
        """
        extents = list(extents)
        if not extents:
            return []
        if self._pending:
            self.stats.read_barrier_flushes += 1
            self.flush()
        pieces, receipt = self._image.read_extents(extents)
        self.stats.read_requests += len(extents)
        self._push_completion(Completion(kind="read-batch", receipt=receipt,
                                         requests=len(extents),
                                         traces=self._ledger.take_open_traces()))
        return pieces

    def flush(self) -> None:
        """Commit the queued window as one batched operation per object.

        If the commit raises, the window stays queued so a caller that
        handles the error (e.g. after growing the image back) can retry;
        nothing is recorded for the failed attempt.
        """
        if not self._pending:
            return
        extents = self._pending
        pending_blocks = self._pending_blocks
        receipt = self._image.write_extents(extents)
        self._pending = []
        self._pending_blocks = {}
        total_blocks = sum(len(blocks) for blocks in pending_blocks.values())
        self._ledger.record_batch(len(extents), total_blocks)
        self.stats.write_requests += len(extents)
        self.stats.windows += 1
        self._push_completion(Completion(kind="write-batch", receipt=receipt,
                                         requests=len(extents),
                                         traces=self._ledger.take_open_traces()))

    def poll(self) -> List[Completion]:
        """Drain the completion queue (flushed windows and finished reads)."""
        completions = self._completions
        self._completions = []
        return completions

    def drain(self) -> List[Completion]:
        """Flush the queue and drain every outstanding completion."""
        self.flush()
        return self.poll()
