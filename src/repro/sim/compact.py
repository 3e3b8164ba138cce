"""Compact trace representation: ClientOpTrace streams as numpy columns.

The per-op object form (:class:`~repro.sim.ledger.ClientOpTrace` holding
:class:`~repro.sim.ledger.OpTrace` objects holding
:class:`~repro.sim.ledger.OsdVisit` objects) costs several Python objects
and hundreds of bytes per simulated operation, which is what caps the
event engine well below fleet traffic.  :class:`CompactStream` flattens
one client's whole stream into flat numpy columns plus two prefix-offset
arrays (CSR-style), so the replay engines iterate over integer indices —
no objects, no closures, ~50 bytes per RADOS op regardless of Python's
object overhead — and the vectorized open-loop engine can run whole-column
queue scans directly on the buffers.

Layout (three levels, each a structure-of-arrays)::

    client ops : op_requests[i]                       i in [0, num_ops)
                 traces of op i = [op_trace_start[i], op_trace_start[i+1])
    RADOS ops  : trace_cpu_us / trace_net_us / trace_rtt_us /
                 trace_kind / trace_retries [t]
                 visits of trace t = [trace_visit_start[t],
                                      trace_visit_start[t+1])
    OSD visits : visit_osd / visit_service_us / visit_latency_us /
                 visit_hop_us / visit_push_us [v]
                 (visit 0 of a trace is the primary, the rest replicas)

:func:`encode_stream` is the bulk encoder from the ledger's sealed op
list; :meth:`CompactStream.op` decodes one op back for tests and
debugging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .ledger import ClientOpTrace, OpTrace, OsdVisit
from ..errors import ConfigurationError
from ..obs.names import KIND_INDEX, OP_KINDS


@dataclass
class CompactStream:
    """One client's op stream, flattened into columns (see module doc)."""

    op_requests: np.ndarray        #: int64[num_ops] requests per client op
    op_trace_start: np.ndarray     #: int64[num_ops + 1] prefix offsets
    trace_cpu_us: np.ndarray       #: float64[num_traces]
    trace_net_us: np.ndarray       #: float64[num_traces]
    trace_rtt_us: np.ndarray       #: float64[num_traces]
    trace_kind: np.ndarray         #: int64[num_traces] index into OP_KINDS
    trace_retries: np.ndarray      #: int64[num_traces] absorbed retries
    trace_visit_start: np.ndarray  #: int64[num_traces + 1] prefix offsets
    visit_osd: np.ndarray          #: int64[num_visits]
    visit_service_us: np.ndarray   #: float64[num_visits]
    visit_latency_us: np.ndarray   #: float64[num_visits]
    visit_hop_us: np.ndarray       #: float64[num_visits]
    visit_push_us: np.ndarray      #: float64[num_visits]

    @property
    def num_ops(self) -> int:
        """Client-visible operations in the stream."""
        return len(self.op_requests)

    @property
    def num_traces(self) -> int:
        """RADOS-level operations in the stream."""
        return len(self.trace_cpu_us)

    @property
    def num_visits(self) -> int:
        """OSD visits in the stream."""
        return len(self.visit_osd)

    @property
    def total_requests(self) -> int:
        """Client requests the stream completes (batch windows expanded)."""
        return int(self.op_requests.sum()) if self.num_ops else 0

    @property
    def max_traces_per_op(self) -> int:
        """Longest serial RADOS-op chain of any client op."""
        if not self.num_ops:
            return 0
        return int(np.diff(self.op_trace_start).max())

    def nbytes(self) -> int:
        """Total buffer memory of the columns (for memory assertions)."""
        return sum(getattr(self, name).nbytes for name in (
            "op_requests", "op_trace_start", "trace_cpu_us", "trace_net_us",
            "trace_rtt_us", "trace_kind", "trace_retries",
            "trace_visit_start", "visit_osd", "visit_service_us",
            "visit_latency_us", "visit_hop_us", "visit_push_us"))

    def op(self, index: int) -> ClientOpTrace:
        """Decode one client op back into the object form (tests only)."""
        traces: List[OpTrace] = []
        for t in range(int(self.op_trace_start[index]),
                       int(self.op_trace_start[index + 1])):
            visits = [OsdVisit(osd_id=int(self.visit_osd[v]),
                               service_us=float(self.visit_service_us[v]),
                               latency_us=float(self.visit_latency_us[v]),
                               hop_us=float(self.visit_hop_us[v]),
                               push_us=float(self.visit_push_us[v]))
                      for v in range(int(self.trace_visit_start[t]),
                                     int(self.trace_visit_start[t + 1]))]
            traces.append(OpTrace(
                kind=OP_KINDS[int(self.trace_kind[t])],
                client_cpu_us=float(self.trace_cpu_us[t]),
                client_net_us=float(self.trace_net_us[t]),
                network_us=float(self.trace_rtt_us[t]), visits=visits,
                retries=int(self.trace_retries[t])))
        return ClientOpTrace(requests=int(self.op_requests[index]),
                             traces=traces)


def encode_stream(ops: Sequence[ClientOpTrace]) -> CompactStream:
    """Bulk-encode one client's sealed op list into a :class:`CompactStream`.

    One pass over the objects; after this the replay never touches them
    again (callers typically drop the object list immediately, which is
    where the fleet-scale memory win comes from).
    """
    op_requests = np.fromiter((op.requests for op in ops), dtype=np.int64,
                              count=len(ops))
    op_trace_start = np.zeros(len(ops) + 1, dtype=np.int64)
    np.cumsum(np.fromiter((len(op.traces) for op in ops), dtype=np.int64,
                          count=len(ops)), out=op_trace_start[1:])
    traces = [trace for op in ops for trace in op.traces]
    trace_cpu = np.fromiter((t.client_cpu_us for t in traces),
                            dtype=np.float64, count=len(traces))
    trace_net = np.fromiter((t.client_net_us for t in traces),
                            dtype=np.float64, count=len(traces))
    trace_rtt = np.fromiter((t.network_us for t in traces),
                            dtype=np.float64, count=len(traces))
    try:
        trace_kind = np.fromiter((KIND_INDEX[t.kind] for t in traces),
                                 dtype=np.int64, count=len(traces))
    except KeyError:
        unknown = sorted({t.kind for t in traces if t.kind not in KIND_INDEX})
        raise ConfigurationError(
            f"unknown OpTrace kind(s) {unknown}; declared kinds: "
            f"{list(OP_KINDS)} (repro.obs.names.OP_KINDS)") from None
    trace_retries = np.fromiter((t.retries for t in traces),
                                dtype=np.int64, count=len(traces))
    trace_visit_start = np.zeros(len(traces) + 1, dtype=np.int64)
    np.cumsum(np.fromiter((len(t.visits) for t in traces), dtype=np.int64,
                          count=len(traces)), out=trace_visit_start[1:])
    visits = [visit for t in traces for visit in t.visits]
    return CompactStream(
        op_requests=op_requests,
        op_trace_start=op_trace_start,
        trace_cpu_us=trace_cpu,
        trace_net_us=trace_net,
        trace_rtt_us=trace_rtt,
        trace_kind=trace_kind,
        trace_retries=trace_retries,
        trace_visit_start=trace_visit_start,
        visit_osd=np.fromiter((v.osd_id for v in visits), dtype=np.int64,
                              count=len(visits)),
        visit_service_us=np.fromiter((v.service_us for v in visits),
                                     dtype=np.float64, count=len(visits)),
        visit_latency_us=np.fromiter((v.latency_us for v in visits),
                                     dtype=np.float64, count=len(visits)),
        visit_hop_us=np.fromiter((v.hop_us for v in visits),
                                 dtype=np.float64, count=len(visits)),
        visit_push_us=np.fromiter((v.push_us for v in visits),
                                  dtype=np.float64, count=len(visits)),
    )


def encode_streams(streams: Sequence[Sequence[ClientOpTrace]],
                   ) -> List[CompactStream]:
    """Encode one stream per client (accepts already-encoded streams)."""
    return [stream if isinstance(stream, CompactStream)
            else encode_stream(stream) for stream in streams]


def distinct_by_identity(objects: Sequence[object],
                         ) -> Tuple[List[object], np.ndarray]:
    """The distinct objects of a sequence (by ``is``, first-seen order)
    and each element's index among them.

    Fleets are mostly repetition — a tiled fleet hands the same stream
    object to many clients, and streams that differ share most of their
    column arrays — so fleet-wide passes run over the distinct objects
    and fan back out through the index.  The returned list keeps every
    object alive, which is what makes ``id`` a sound key here.
    """
    slot: Dict[int, int] = {}
    unique: List[object] = []
    index: List[int] = []
    for obj in objects:
        key = id(obj)
        found = slot.get(key)
        if found is None:
            found = slot[key] = len(unique)
            unique.append(obj)
        index.append(found)
    return unique, np.array(index, dtype=np.int64)


def column_table(streams: Sequence[CompactStream], name: str,
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Column ``name`` of every stream as one array, shared arrays once.

    Returns ``(table, start)``: stream ``i``'s column is
    ``table[start[i]:start[i] + len(column)]``.  Streams that share the
    column array by identity share the slice, so the table of a tiled
    fleet is the size of its template, not of the fleet.
    """
    arrays, which = distinct_by_identity(
        [getattr(stream, name) for stream in streams])
    sizes = np.array([len(array) for array in arrays], dtype=np.int64)
    return np.concatenate(arrays), (np.cumsum(sizes) - sizes)[which]


def tile_stream(stream: CompactStream, num_ops: int) -> CompactStream:
    """A stream of ``num_ops`` client ops built by cycling ``stream``.

    Used by the fleet synthesizer: a short captured trace (real data
    path, real crypto, real placement costs) is tiled out to the target
    op count without replaying the capture.  Offsets are rebuilt so the
    result is a self-contained stream.
    """
    if stream.num_ops == 0:
        raise ValueError("cannot tile an empty stream")
    repeats = -(-num_ops // stream.num_ops)  # ceil
    take_ops = num_ops

    def tile(column: np.ndarray) -> np.ndarray:
        return np.tile(column, repeats)

    op_requests = tile(stream.op_requests)[:take_ops]
    traces_per_op = np.diff(stream.op_trace_start)
    traces_per_op = tile(traces_per_op)[:take_ops]
    op_trace_start = np.zeros(take_ops + 1, dtype=np.int64)
    np.cumsum(traces_per_op, out=op_trace_start[1:])
    take_traces = int(op_trace_start[-1])
    visits_per_trace = np.diff(stream.trace_visit_start)
    visits_per_trace = tile(visits_per_trace)[:take_traces]
    trace_visit_start = np.zeros(take_traces + 1, dtype=np.int64)
    np.cumsum(visits_per_trace, out=trace_visit_start[1:])
    take_visits = int(trace_visit_start[-1])
    return CompactStream(
        op_requests=op_requests,
        op_trace_start=op_trace_start,
        trace_cpu_us=tile(stream.trace_cpu_us)[:take_traces],
        trace_net_us=tile(stream.trace_net_us)[:take_traces],
        trace_rtt_us=tile(stream.trace_rtt_us)[:take_traces],
        trace_kind=tile(stream.trace_kind)[:take_traces],
        trace_retries=tile(stream.trace_retries)[:take_traces],
        trace_visit_start=trace_visit_start,
        visit_osd=tile(stream.visit_osd)[:take_visits],
        visit_service_us=tile(stream.visit_service_us)[:take_visits],
        visit_latency_us=tile(stream.visit_latency_us)[:take_visits],
        visit_hop_us=tile(stream.visit_hop_us)[:take_visits],
        visit_push_us=tile(stream.visit_push_us)[:take_visits],
    )
