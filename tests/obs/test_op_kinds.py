"""The declared OP_KINDS set pins every engine's kind handling."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.obs.names import (KIND_BACKFILL, KIND_CACHE_HIT, KIND_EC_REPAIR,
                             KIND_INDEX, KIND_OP, KIND_PWL_APPEND, KIND_READ,
                             KIND_WRITE, OP_KINDS)
from repro.sim.compact import encode_stream
from repro.sim.costparams import CostParameters
from repro.sim.ledger import ClientOpTrace, OpTrace, OsdVisit
from repro.sim.scheduler import simulate_client_ops


def op_of(kind: str, retries: int = 0) -> ClientOpTrace:
    return ClientOpTrace(client=0, requests=1, traces=[OpTrace(
        kind=kind, client_cpu_us=1.0, client_net_us=1.0, network_us=2.0,
        visits=[OsdVisit(osd_id=0, service_us=5.0, latency_us=5.0)],
        retries=retries)])


class TestDeclaredSet:
    def test_kinds_are_pinned_in_order(self):
        # order is load-bearing: compact streams store the tuple index
        assert OP_KINDS == (KIND_WRITE, KIND_READ, KIND_CACHE_HIT,
                            KIND_PWL_APPEND, KIND_BACKFILL, KIND_EC_REPAIR,
                            KIND_OP)
        assert KIND_INDEX == {kind: i for i, kind in enumerate(OP_KINDS)}

    def test_every_kind_literal_in_src_is_declared(self):
        import re
        from pathlib import Path
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        pattern = re.compile(r'OpTrace\([^)]*?kind\s*=\s*"([^"]+)"')
        literals = {match.group(1)
                    for path in src.rglob("*.py")
                    for match in pattern.finditer(path.read_text())}
        assert literals <= set(OP_KINDS)


class TestCompactEncoding:
    def test_round_trip_preserves_kind_and_retries(self):
        ops = [op_of(kind, retries=i % 3)
               for i, kind in enumerate(OP_KINDS)]
        stream = encode_stream(ops)
        for i, original in enumerate(ops):
            decoded = stream.op(i)
            assert decoded.traces[0].kind == original.traces[0].kind
            assert decoded.traces[0].retries == original.traces[0].retries

    def test_unknown_kind_rejected_with_declared_list(self):
        with pytest.raises(ConfigurationError) as err:
            encode_stream([op_of("wrte")])
        assert "wrte" in str(err.value)

    def test_every_index_column_value_is_a_valid_kind(self):
        stream = encode_stream([op_of(kind) for kind in OP_KINDS])
        assert all(0 <= k < len(OP_KINDS) for k in stream.trace_kind)


class TestEngineRejection:
    def test_event_engine_rejects_unknown_kinds(self):
        with pytest.raises(ConfigurationError, match="unknown OpTrace kind"):
            simulate_client_ops(CostParameters(), [[op_of("bogus-kind")]], 1)

    def test_event_engine_accepts_every_declared_kind(self):
        ops = [op_of(kind) for kind in OP_KINDS]
        result = simulate_client_ops(CostParameters(), [ops], 1)
        assert result.requests == len(OP_KINDS)


def test_frozen_trace_fields_keep_compact_schema_stable():
    # the compact columns mirror OpTrace's field list; a new field must
    # be threaded through encode_stream/tile_stream deliberately
    fields = [f.name for f in dataclasses.fields(OpTrace)]
    assert fields == ["kind", "client_cpu_us", "client_net_us",
                      "network_us", "visits", "bytes_moved", "retries"]
