"""Unit tests of the persistent write log (repro.pwl.log)."""

import pytest

from repro.faults import FaultPlan, ClientCrash, STAGE_TORN_LOG_TAIL, inject
from repro.pwl import (PersistentWriteLog, PwlMedia, PwlReplayError,
                       decode_pwl_record, encode_pwl_record)
from repro.sim.costparams import CostParameters


def test_record_roundtrip():
    extents = [(0, b"hello"), (4096, b"world" * 100)]
    seq, decoded = decode_pwl_record(encode_pwl_record(7, extents))
    assert seq == 7
    assert decoded == extents


def test_record_decode_rejects_garbage():
    with pytest.raises(PwlReplayError):
        decode_pwl_record(b"short")
    with pytest.raises(PwlReplayError):
        decode_pwl_record(encode_pwl_record(1, [(0, b"x")]) + b"trailing")


def test_append_persists_and_tracks_pending():
    log = PersistentWriteLog(PwlMedia())
    seq1, cost1 = log.append([(0, b"aa")])
    seq2, _cost2 = log.append([(512, b"bb")])
    assert (seq1, seq2) == (1, 2)
    assert cost1 > 0
    assert log.pending_records == 2
    assert log.bytes_used > 0


def test_reopen_replays_pending_records():
    media = PwlMedia()
    log = PersistentWriteLog(media)
    log.append([(0, b"aa")])
    log.append([(512, b"bb")])
    reopened = PersistentWriteLog(media)
    assert reopened.recovered_clean
    assert reopened.pending_records == 2
    assert reopened.pending[0][1] == [(0, b"aa")]
    assert reopened.pending[1][1] == [(512, b"bb")]
    # sequence numbering continues after the recovered records
    seq, _cost = reopened.append([(1024, b"cc")])
    assert seq == 3


def test_checkpoint_reclaims_space_and_survives_reopen():
    media = PwlMedia()
    log = PersistentWriteLog(media)
    log.append([(0, b"aa")])
    log.append([(512, b"bb")])
    log.checkpoint(1)
    assert log.pending_records == 1
    reopened = PersistentWriteLog(media)
    assert reopened.pending_records == 1
    assert reopened.pending[0][0] == 2


def test_checkpoint_everything_empties_the_media():
    media = PwlMedia()
    log = PersistentWriteLog(media)
    log.append([(0, b"aa")])
    log.append([(512, b"bb")])
    log.checkpoint(2)
    assert log.pending_records == 0
    assert len(media.buffer) == 0


def test_torn_tail_is_discarded_on_reopen():
    media = PwlMedia()
    log = PersistentWriteLog(media)
    log.append([(0, b"complete record")])
    plan = FaultPlan(stage=STAGE_TORN_LOG_TAIL, hit=1, seed=5)
    with inject(plan):
        with pytest.raises(ClientCrash):
            log.append([(4096, b"torn record")])
    # The media holds one complete frame plus a strict prefix of another.
    reopened = PersistentWriteLog(media)
    assert not reopened.recovered_clean
    assert reopened.pending_records == 1
    assert reopened.pending[0][1] == [(0, b"complete record")]
    # Reopening rewrote the media without the torn tail: a second reopen
    # is clean.
    assert PersistentWriteLog(media).recovered_clean


def test_torn_tail_of_first_record_recovers_to_empty():
    media = PwlMedia()
    log = PersistentWriteLog(media)
    plan = FaultPlan(stage=STAGE_TORN_LOG_TAIL, hit=1, torn_keep=3)
    with inject(plan):
        with pytest.raises(ClientCrash):
            log.append([(0, b"never acked")])
    reopened = PersistentWriteLog(media)
    assert not reopened.recovered_clean
    assert reopened.pending_records == 0


def test_append_cost_uses_pwl_parameters():
    class Params:
        pwl_append_latency_us = 10.0
        pwl_bandwidth_mbps = 1.0     # 1 MiB/s: easy arithmetic

    log = PersistentWriteLog(PwlMedia(), params=Params())
    cost = log.append_cost_us(1024 * 1024)
    assert cost == pytest.approx(10.0 + 1_000_000.0)


def test_append_cost_defaults_to_the_cost_parameters():
    params = CostParameters()
    cost = PersistentWriteLog(PwlMedia()).append_cost_us(1024 * 1024)
    assert cost == pytest.approx(params.pwl_append_latency_us
                                 + 1e6 / params.pwl_bandwidth_mbps)
