"""Tests for the simulation core: cost parameters, ledger, perf model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.costparams import CostParameters, default_cost_parameters
from repro.sim.ledger import (CostLedger, OpReceipt, RES_CLIENT_CPU,
                              RES_CLIENT_NET, RES_OSD_CPU, RES_OSD_DEVICE)
from repro.sim.perfmodel import PerformanceModel


class TestCostParameters:
    def test_defaults_valid(self):
        params = default_cost_parameters()
        assert params.osd_count == 3
        assert params.replica_count == 3
        assert "calibration" in params.notes

    def test_transfer_helpers(self):
        params = CostParameters()
        mib = 1024 * 1024
        assert params.client_transfer_us(params.client_bandwidth_mbps * mib) == \
            pytest.approx(1e6)
        assert params.device_transfer_us(0, is_write=True) == 0.0
        assert params.device_transfer_us(mib, is_write=True) > \
            params.device_transfer_us(mib, is_write=False)

    def test_with_overrides_returns_copy(self):
        params = CostParameters()
        tuned = params.with_overrides(osd_op_cost_us=99.0)
        assert tuned.osd_op_cost_us == 99.0
        assert params.osd_op_cost_us != 99.0

    @pytest.mark.parametrize("kwargs", [
        {"osd_count": 0},
        {"replica_count": 0},
        {"replica_count": 4},
        {"sector_size": 1000},
        {"osd_shards": 0},
        {"wal_group_commit": 0},
        {"client_bandwidth_mbps": 0},
    ])
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CostParameters(**kwargs)


class TestLedger:
    def test_counters_accumulate(self):
        ledger = CostLedger()
        ledger.count("x", 2)
        ledger.count("x")
        assert ledger.counter("x") == 3
        assert ledger.counter("missing") == 0

    def test_busy_accumulates_and_rejects_negative(self):
        ledger = CostLedger()
        ledger.busy(RES_OSD_CPU, 5)
        ledger.busy(RES_OSD_CPU, 7)
        assert ledger.resource(RES_OSD_CPU) == 12
        with pytest.raises(ConfigurationError):
            ledger.busy(RES_OSD_CPU, -1)

    def test_finish_op_tracks_latency(self):
        ledger = CostLedger()
        ledger.finish_op(OpReceipt(latency_us=10, bytes_moved=4096))
        ledger.finish_op(OpReceipt(latency_us=30, bytes_moved=4096))
        assert ledger.op_count == 2
        assert ledger.mean_latency_us() == 20

    def test_mean_latency_empty(self):
        assert CostLedger().mean_latency_us() == 0.0

    def test_snapshot_and_diff(self):
        ledger = CostLedger()
        ledger.count("a", 1)
        before = ledger.snapshot()
        ledger.count("a", 2)
        ledger.busy(RES_CLIENT_NET, 4)
        ledger.finish_op(OpReceipt(latency_us=5))
        delta = ledger.diff(before)
        assert delta.counter("a") == 2
        assert delta.resource(RES_CLIENT_NET) == 4
        assert delta.op_count == 1
        # the snapshot itself is unaffected
        assert before.counter("a") == 1

    def test_reset(self):
        ledger = CostLedger()
        ledger.count("a")
        ledger.reset()
        assert ledger.counter("a") == 0
        assert ledger.op_count == 0

    def test_items_sorted(self):
        ledger = CostLedger()
        ledger.count("b")
        ledger.count("a")
        assert [name for name, _ in ledger.items()] == ["a", "b"]


class TestOpReceipt:
    def test_extend_is_serial(self):
        receipt = OpReceipt(latency_us=10, bytes_moved=100)
        receipt.extend(OpReceipt(latency_us=5, bytes_moved=50))
        assert receipt.latency_us == 15
        assert receipt.bytes_moved == 150

    def test_merge_parallel_takes_max_latency(self):
        receipt = OpReceipt(latency_us=10, bytes_moved=100)
        receipt.merge_parallel(OpReceipt(latency_us=25, bytes_moved=50))
        assert receipt.latency_us == 25
        assert receipt.bytes_moved == 150


class TestPerformanceModel:
    def _ledger_with(self, client_net=0.0, client_cpu=0.0, osd_dev=0.0,
                     osd_cpu=0.0, latency_sum=0.0, ops=0):
        ledger = CostLedger()
        if client_net:
            ledger.busy(RES_CLIENT_NET, client_net)
        if client_cpu:
            ledger.busy(RES_CLIENT_CPU, client_cpu)
        if osd_dev:
            ledger.busy(RES_OSD_DEVICE, osd_dev)
        if osd_cpu:
            ledger.busy(RES_OSD_CPU, osd_cpu)
        ledger.latency_sum_us = latency_sum
        ledger.op_count = ops
        return ledger

    def test_latency_bound_dominates_low_queue_depth(self):
        params = CostParameters()
        model = PerformanceModel(params)
        ledger = self._ledger_with(latency_sum=10_000, ops=10, osd_dev=30)
        estimate = model.estimate(ledger, total_bytes=10 * 4096, queue_depth=1)
        assert estimate.bounding_resource == "latency(qd)"
        assert estimate.elapsed_us == pytest.approx(10_000)

    def test_resource_bound_dominates_high_queue_depth(self):
        params = CostParameters(osd_count=1, replica_count=1, osd_shards=1)
        model = PerformanceModel(params)
        ledger = self._ledger_with(latency_sum=1000, ops=10, osd_dev=50_000)
        estimate = model.estimate(ledger, total_bytes=10 * 4096, queue_depth=32)
        assert estimate.bounding_resource == "osd.work"
        assert estimate.elapsed_us == pytest.approx(50_000)

    def test_osd_work_divided_by_osds_and_shards(self):
        params = CostParameters(osd_count=3, osd_shards=2)
        model = PerformanceModel(params)
        ledger = self._ledger_with(osd_dev=600, osd_cpu=0)
        estimate = model.estimate(ledger, total_bytes=4096, queue_depth=32)
        assert estimate.resource_us["osd.work"] == pytest.approx(100)

    def test_bandwidth_computation(self):
        params = CostParameters()
        model = PerformanceModel(params)
        ledger = self._ledger_with(client_net=1_000_000)  # one second busy
        estimate = model.estimate(ledger, total_bytes=512 * 1024 * 1024,
                                  queue_depth=32)
        assert estimate.bandwidth_mbps == pytest.approx(512, rel=0.01)

    def test_queue_depth_must_be_positive(self):
        model = PerformanceModel(CostParameters())
        with pytest.raises(ConfigurationError):
            model.estimate(CostLedger(), 0, queue_depth=0)

    # 2.5 divided the latency sum by 2.5 and True by 1, without a word
    @pytest.mark.parametrize("depth", [2.5, True, "4", np.float64(2.0)])
    def test_queue_depth_must_be_an_integer(self, depth):
        model = PerformanceModel(CostParameters())
        ledger = self._ledger_with(latency_sum=100, ops=1)
        with pytest.raises(ConfigurationError, match="positive integer"):
            model.estimate(ledger, 4096, queue_depth=depth)

    def test_integer_queue_depths_of_either_kind_estimate_alike(self):
        model = PerformanceModel(CostParameters())
        ledger = self._ledger_with(latency_sum=100, ops=1)
        assert (model.estimate(ledger, 4096, queue_depth=2)
                == model.estimate(ledger, 4096, queue_depth=np.int64(2)))

    def test_summary_renders(self):
        model = PerformanceModel(CostParameters())
        ledger = self._ledger_with(client_net=100, ops=1, latency_sum=100)
        text = model.estimate(ledger, 4096, 8).summary()
        assert "MiB/s" in text and "IOPS" in text
