"""Tests for the discrete-event core: service queues, replay."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.costparams import CostParameters
from repro.sim.ledger import ClientOpTrace, CostLedger, OpTrace, OsdVisit
from repro.sim.perfmodel import PerformanceModel, latency_percentiles
from repro.sim.scheduler import ServiceQueue, simulate_client_ops


def read_op(osd_id, service_us=10.0, latency_us=50.0, client=0, requests=1,
            cpu=5.0, net=2.0, rtt=90.0):
    visit = OsdVisit(osd_id=osd_id, service_us=service_us,
                     latency_us=latency_us)
    return ClientOpTrace(client=client, requests=requests, traces=[OpTrace(
        kind="read", client_cpu_us=cpu, client_net_us=net, network_us=rtt,
        visits=[visit], bytes_moved=4096)])


def write_op(primary, replicas=(), **kwargs):
    visits = [OsdVisit(osd_id=primary, service_us=10.0, latency_us=40.0)]
    for osd_id in replicas:
        visits.append(OsdVisit(osd_id=osd_id, service_us=10.0,
                               latency_us=40.0, hop_us=45.0, push_us=1.0))
    return ClientOpTrace(client=kwargs.get("client", 0), requests=1,
                         traces=[OpTrace(kind="write", client_cpu_us=5.0,
                                         client_net_us=2.0, network_us=90.0,
                                         visits=visits, bytes_moved=4096)])


class TestServiceQueue:
    def test_idle_server_starts_immediately(self):
        queue = ServiceQueue("q")
        job = queue.submit(100.0, 10.0)
        assert job.start_us == 100.0
        assert job.end_us == 110.0
        assert queue.wait_us == 0.0

    def test_fifo_waiting(self):
        queue = ServiceQueue("q")
        queue.submit(0.0, 10.0)
        job = queue.submit(2.0, 10.0)
        assert job.start_us == 10.0          # waited behind the first job
        assert queue.wait_us == 8.0

    def test_parallel_servers(self):
        queue = ServiceQueue("q", servers=2)
        first = queue.submit(0.0, 10.0)
        second = queue.submit(0.0, 10.0)
        third = queue.submit(0.0, 10.0)
        assert first.start_us == 0.0 and second.start_us == 0.0
        assert third.start_us == 10.0        # both servers busy
        assert queue.utilization(20.0) == pytest.approx(0.75)

    def test_invalid_configurations(self):
        with pytest.raises(ConfigurationError):
            ServiceQueue("q", servers=0)
        with pytest.raises(ConfigurationError):
            ServiceQueue("q").submit(0.0, -1.0)


class TestClusterScheduler:
    def test_single_op_latency_matches_receipt_shape(self):
        params = CostParameters()
        result = simulate_client_ops(params, [[read_op(0)]], queue_depth=1)
        # cpu 5 + net 2 + rtt/2 45 + osd latency 50 + rtt/2 45 = 147
        assert result.elapsed_us == pytest.approx(147.0)
        assert result.op_latencies_us == [pytest.approx(147.0)]
        assert result.requests == 1

    def test_queue_depth_overlaps_ops(self):
        params = CostParameters()
        ops = [read_op(0) for _ in range(8)]
        serial = simulate_client_ops(params, [list(ops)], queue_depth=1)
        deep = simulate_client_ops(params, [list(ops)], queue_depth=8)
        assert deep.elapsed_us < serial.elapsed_us / 3

    def test_replication_waits_for_slowest_replica(self):
        params = CostParameters()
        lone = simulate_client_ops(params, [[write_op(0)]], 1)
        fanned = simulate_client_ops(params, [[write_op(0, replicas=(1, 2))]],
                                     1)
        # replica path adds push + hop latency on the critical path
        assert fanned.elapsed_us > lone.elapsed_us + 40.0

    def test_contending_clients_wait_in_osd_queue(self):
        params = CostParameters()
        one = simulate_client_ops(
            params, [[read_op(0, service_us=30.0) for _ in range(16)]], 4)
        shared = simulate_client_ops(
            params, [[read_op(0, service_us=30.0, client=c)
                      for _ in range(16)] for c in range(4)], 4)
        # 4x the work on one OSD cannot finish in anything close to 1x time
        assert shared.elapsed_us > 2.5 * one.elapsed_us
        p99_one = latency_percentiles(one.request_latencies_us)["p99"]
        p99_shared = latency_percentiles(shared.request_latencies_us)["p99"]
        assert p99_shared > p99_one

    def test_serial_chain_within_visible_op(self):
        params = CostParameters()
        rmw = ClientOpTrace(client=0, requests=1, traces=[
            read_op(0).traces[0], write_op(0).traces[0]])
        result = simulate_client_ops(params, [[rmw]], 1)
        single = simulate_client_ops(params, [[read_op(0)]], 1)
        assert result.elapsed_us > single.elapsed_us + 90.0  # second RTT

    def test_batched_requests_amortize_latency(self):
        params = CostParameters()
        window = read_op(0, requests=4)
        result = simulate_client_ops(params, [[window]], 1)
        assert result.requests == 4
        assert len(result.request_latencies_us) == 4
        assert result.request_latencies_us[0] == pytest.approx(
            result.op_latencies_us[0] / 4)

    def test_rejects_empty_runs(self):
        params = CostParameters()
        with pytest.raises(ConfigurationError):
            simulate_client_ops(params, [[]], 1)
        with pytest.raises(ConfigurationError):
            simulate_client_ops(params, [[read_op(0)]], queue_depth=0)

    def test_osd_shards_add_parallelism(self):
        narrow = simulate_client_ops(
            CostParameters(osd_shards=1),
            [[read_op(0, service_us=40.0) for _ in range(16)]], 16)
        wide = simulate_client_ops(
            CostParameters(osd_shards=4),
            [[read_op(0, service_us=40.0) for _ in range(16)]], 16)
        assert wide.elapsed_us < narrow.elapsed_us


class TestEstimateEvents:
    def test_estimate_events_reports_percentiles(self):
        params = CostParameters()
        model = PerformanceModel(params)
        stream = [read_op(0) for _ in range(20)]
        estimate = model.estimate_events([stream], total_bytes=20 * 4096,
                                         queue_depth=4)
        assert estimate.sim_mode == "events"
        assert estimate.bandwidth_mbps > 0
        assert estimate.iops > 0
        assert set(estimate.latency_percentiles) == {"p50", "p95", "p99"}
        assert (estimate.percentile("p50") <= estimate.percentile("p95")
                <= estimate.percentile("p99"))
        assert "p99" in estimate.summary()

    def test_sim_mode_validation(self):
        with pytest.raises(ConfigurationError):
            CostParameters(sim_mode="bogus")
        assert CostParameters(sim_mode="events").sim_mode == "events"


class TestLedgerTracing:
    def test_tracing_off_records_nothing(self):
        ledger = CostLedger()
        ledger.record_osd_visit(OsdVisit(osd_id=0, service_us=1, latency_us=2))
        ledger.record_op_trace(OpTrace(kind="read", client_cpu_us=1,
                                       client_net_us=1, network_us=1))
        assert ledger.take_osd_visits() == []
        assert ledger.client_ops == []

    def test_finish_op_seals_open_traces(self):
        ledger = CostLedger()
        ledger.trace_ops = True
        ledger.trace_client = 3
        trace = OpTrace(kind="write", client_cpu_us=1, client_net_us=1,
                        network_us=1)
        ledger.record_op_trace(trace)
        from repro.sim.ledger import OpReceipt
        ledger.finish_op(OpReceipt(latency_us=10.0), ops=2)
        assert len(ledger.client_ops) == 1
        sealed = ledger.client_ops[0]
        assert sealed.client == 3
        assert sealed.requests == 2
        assert sealed.traces == [trace]

    def test_finish_op_seals_empty_op_for_traceless_requests(self):
        """A request that never reached an OSD (sparse read) still counts
        in the replay, as a zero-cost operation."""
        from repro.sim.ledger import OpReceipt
        ledger = CostLedger()
        ledger.trace_ops = True
        ledger.finish_op(OpReceipt(), ops=1)
        assert len(ledger.client_ops) == 1
        assert ledger.client_ops[0].traces == []

    def test_restore_then_finish_seals_claimed_traces(self):
        from repro.sim.ledger import OpReceipt
        ledger = CostLedger()
        ledger.trace_ops = True
        trace = OpTrace(kind="write", client_cpu_us=1, client_net_us=1,
                        network_us=1)
        ledger.record_op_trace(trace)
        claimed = ledger.take_open_traces()
        assert claimed == [trace]
        ledger.restore_op_traces(claimed)
        ledger.finish_op(OpReceipt(), ops=3)
        assert ledger.client_ops[0].traces == [trace]
        assert ledger.client_ops[0].requests == 3

    def test_discard_and_pop(self):
        ledger = CostLedger()
        ledger.trace_ops = True
        ledger.record_op_trace(OpTrace(kind="read", client_cpu_us=1,
                                       client_net_us=1, network_us=1))
        ledger.record_osd_visit(OsdVisit(osd_id=0, service_us=1,
                                         latency_us=1))
        ledger.discard_open_traces()   # aborted run: nothing may leak
        assert ledger.take_osd_visits() == []
        from repro.sim.ledger import OpReceipt
        ledger.finish_op(OpReceipt(), ops=1)
        assert ledger.client_ops[0].traces == []
        assert len(ledger.pop_client_ops(0)) == 1
        assert ledger.client_ops == []
        ledger.reset()
        assert ledger.client_ops == []
