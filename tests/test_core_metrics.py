"""Unit tests for privacy/performance metrics."""

import math

import pytest

from repro.core.metrics import FlowMetrics, LatencyStats, summarize_flow
from repro.sim.results import DELIVERY_COLUMNS, DeliveryLog


def _record(created, delivered, flow_id=1, packet_id=0, preemptions=0):
    """One delivery-log row, as ``{column: value}``."""
    return dict(
        arrival_time=delivered, created_at=created, flow_id=flow_id,
        packet_id=packet_id, routing_seq=0, hop_count=15, previous_hop=0,
        origin=0, preemptions=preemptions,
    )


def _log(records):
    return DeliveryLog(
        **{name: [record[name] for record in records] for name in DELIVERY_COLUMNS}
    )


class TestDeliveryLatency:
    def test_latency(self):
        assert _log([_record(10.0, 25.0)]).latency().tolist() == [15.0]

    def test_delivery_before_creation_rejected(self):
        with pytest.raises(ValueError):
            _log([_record(10.0, 9.0)])

    def test_zero_latency_allowed(self):
        assert _log([_record(10.0, 10.0)]).latency().tolist() == [0.0]


class TestLatencyStats:
    def test_summary_values(self):
        stats = LatencyStats.from_samples([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.mean == 3.0
        assert stats.median == 3.0
        assert stats.minimum == 1.0
        assert stats.maximum == 5.0
        assert stats.p95 == pytest.approx(4.8)

    def test_single_sample(self):
        stats = LatencyStats.from_samples([7.0])
        assert stats.mean == stats.median == stats.p95 == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats.from_samples([])


class TestSummarizeFlow:
    def test_paper_mse_definition(self):
        """MSE = sum (x_hat - x)^2 / m (Section 2.1)."""
        records = [_record(0.0, 10.0, packet_id=i) for i in range(2)]
        metrics = summarize_flow(_log(records), estimates=[3.0, -1.0])
        assert metrics.mse == pytest.approx((9.0 + 1.0) / 2)
        assert metrics.rmse == pytest.approx(math.sqrt(5.0))

    def test_mean_error_signed(self):
        records = [_record(0.0, 10.0, packet_id=i) for i in range(2)]
        metrics = summarize_flow(_log(records), estimates=[2.0, -4.0])
        assert metrics.mean_error == pytest.approx(-1.0)

    def test_latency_stats_included(self):
        records = [
            _record(0.0, 10.0, packet_id=0),
            _record(5.0, 25.0, packet_id=1),
        ]
        metrics = summarize_flow(_log(records), estimates=[0.0, 5.0])
        assert metrics.latency.mean == pytest.approx(15.0)
        assert metrics.mse == 0.0

    def test_preemption_fraction(self):
        records = [
            _record(0.0, 10.0, packet_id=0, preemptions=0),
            _record(0.0, 10.0, packet_id=1, preemptions=2),
            _record(0.0, 10.0, packet_id=2, preemptions=1),
            _record(0.0, 10.0, packet_id=3, preemptions=0),
        ]
        metrics = summarize_flow(_log(records), estimates=[0.0] * 4)
        assert metrics.preemption_fraction == 0.5

    def test_n_packets_and_flow_id(self):
        records = [_record(0.0, 1.0, flow_id=3, packet_id=i) for i in range(7)]
        metrics = summarize_flow(_log(records), estimates=[0.0] * 7)
        assert metrics.n_packets == 7
        assert metrics.flow_id == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_flow(DeliveryLog(), [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            summarize_flow(_log([_record(0.0, 1.0)]), [1.0, 2.0])

    def test_mixed_flows_rejected(self):
        records = [
            _record(0.0, 1.0, flow_id=1),
            _record(0.0, 1.0, flow_id=2),
        ]
        with pytest.raises(ValueError):
            summarize_flow(_log(records), [0.0, 0.0])

    def test_flow_metrics_is_value_object(self):
        records = [_record(0.0, 1.0)]
        a = summarize_flow(_log(records), [0.0])
        b = summarize_flow(_log(records), [0.0])
        assert a == b
        assert isinstance(a, FlowMetrics)
