"""Unit tests for the simulation result containers."""

import pytest

from repro.sim.results import DeliveryLog, DroppedPacket, NodeStats, SimulationResult


def _result():
    rows = [(1, 0.0, 5.0), (2, 1.0, 6.0), (1, 2.0, 9.0)]
    result = SimulationResult(
        delivery=DeliveryLog(
            arrival_time=[delivered for _, _, delivered in rows],
            created_at=[created for _, created, _ in rows],
            flow_id=[flow for flow, _, _ in rows],
            packet_id=range(len(rows)),
            routing_seq=[0] * len(rows),
            hop_count=[3] * len(rows),
            previous_hop=[0] * len(rows),
            origin=[0] * len(rows),
            preemptions=[0] * len(rows),
        )
    )
    result.dropped.append(
        DroppedPacket(flow_id=2, packet_id=9, created_at=3.0,
                      dropped_at=4.0, dropped_by=7)
    )
    return result


class TestSimulationResult:
    def test_flow_ids(self):
        assert _result().flow_ids() == [1, 2]

    def test_flow_indices_align_with_records(self):
        result = _result()
        assert result.flow_indices(1) == [0, 2]
        assert result.flow_indices(2) == [1]
        assert result.flow_indices(99) == []

    def test_take_of_flow_indices_selects_one_flow(self):
        result = _result()
        flow = result.delivery.take(result.flow_indices(1))
        assert flow.packet_id.tolist() == [0, 2]
        assert flow.arrival_time.tolist() == [5.0, 9.0]

    def test_counts(self):
        result = _result()
        assert result.delivered_count() == 3
        assert result.delivered_count(flow_id=1) == 2
        assert result.drop_count() == 1
        assert result.drop_count(flow_id=2) == 1
        assert result.drop_count(flow_id=1) == 0

    def test_mean_latency(self):
        result = _result()
        assert result.mean_latency() == pytest.approx((5.0 + 5.0 + 7.0) / 3)
        assert result.mean_latency(flow_id=2) == pytest.approx(5.0)

    def test_mean_latency_empty_flow_rejected(self):
        with pytest.raises(ValueError):
            _result().mean_latency(flow_id=99)

    def test_total_preemptions_sums_node_stats(self):
        result = _result()
        result.node_stats[1] = NodeStats(node_id=1, preemptions=4)
        result.node_stats[2] = NodeStats(node_id=2, preemptions=6)
        assert result.total_preemptions() == 10


class TestNodeStats:
    def test_mean_occupancy(self):
        stats = NodeStats(node_id=1, occupancy_time_integral=50.0,
                          observation_time=10.0)
        assert stats.mean_occupancy == 5.0

    def test_mean_occupancy_zero_time(self):
        assert NodeStats(node_id=1).mean_occupancy == 0.0


class TestMixComparisonValidation:
    def test_invalid_parameters_rejected(self):
        from repro.experiments.mix_comparison import compare_mixes_at_equal_latency

        with pytest.raises(ValueError):
            compare_mixes_at_equal_latency(target_latency=0.0)
        with pytest.raises(ValueError):
            compare_mixes_at_equal_latency(message_rate=-1.0)
        with pytest.raises(ValueError):
            compare_mixes_at_equal_latency(horizon=10.0)  # < 50 messages

    def test_rows_hit_latency_target(self):
        from repro.experiments.mix_comparison import compare_mixes_at_equal_latency

        rows = compare_mixes_at_equal_latency(
            target_latency=20.0, message_rate=0.5, horizon=3000.0, seed=1
        )
        assert len(rows) == 4
        non_pool = [row for row in rows if not row.design.startswith("pool")]
        for row in non_pool:
            assert row.mean_latency == pytest.approx(20.0, rel=0.3)


class TestAssetTrackingValidation:
    def test_bad_speed_rejected(self):
        from repro.experiments.asset_tracking import asset_tracking_experiment

        with pytest.raises(ValueError):
            asset_tracking_experiment(speeds=(0.0,))
