"""Unit tests for the WSN simulator."""

import pytest

from repro.core.planner import UniformPlanner
from repro.net.routing import shortest_path_tree
from repro.net.topology import line_deployment
from repro.sim.config import BufferSpec, FlowSpec, SimulationConfig
from repro.sim.simulator import SensorNetworkSimulator
from repro.traffic.generators import PeriodicTraffic, PoissonTraffic


def _line_config(hops=5, n_packets=20, interval=10.0, case="no-delay",
                 mean_delay=30.0, capacity=10, seed=0, **overrides):
    deployment = line_deployment(hops=hops)
    tree = shortest_path_tree(deployment)
    flows = [
        FlowSpec(
            flow_id=1, source=0,
            traffic=PeriodicTraffic(interval=interval), n_packets=n_packets,
        )
    ]
    if case == "no-delay":
        plan, buffers = None, BufferSpec(kind="infinite")
    elif case == "unlimited":
        plan = UniformPlanner(mean_delay).plan(tree, {0: 1.0 / interval})
        buffers = BufferSpec(kind="infinite")
    elif case == "rcad":
        plan = UniformPlanner(mean_delay).plan(tree, {0: 1.0 / interval})
        buffers = BufferSpec(kind="rcad", capacity=capacity)
    else:  # drop-tail
        plan = UniformPlanner(mean_delay).plan(tree, {0: 1.0 / interval})
        buffers = BufferSpec(kind="drop-tail", capacity=capacity)
    args = dict(
        deployment=deployment, tree=tree, flows=flows,
        delay_plan=plan, buffers=buffers, seed=seed,
    )
    args.update(overrides)
    return SimulationConfig(**args)


class TestNoDelayLine:
    def test_latency_is_exactly_hops_times_tau(self):
        result = SensorNetworkSimulator(_line_config(hops=5)).run()
        assert result.delivery.latency() == pytest.approx(5.0)

    def test_all_packets_delivered(self):
        result = SensorNetworkSimulator(_line_config(n_packets=33)).run()
        assert result.delivered_count() == 33
        assert result.drop_count() == 0

    def test_hop_count_in_header(self):
        result = SensorNetworkSimulator(_line_config(hops=7)).run()
        assert all(result.delivery.hop_count == 7)

    def test_origin_preserved(self):
        result = SensorNetworkSimulator(_line_config()).run()
        assert all(result.delivery.origin == 0)

    def test_fifo_order_preserved_with_no_delay(self):
        result = SensorNetworkSimulator(_line_config(n_packets=10)).run()
        packet_ids = result.delivery.packet_id.tolist()
        assert packet_ids == sorted(packet_ids)

    def test_custom_transmission_delay(self):
        config = _line_config(hops=4, transmission_delay=2.5)
        result = SensorNetworkSimulator(config).run()
        assert result.delivery.latency() == pytest.approx(10.0)


class TestDelayedLine:
    def test_mean_latency_near_analytic(self):
        # 5 hops: mean = 5 * (1 + 30) = 155.
        config = _line_config(hops=5, n_packets=400, case="unlimited", seed=3)
        result = SensorNetworkSimulator(config).run()
        assert result.mean_latency() == pytest.approx(155.0, rel=0.08)

    def test_latencies_vary(self):
        config = _line_config(hops=5, n_packets=50, case="unlimited")
        result = SensorNetworkSimulator(config).run()
        latencies = {round(x, 6) for x in result.delivery.latency().tolist()}
        assert len(latencies) > 40

    def test_observations_sorted_by_arrival(self):
        config = _line_config(hops=5, n_packets=100, case="unlimited")
        result = SensorNetworkSimulator(config).run()
        arrivals = result.delivery.arrival_time.tolist()
        assert arrivals == sorted(arrivals)

    def test_reordering_happens_under_random_delays(self):
        """Independent exponential delays break creation order (§3.2)."""
        config = _line_config(hops=5, n_packets=200, interval=2.0, case="unlimited")
        result = SensorNetworkSimulator(config).run()
        packet_ids = result.delivery.packet_id.tolist()
        assert packet_ids != sorted(packet_ids)

    def test_records_aligned_with_observations(self):
        config = _line_config(hops=3, n_packets=50, case="unlimited")
        result = SensorNetworkSimulator(config).run()
        arrivals, hops, origins = result.delivery.observation_arrays()
        assert len(arrivals) == len(hops) == len(origins) == len(result.delivery)
        assert arrivals.tolist() == result.delivery.arrival_time.tolist()


class TestDeterminism:
    def test_same_seed_same_run(self):
        a = SensorNetworkSimulator(_line_config(case="rcad", seed=7, interval=2.0)).run()
        b = SensorNetworkSimulator(_line_config(case="rcad", seed=7, interval=2.0)).run()
        assert a.delivery.arrival_time.tolist() == b.delivery.arrival_time.tolist()
        assert a.total_preemptions() == b.total_preemptions()

    def test_different_seed_different_run(self):
        a = SensorNetworkSimulator(_line_config(case="unlimited", seed=1)).run()
        b = SensorNetworkSimulator(_line_config(case="unlimited", seed=2)).run()
        assert a.delivery.arrival_time.tolist() != b.delivery.arrival_time.tolist()

    def test_simulator_is_single_use(self):
        simulator = SensorNetworkSimulator(_line_config())
        simulator.run()
        with pytest.raises(RuntimeError):
            simulator.run()


class TestRcadBehaviour:
    def test_rcad_never_drops(self):
        config = _line_config(case="rcad", interval=1.0, n_packets=300, capacity=3)
        result = SensorNetworkSimulator(config).run()
        assert result.delivered_count() == 300
        assert result.drop_count() == 0
        assert result.total_preemptions() > 0

    def test_preemptions_recorded_per_packet(self):
        config = _line_config(case="rcad", interval=1.0, n_packets=300, capacity=3)
        result = SensorNetworkSimulator(config).run()
        assert any(result.delivery.preemptions > 0)

    def test_rcad_latency_below_unlimited_at_high_load(self):
        rcad = SensorNetworkSimulator(
            _line_config(case="rcad", interval=1.0, n_packets=300, capacity=5)
        ).run()
        unlimited = SensorNetworkSimulator(
            _line_config(case="unlimited", interval=1.0, n_packets=300)
        ).run()
        assert rcad.mean_latency() < unlimited.mean_latency()

    def test_no_preemption_at_light_load(self):
        config = _line_config(case="rcad", interval=100.0, n_packets=30)
        result = SensorNetworkSimulator(config).run()
        assert result.total_preemptions() == 0


class TestDropTailBehaviour:
    def test_drops_recorded(self):
        config = _line_config(case="drop-tail", interval=1.0, n_packets=300, capacity=3)
        result = SensorNetworkSimulator(config).run()
        assert result.drop_count() > 0
        assert result.delivered_count() + result.drop_count() == 300

    def test_drop_metadata(self):
        config = _line_config(case="drop-tail", interval=1.0, n_packets=200, capacity=2)
        result = SensorNetworkSimulator(config).run()
        drop = result.dropped[0]
        assert drop.flow_id == 1
        assert drop.dropped_at >= drop.created_at


class TestNodeStats:
    def test_occupancy_tracked_for_buffering_nodes(self):
        config = _line_config(case="unlimited", interval=2.0, n_packets=300, seed=5)
        result = SensorNetworkSimulator(config).run()
        source_stats = result.node_stats[0]
        assert source_stats.admitted == 300
        assert source_stats.mean_occupancy > 0
        assert source_stats.peak_occupancy >= 1

    def test_no_stats_without_delay_plan(self):
        result = SensorNetworkSimulator(_line_config(case="no-delay")).run()
        assert result.node_stats == {}

    def test_end_time_and_event_count(self):
        result = SensorNetworkSimulator(_line_config(n_packets=10)).run()
        assert result.end_time > 0
        assert result.events_processed >= 10 * 5  # one per hop per packet


class TestSealedPayloads:
    def test_sealed_run_matches_unsealed_timing(self):
        sealed = SensorNetworkSimulator(
            _line_config(case="unlimited", n_packets=40, seal_payloads=True)
        ).run()
        plain = SensorNetworkSimulator(
            _line_config(case="unlimited", n_packets=40, seal_payloads=False)
        ).run()
        arrivals = sealed.delivery.arrival_time.tolist()
        assert arrivals == plain.delivery.arrival_time.tolist()

    def test_sealed_payload_verified_at_sink(self):
        config = _line_config(case="no-delay", n_packets=5, seal_payloads=True)
        result = SensorNetworkSimulator(config).run()
        assert result.delivered_count() == 5  # decryption cross-check passed


class TestHorizonGuard:
    def test_exceeding_horizon_raises(self):
        config = _line_config(case="unlimited", n_packets=50, max_sim_time=20.0)
        with pytest.raises(RuntimeError):
            SensorNetworkSimulator(config).run()


class TestMultiFlow:
    def test_poisson_flows_all_delivered(self):
        deployment = line_deployment(hops=6)
        tree = shortest_path_tree(deployment)
        flows = [
            FlowSpec(flow_id=1, source=0, traffic=PoissonTraffic(0.2), n_packets=50),
            FlowSpec(flow_id=2, source=2, traffic=PoissonTraffic(0.1), n_packets=30),
        ]
        config = SimulationConfig(
            deployment=deployment, tree=tree, flows=flows,
            delay_plan=UniformPlanner(10.0).plan(tree, {0: 0.2, 2: 0.1}),
            buffers=BufferSpec(kind="rcad", capacity=5), seed=4,
        )
        result = SensorNetworkSimulator(config).run()
        assert result.delivered_count(flow_id=1) == 50
        assert result.delivered_count(flow_id=2) == 30
        for flow_id, hops in ((1, 6), (2, 4)):
            flow = result.delivery.take(result.flow_indices(flow_id))
            assert set(flow.hop_count.tolist()) == {hops}

    def test_flow_filters_are_consistent(self):
        deployment = line_deployment(hops=4)
        tree = shortest_path_tree(deployment)
        flows = [
            FlowSpec(flow_id=1, source=0, traffic=PeriodicTraffic(5.0), n_packets=20),
            FlowSpec(flow_id=2, source=1, traffic=PeriodicTraffic(7.0), n_packets=10),
        ]
        config = SimulationConfig(
            deployment=deployment, tree=tree, flows=flows,
            delay_plan=None, buffers=BufferSpec(kind="infinite"), seed=0,
        )
        result = SensorNetworkSimulator(config).run()
        assert result.flow_ids() == [1, 2]
        indices = result.flow_indices(2)
        assert all(result.delivery.take(indices).flow_id == 2)
        assert len(result.delivery.take(result.flow_indices(1))) == 20
