"""Unit tests for phantom routing and the backtracing adversary."""

import numpy as np
import pytest

from repro.location.backtrace import BacktracingAdversary
from repro.location.policies import PhantomRoutingPolicy, TreeRoutingPolicy
from repro.net.routing import greedy_grid_tree, shortest_path_tree
from repro.net.topology import grid_deployment, line_deployment, paper_topology
from repro.sim.config import BufferSpec, FlowSpec, SimulationConfig
from repro.sim.simulator import SensorNetworkSimulator
from repro.traffic.generators import PeriodicTraffic


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestTreeRoutingPolicy:
    def test_follows_tree(self):
        deployment = line_deployment(hops=4)
        tree = shortest_path_tree(deployment)
        policy = TreeRoutingPolicy(tree)
        policy.first_hop_state((1, 0))
        assert policy.next_hop(0, (1, 0), _rng()) == 1
        assert policy.next_hop(3, (1, 0), _rng()) == 4


class TestPhantomRoutingPolicy:
    def _policy(self, walk_length=3):
        deployment = grid_deployment(width=6, height=6)
        tree = greedy_grid_tree(deployment, width=6)
        return deployment, tree, PhantomRoutingPolicy(tree, deployment, walk_length)

    def test_walk_steps_to_neighbors(self):
        deployment, _, policy = self._policy(walk_length=3)
        packet = (1, 0)
        policy.first_hop_state(packet)
        node = 5 * 6 + 5  # far corner
        graph = deployment.connectivity_graph()
        hop = policy.next_hop(node, packet, _rng())
        assert hop in set(graph.neighbors(node))

    def test_walk_never_steps_onto_sink(self):
        deployment, _, policy = self._policy(walk_length=50)
        packet = (1, 0)
        policy.first_hop_state(packet)
        node = 1  # adjacent to the sink (node 0)
        for _ in range(50):
            hop = policy.next_hop(node, packet, _rng())
            assert hop != deployment.sink
            node = hop

    def test_after_walk_follows_tree(self):
        deployment, tree, policy = self._policy(walk_length=2)
        packet = (1, 7)
        policy.first_hop_state(packet)
        node = 3 * 6 + 3
        rng = _rng(1)
        node = policy.next_hop(node, packet, rng)   # walk step 1
        node = policy.next_hop(node, packet, rng)   # walk step 2
        assert policy.next_hop(node, packet, rng) == tree.next_hop(node)

    def test_zero_walk_is_tree_routing(self):
        deployment, tree, policy = self._policy(walk_length=0)
        packet = (1, 0)
        policy.first_hop_state(packet)
        node = 2 * 6 + 4
        assert policy.next_hop(node, packet, _rng()) == tree.next_hop(node)

    def test_per_packet_state_isolated(self):
        _, tree, policy = self._policy(walk_length=1)
        policy.first_hop_state((1, 0))
        policy.first_hop_state((1, 1))
        node = 3 * 6 + 3
        rng = _rng(2)
        policy.next_hop(node, (1, 0), rng)  # consumes packet 0's walk
        # Packet 1's walk budget is untouched: its next hop is a walk
        # step (may or may not equal the tree hop), and after that it
        # must follow the tree.
        node_1 = policy.next_hop(node, (1, 1), rng)
        assert policy.next_hop(node_1, (1, 1), rng) == tree.next_hop(node_1)

    def test_validation(self):
        deployment = grid_deployment(width=3, height=3)
        tree = greedy_grid_tree(deployment, width=3)
        with pytest.raises(ValueError):
            PhantomRoutingPolicy(tree, deployment, walk_length=-1)


class TestBacktracingAdversary:
    def test_walks_reverse_path(self):
        # Packets 3 -> 2 -> 1 -> 0(sink), one per 10 time units.
        log = []
        for i in range(6):
            base = 10.0 * i
            log += [(base, 3, 2), (base + 1, 2, 1), (base + 2, 1, 0)]
        log.sort()
        outcome = BacktracingAdversary(sink=0, relocation_delay=1.0).hunt(
            log, target_source=3
        )
        assert outcome.captured
        assert outcome.visited == (0, 1, 2, 3)
        assert outcome.moves == 3

    def test_misses_transmissions_while_relocating(self):
        # Two arrivals at the sink in quick succession: a slow
        # adversary can only use the first.
        log = [(0.0, 1, 0), (0.5, 1, 0), (100.0, 2, 1), (200.0, 3, 2)]
        outcome = BacktracingAdversary(sink=0, relocation_delay=5.0).hunt(
            log, target_source=3
        )
        assert outcome.captured
        assert outcome.capture_time == 200.0

    def test_ignores_out_of_range_transmissions(self):
        log = [(0.0, 5, 4), (1.0, 9, 8)]  # nothing arrives at the sink
        outcome = BacktracingAdversary(sink=0).hunt(log, target_source=5)
        assert not outcome.captured
        assert outcome.moves == 0

    def test_unsorted_log_rejected(self):
        with pytest.raises(ValueError):
            BacktracingAdversary(sink=0).hunt(
                [(5.0, 1, 0), (1.0, 2, 1)], target_source=2
            )

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            BacktracingAdversary(sink=0, relocation_delay=-1.0)


class TestSimulatorIntegration:
    def _run(self, policy, record=True, n_packets=30):
        deployment = line_deployment(hops=4)
        tree = shortest_path_tree(deployment)
        config = SimulationConfig(
            deployment=deployment, tree=tree,
            flows=[FlowSpec(flow_id=1, source=0,
                            traffic=PeriodicTraffic(5.0), n_packets=n_packets)],
            delay_plan=None, buffers=BufferSpec(kind="infinite"),
            routing_policy=policy, record_transmissions=record, seed=3,
        )
        return SensorNetworkSimulator(config).run(), deployment, tree

    def test_transmission_log_recorded(self):
        result, _, _ = self._run(policy=None)
        assert len(result.transmissions) == 30 * 4
        times = [t for t, _, _ in result.transmissions]
        assert times == sorted(times)

    def test_no_log_by_default(self):
        result, _, _ = self._run(policy=None, record=False)
        assert result.transmissions == []

    def test_backtrace_on_line_captures_in_hop_count_moves(self):
        result, deployment, _ = self._run(policy=None)
        outcome = BacktracingAdversary(sink=deployment.sink).hunt(
            result.transmissions, target_source=0
        )
        assert outcome.captured
        assert outcome.moves == 4

    def test_phantom_routing_inflates_hop_counts(self):
        deployment = paper_topology()
        tree = greedy_grid_tree(deployment, width=12)
        source = deployment.node_for_label("S3")  # 9 tree hops
        policy = PhantomRoutingPolicy(tree, deployment, walk_length=6)
        config = SimulationConfig(
            deployment=deployment, tree=tree,
            flows=[FlowSpec(flow_id=1, source=source,
                            traffic=PeriodicTraffic(5.0), n_packets=40)],
            delay_plan=None, buffers=BufferSpec(kind="infinite"),
            routing_policy=policy, seed=4,
        )
        result = SensorNetworkSimulator(config).run()
        hop_counts = set(result.delivery.hop_count.tolist())
        assert all(h >= 9 for h in hop_counts)  # never shorter than tree
        assert any(h > 9 for h in hop_counts)   # walks lengthen paths
        # Header hop counts stay truthful: latency = hops * tau exactly.
        assert result.delivery.latency() == pytest.approx(
            result.delivery.hop_count * 1.0
        )


class TestSpatioTemporalExperiment:
    def test_2x2_shape_and_claims(self):
        from repro.experiments.spatiotemporal import spatiotemporal_experiment

        rows = spatiotemporal_experiment(n_packets=150, seed=5)
        cells = {(row.routing, row.buffering): row for row in rows}
        assert len(cells) == 4
        # Phantom alone buys no temporal privacy.
        assert cells[("phantom", "no-delay")].temporal_mse == pytest.approx(
            0.0, abs=1e-9
        )
        # RCAD buys temporal privacy on both routings.
        assert cells[("tree", "rcad")].temporal_mse > 5e3
        # The undefended cell is captured fastest.
        base = cells[("tree", "no-delay")]
        assert base.captured and base.backtrace_moves == 15
        for cell in cells.values():
            if cell is base or not cell.captured:
                continue
            assert cell.capture_time > base.capture_time

    def test_validation(self):
        from repro.experiments.spatiotemporal import spatiotemporal_experiment

        with pytest.raises(ValueError):
            spatiotemporal_experiment(walk_length=0)


class TestSafetyPeriodSweep:
    def test_walk_lengthens_safety_period(self):
        from repro.experiments.spatiotemporal import safety_period_sweep

        rows = safety_period_sweep(
            walk_lengths=(0, 8), n_packets=150, n_replications=3, base_seed=20
        )
        baseline, phantom = rows
        assert baseline.capture_fraction == 1.0
        assert baseline.mean_safety_period is not None
        if phantom.mean_safety_period is not None:
            assert phantom.mean_safety_period > baseline.mean_safety_period
        else:
            assert phantom.capture_fraction < 1.0

    def test_latency_cost_is_walk_length(self):
        from repro.experiments.spatiotemporal import safety_period_sweep

        rows = safety_period_sweep(
            walk_lengths=(0, 6), n_packets=100, n_replications=2, base_seed=30
        )
        # Each walk step adds about one transmission time unit.
        assert rows[1].mean_latency == pytest.approx(
            rows[0].mean_latency + 6.0, abs=2.5
        )

    def test_validation(self):
        from repro.experiments.spatiotemporal import safety_period_sweep

        with pytest.raises(ValueError):
            safety_period_sweep(walk_lengths=(-1,), n_replications=1)
        with pytest.raises(ValueError):
            safety_period_sweep(n_replications=0)
