"""Unit tests for the closed-form RCAD node model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.adversary import FlowKnowledge, ModelBasedAdversary
from repro.core.planner import UniformPlanner
from repro.net.routing import shortest_path_tree
from repro.net.topology import line_deployment
from repro.queueing.erlang import erlang_b
from repro.queueing.mmkk import MMkkQueue
from repro.queueing.rcad_model import RcadNodeModel, predicted_rcad_path_latency
from repro.sim.config import BufferSpec, FlowSpec, SimulationConfig
from repro.sim.simulator import SensorNetworkSimulator
from repro.traffic.generators import PoissonTraffic

from .taps import tap_log


class TestRcadNodeModel:
    def test_preemption_probability_is_erlang(self):
        node = RcadNodeModel(arrival_rate=0.5, service_rate=1 / 30, capacity=10)
        assert node.preemption_probability == pytest.approx(erlang_b(15.0, 10))

    def test_light_load_delay_is_advertised_mean(self):
        node = RcadNodeModel(arrival_rate=0.01, service_rate=1 / 30, capacity=10)
        assert node.mean_delay == pytest.approx(30.0, rel=0.01)

    def test_saturated_delay_is_drain_time(self):
        node = RcadNodeModel(arrival_rate=5.0, service_rate=1 / 30, capacity=10)
        assert node.mean_delay == pytest.approx(node.saturated_drain_time(), rel=0.05)
        assert node.saturated_drain_time() == pytest.approx(2.0)

    def test_delay_decreases_with_load(self):
        delays = [
            RcadNodeModel(arrival_rate=rate, service_rate=1 / 30, capacity=10).mean_delay
            for rate in (0.1, 0.3, 1.0, 3.0)
        ]
        assert delays == sorted(delays, reverse=True)

    def test_delay_never_exceeds_advertised_mean(self):
        for rate in (0.01, 0.5, 2.0, 20.0):
            node = RcadNodeModel(arrival_rate=rate, service_rate=1 / 30, capacity=10)
            assert node.mean_delay <= 30.0 + 1e-12

    def test_occupancy_matches_mmkk(self):
        node = RcadNodeModel(arrival_rate=0.5, service_rate=1 / 30, capacity=10)
        bounded = MMkkQueue(arrival_rate=0.5, service_rate=1 / 30, capacity=10)
        for n in (0, 5, 10):
            assert node.occupancy_pmf(n) == pytest.approx(bounded.occupancy_pmf(n))
        assert node.mean_occupancy == pytest.approx(bounded.mean_occupancy)

    def test_throughput_is_lossless(self):
        node = RcadNodeModel(arrival_rate=0.7, service_rate=1 / 30, capacity=4)
        assert node.throughput == 0.7

    def test_littles_law_consistency(self):
        node = RcadNodeModel(arrival_rate=0.5, service_rate=1 / 30, capacity=10)
        assert node.mean_occupancy == pytest.approx(
            node.arrival_rate * node.mean_delay
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            RcadNodeModel(arrival_rate=0.0, service_rate=1.0, capacity=1)
        with pytest.raises(ValueError):
            RcadNodeModel(arrival_rate=1.0, service_rate=0.0, capacity=1)
        with pytest.raises(ValueError):
            RcadNodeModel(arrival_rate=1.0, service_rate=1.0, capacity=0)

    @given(
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=0.01, max_value=2.0),
        st.integers(min_value=1, max_value=30),
    )
    def test_delay_bracketed_property(self, lam, mu, k):
        """mean delay always lies in [min(1/mu, k/lambda) heuristics'
        envelope]: never above 1/mu, never below ~k/(k+rho)-ish floor;
        concretely: between the saturated drain time scaled and 1/mu."""
        node = RcadNodeModel(arrival_rate=lam, service_rate=mu, capacity=k)
        assert 0.0 < node.mean_delay <= 1.0 / mu + 1e-12


class TestModelAgainstSimulation:
    def _run_one_hop(self, victim_policy, n_packets=6000, seed=11):
        lam, mean_delay, k = 0.5, 30.0, 10
        deployment = line_deployment(hops=1)
        tree = shortest_path_tree(deployment)
        flows = [FlowSpec(flow_id=1, source=0,
                          traffic=PoissonTraffic(lam), n_packets=n_packets)]
        config = SimulationConfig(
            deployment=deployment, tree=tree, flows=flows,
            delay_plan=UniformPlanner(mean_delay).plan(tree, {0: lam}),
            buffers=BufferSpec(
                kind="rcad", capacity=k, victim_policy=victim_policy
            ),
            seed=seed,
        )
        result = SensorNetworkSimulator(config).run()
        # End-to-end latency = buffering delay + 1 transmission.
        return result.mean_latency() - 1.0

    def test_exact_for_residual_independent_victims(self):
        """Random victim choice keeps the occupancy chain M/M/k/k:
        the closed form is exact within simulation noise."""
        from repro.core.victim import RandomVictim

        simulated = self._run_one_hop(RandomVictim())
        node = RcadNodeModel(arrival_rate=0.5, service_rate=1 / 30, capacity=10)
        assert simulated == pytest.approx(node.mean_delay, rel=0.03)

    def test_shortest_remaining_runs_slightly_slower(self):
        """Preempting the minimum residual defers natural expiries:
        simulated delay sits a few percent *above* the closed form."""
        simulated = self._run_one_hop(None)  # default: shortest-remaining
        node = RcadNodeModel(arrival_rate=0.5, service_rate=1 / 30, capacity=10)
        assert node.mean_delay < simulated < 1.2 * node.mean_delay

    def test_path_prediction_matches_simulation(self):
        lam, mean_delay, k, hops = 0.4, 20.0, 5, 4
        deployment = line_deployment(hops=hops)
        tree = shortest_path_tree(deployment)
        flows = [FlowSpec(flow_id=1, source=0,
                          traffic=PoissonTraffic(lam), n_packets=3000)]
        config = SimulationConfig(
            deployment=deployment, tree=tree, flows=flows,
            delay_plan=UniformPlanner(mean_delay).plan(tree, {0: lam}),
            buffers=BufferSpec(kind="rcad", capacity=k), seed=12,
        )
        result = SensorNetworkSimulator(config).run()
        predicted = predicted_rcad_path_latency(
            tree, {0: lam}, source=0, mean_delay=mean_delay, capacity=k
        )
        # Shortest-remaining runs a few percent slow of the closed form.
        assert result.mean_latency() == pytest.approx(predicted, rel=0.15)
        assert result.mean_latency() >= predicted * 0.95

    def test_prediction_validation(self):
        deployment = line_deployment(hops=2)
        tree = shortest_path_tree(deployment)
        with pytest.raises(ValueError):
            predicted_rcad_path_latency(
                tree, {0: 0.5}, source=0, mean_delay=0.0, capacity=10
            )


class TestModelBasedAdversary:
    KNOWLEDGE = FlowKnowledge(
        transmission_delay=1.0, mean_delay_per_hop=30.0,
        buffer_capacity=10, n_sources=4,
    )

    def _obs(self, arrival, origin=103, hops=15):
        return tap_log([arrival], hops=hops, origins=origin)

    def test_estimate_uses_closed_form_delay(self):
        rates = [0.5] * 15
        adversary = ModelBasedAdversary(self.KNOWLEDGE, {103: rates})
        node = RcadNodeModel(arrival_rate=0.5, service_rate=1 / 30, capacity=10)
        expected_extra = 15 * node.mean_delay
        [estimate] = adversary.estimate_all(self._obs(1000.0))
        assert estimate == pytest.approx(1000.0 - 15.0 - expected_extra)

    def test_nearly_unbiased_against_rcad(self, rcad_result, paper_tree, paper_deployment):
        from repro.experiments.common import score_flow
        from repro.queueing.tandem import QueueTreeModel

        sources = [paper_deployment.node_for_label(s) for s in ("S1", "S2", "S3", "S4")]
        model = QueueTreeModel(
            parent=dict(paper_tree.parent),
            injection_rates={s: 0.5 for s in sources},
            default_service_rate=1 / 30,
        )
        adversary = ModelBasedAdversary(
            self.KNOWLEDGE,
            {s: [model.arrival_rate(n) for n in paper_tree.path(s)[:-1]]
             for s in sources},
        )
        metrics = score_flow(rcad_result, adversary)
        assert abs(metrics.mean_error) < 80.0  # near-unbiased
        assert metrics.mse > 1_000  # but variance survives: privacy floor

    def test_beats_every_other_adversary(self, rcad_result, paper_tree, paper_deployment):
        from repro.experiments.common import build_adversary, score_flow
        from repro.queueing.tandem import QueueTreeModel

        sources = [paper_deployment.node_for_label(s) for s in ("S1", "S2", "S3", "S4")]
        model = QueueTreeModel(
            parent=dict(paper_tree.parent),
            injection_rates={s: 0.5 for s in sources},
            default_service_rate=1 / 30,
        )
        adversary = ModelBasedAdversary(
            self.KNOWLEDGE,
            {s: [model.arrival_rate(n) for n in paper_tree.path(s)[:-1]]
             for s in sources},
        )
        model_mse = score_flow(rcad_result, adversary).mse
        for kind in ("baseline", "adaptive"):
            other = score_flow(rcad_result, build_adversary(kind, "rcad")).mse
            assert model_mse < other

    def test_unknown_origin_raises(self):
        adversary = ModelBasedAdversary(self.KNOWLEDGE, {103: [0.5]})
        with pytest.raises(KeyError):
            adversary.estimate_all(self._obs(10.0, origin=7))

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelBasedAdversary(self.KNOWLEDGE, {})
        with pytest.raises(ValueError):
            ModelBasedAdversary(
                FlowKnowledge(mean_delay_per_hop=30.0), {103: [0.5]}
            )
