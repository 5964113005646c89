"""Integration tests: the full stack reproducing the paper's claims.

These tests assert the *shape* of the paper's results on small runs:
who wins, by what rough factor, and where the analytic models agree
with the simulator.  The full-size regenerations live in benchmarks/.
"""

import numpy as np
import pytest

from repro.core.adversary import PathAwareAdaptiveAdversary
from repro.core.planner import UniformPlanner
from repro.experiments.common import (
    build_adversary,
    paper_flow_knowledge,
    score_flow,
)
from repro.net.routing import shortest_path_tree
from repro.net.topology import line_deployment
from repro.queueing.mminf import MMInfinityQueue
from repro.queueing.tandem import QueueTreeModel
from repro.sim.config import BufferSpec, FlowSpec, SimulationConfig
from repro.sim.simulator import SensorNetworkSimulator
from repro.traffic.generators import PoissonTraffic


class TestFigure2Shape:
    """The core claims of Figure 2 on the session-shared runs."""

    def test_case1_mse_is_zero(self, nodelay_result):
        metrics = score_flow(nodelay_result, build_adversary("baseline", "no-delay"))
        assert metrics.mse == pytest.approx(0.0, abs=1e-9)

    def test_case2_mse_is_delay_variance_scale(self, unlimited_result):
        """Case 2 MSE ~ h / mu^2 = 15 * 900 = 13500 (variance only)."""
        metrics = score_flow(unlimited_result, build_adversary("baseline", "unlimited"))
        assert 8_000 < metrics.mse < 22_000

    def test_case3_mse_orders_of_magnitude_larger(
        self, unlimited_result, rcad_result
    ):
        case2 = score_flow(unlimited_result, build_adversary("baseline", "unlimited"))
        case3 = score_flow(rcad_result, build_adversary("baseline", "rcad"))
        assert case3.mse > 5 * case2.mse
        assert case3.mse > 5e4  # the paper's 10^5 scale

    def test_case1_latency_is_hop_count(self, nodelay_result):
        metrics = score_flow(nodelay_result, build_adversary("baseline", "no-delay"))
        assert metrics.latency.mean == pytest.approx(15.0)

    def test_case2_latency_is_full_delay_budget(self, unlimited_result):
        metrics = score_flow(unlimited_result, build_adversary("baseline", "unlimited"))
        assert metrics.latency.mean == pytest.approx(15 * 31.0, rel=0.05)

    def test_case3_latency_between_and_reduced(self, unlimited_result, rcad_result):
        """RCAD cuts latency vs case 2 by a factor of ~2-3 at 1/lambda=2."""
        case2 = score_flow(unlimited_result, build_adversary("baseline", "unlimited"))
        case3 = score_flow(rcad_result, build_adversary("baseline", "rcad"))
        assert 15.0 < case3.latency.mean < case2.latency.mean
        assert case2.latency.mean / case3.latency.mean > 1.8

    def test_rcad_converges_to_case2_at_low_load(self, rcad_result_slow):
        """At 1/lambda = 20 preemption is rare: MSE back to variance scale."""
        metrics = score_flow(rcad_result_slow, build_adversary("baseline", "rcad"))
        assert metrics.mse < 3e4

    def test_rcad_delivers_everything(self, rcad_result):
        assert rcad_result.drop_count() == 0
        assert rcad_result.delivered_count() == 4 * 200


class TestFigure3Shape:
    def test_adaptive_beats_baseline_at_high_load(self, rcad_result):
        baseline = score_flow(rcad_result, build_adversary("baseline", "rcad"))
        adaptive = score_flow(rcad_result, build_adversary("adaptive", "rcad"))
        assert adaptive.mse < baseline.mse
        assert adaptive.mse > 0  # reduced, not eliminated

    def test_adversaries_coincide_at_low_load(self, rcad_result_slow):
        baseline = score_flow(rcad_result_slow, build_adversary("baseline", "rcad"))
        adaptive = score_flow(rcad_result_slow, build_adversary("adaptive", "rcad"))
        assert adaptive.mse == pytest.approx(baseline.mse, rel=0.05)


class TestPathAwareAdversary:
    def test_strongest_adversary_wins(self, rcad_result, paper_tree, paper_deployment):
        sources = [
            paper_deployment.node_for_label(label)
            for label in ("S1", "S2", "S3", "S4")
        ]
        model = QueueTreeModel(
            parent=dict(paper_tree.parent),
            injection_rates={s: 0.5 for s in sources},
            default_service_rate=1.0 / 30.0,
        )
        adversary = PathAwareAdaptiveAdversary(
            knowledge=paper_flow_knowledge("rcad"),
            path_rates={
                s: [model.arrival_rate(n) for n in paper_tree.path(s)[:-1]]
                for s in sources
            },
        )
        path_aware = score_flow(rcad_result, adversary)
        baseline = score_flow(rcad_result, build_adversary("baseline", "rcad"))
        adaptive = score_flow(rcad_result, build_adversary("adaptive", "rcad"))
        assert path_aware.mse < adaptive.mse < baseline.mse
        assert path_aware.mse > 1_000  # residual privacy survives


class TestQueueTheoryAgreement:
    def test_line_occupancy_matches_mminf(self):
        """Poisson source through a 3-hop line with infinite buffers:
        the source node's time-averaged occupancy matches rho while
        traffic is flowing."""
        deployment = line_deployment(hops=3)
        tree = shortest_path_tree(deployment)
        rate, mean_delay, n = 1.0, 10.0, 4000
        flows = [
            FlowSpec(flow_id=1, source=0, traffic=PoissonTraffic(rate), n_packets=n)
        ]
        config = SimulationConfig(
            deployment=deployment, tree=tree, flows=flows,
            delay_plan=UniformPlanner(mean_delay).plan(tree, {0: rate}),
            buffers=BufferSpec(kind="infinite"), seed=8,
        )
        result = SensorNetworkSimulator(config).run()
        injection_span = n / rate
        busy_fraction = injection_span / result.end_time
        analytic = MMInfinityQueue(arrival_rate=rate, service_rate=1 / mean_delay)
        measured = result.node_stats[0].mean_occupancy / busy_fraction
        assert measured == pytest.approx(analytic.mean_occupancy, rel=0.15)

    def test_downstream_node_sees_same_rate(self):
        """Burke: the second node admits as many packets as the first."""
        deployment = line_deployment(hops=3)
        tree = shortest_path_tree(deployment)
        flows = [
            FlowSpec(flow_id=1, source=0, traffic=PoissonTraffic(0.5), n_packets=500)
        ]
        config = SimulationConfig(
            deployment=deployment, tree=tree, flows=flows,
            delay_plan=UniformPlanner(10.0).plan(tree, {0: 0.5}),
            buffers=BufferSpec(kind="infinite"), seed=2,
        )
        result = SensorNetworkSimulator(config).run()
        assert result.node_stats[1].admitted == result.node_stats[0].admitted
        assert result.node_stats[2].admitted == 500

    def test_mean_error_sign_under_rcad(self, rcad_result):
        """Preemption shortens delays, so the baseline adversary
        consistently *underestimates* creation times (negative error)."""
        metrics = score_flow(rcad_result, build_adversary("baseline", "rcad"))
        assert metrics.mean_error < -50.0


class TestCreationTimesGroundTruth:
    def test_periodic_ground_truth_matches_spec(self, nodelay_result):
        delivery = nodelay_result.delivery
        created = np.sort(delivery.created_at[delivery.flow_id == 1])
        gaps = np.diff(created)
        assert np.allclose(gaps, 2.0)

    def test_all_flows_present(self, rcad_result):
        assert rcad_result.flow_ids() == [1, 2, 3, 4]

    def test_hop_counts_match_paper(self, rcad_result):
        by_flow = {
            flow_id: int(
                rcad_result.delivery.hop_count[rcad_result.flow_indices(flow_id)[0]]
            )
            for flow_id in rcad_result.flow_ids()
        }
        assert by_flow == {1: 15, 2: 22, 3: 9, 4: 11}
