"""Unit tests for tandem paths and routing-tree queue models."""

import pytest
from scipy import integrate

from repro.queueing.mminf import MMInfinityQueue
from repro.queueing.mmkk import MMkkQueue
from repro.queueing.tandem import QueueTreeModel, TandemPathModel, kleinrock_note


class TestTandemPath:
    def test_paper_s1_path_latency(self):
        """15 hops, tau=1, 1/mu=30 -> mean end-to-end delay 465."""
        path = TandemPathModel(service_rates=[1 / 30.0] * 15, arrival_rate=0.5)
        assert path.mean_end_to_end_delay() == pytest.approx(465.0)

    def test_mean_artificial_delay_sums_means(self):
        path = TandemPathModel(service_rates=[0.1, 0.2, 0.5], arrival_rate=1.0)
        assert path.mean_artificial_delay() == pytest.approx(10 + 5 + 2)

    def test_variance_sums_squares(self):
        path = TandemPathModel(service_rates=[0.1, 0.2], arrival_rate=1.0)
        assert path.artificial_delay_variance() == pytest.approx(100 + 25)

    def test_total_occupancy_sums_rhos(self):
        path = TandemPathModel(service_rates=[1 / 30.0] * 15, arrival_rate=0.5)
        assert path.total_mean_occupancy() == pytest.approx(15 * 15.0)

    def test_node_queue_burke_composition(self):
        """Every node sees the same Poisson rate (Burke's theorem)."""
        path = TandemPathModel(service_rates=[0.5, 0.1, 0.9], arrival_rate=0.3)
        for i in range(3):
            queue = path.node_queue(i)
            assert isinstance(queue, MMInfinityQueue)
            assert queue.arrival_rate == 0.3

    def test_hop_count(self):
        assert TandemPathModel([1.0] * 7, arrival_rate=0.1).hop_count == 7

    def test_equal_rate_density_is_erlang(self):
        path = TandemPathModel(service_rates=[0.5] * 3, arrival_rate=0.1)
        total, _ = integrate.quad(path.end_to_end_delay_pdf, 0, 100)
        assert total == pytest.approx(1.0, abs=1e-6)
        mean, _ = integrate.quad(lambda y: y * path.end_to_end_delay_pdf(y), 0, 200)
        assert mean == pytest.approx(path.mean_artificial_delay(), rel=1e-4)

    def test_distinct_rate_density_is_hypoexponential(self):
        path = TandemPathModel(service_rates=[0.2, 0.5, 1.0], arrival_rate=0.1)
        total, _ = integrate.quad(path.end_to_end_delay_pdf, 0, 200)
        assert total == pytest.approx(1.0, abs=1e-6)
        assert path.end_to_end_delay_pdf(-1.0) == 0.0

    def test_mixed_repeated_rates_unsupported(self):
        path = TandemPathModel(service_rates=[0.2, 0.2, 1.0], arrival_rate=0.1)
        with pytest.raises(NotImplementedError):
            path.end_to_end_delay_pdf(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TandemPathModel(service_rates=[], arrival_rate=0.1)
        with pytest.raises(ValueError):
            TandemPathModel(service_rates=[0.0], arrival_rate=0.1)
        with pytest.raises(ValueError):
            TandemPathModel(service_rates=[1.0], arrival_rate=-0.1)


class TestQueueTree:
    def _star(self):
        """Two leaves feeding one relay feeding the sink (node 0)."""
        return QueueTreeModel(
            parent={1: 0, 2: 1, 3: 1},
            injection_rates={2: 0.2, 3: 0.3},
            default_service_rate=1.0 / 30.0,
        )

    def test_superposition_at_merge(self):
        tree = self._star()
        assert tree.arrival_rate(2) == pytest.approx(0.2)
        assert tree.arrival_rate(3) == pytest.approx(0.3)
        assert tree.arrival_rate(1) == pytest.approx(0.5)
        assert tree.arrival_rate(0) == pytest.approx(0.5)

    def test_offered_load_and_occupancy(self):
        tree = self._star()
        assert tree.offered_load(1) == pytest.approx(15.0)
        assert tree.mean_occupancy(1) == pytest.approx(15.0)

    def test_unbounded_nodes_have_zero_blocking(self):
        assert self._star().blocking_probability(1) == 0.0

    def test_bounded_node_thins_downstream(self):
        tree = QueueTreeModel(
            parent={1: 0, 2: 1},
            injection_rates={2: 0.5},
            capacities={2: 10},
            default_service_rate=1.0 / 30.0,
        )
        blocking = tree.blocking_probability(2)
        assert blocking > 0.3  # rho = 15 on 10 slots
        assert tree.carried_rate(2) == pytest.approx(0.5 * (1 - blocking))
        assert tree.arrival_rate(1) == pytest.approx(0.5 * (1 - blocking))

    def test_node_model_types(self):
        tree = QueueTreeModel(
            parent={1: 0},
            injection_rates={1: 0.1},
            capacities={1: 5},
            default_service_rate=1.0,
        )
        assert isinstance(tree.node_model(1), MMkkQueue)
        assert isinstance(tree.node_model(0), MMInfinityQueue)

    def test_path_to_root(self):
        tree = self._star()
        assert tree.path_to_root(2) == [2, 1]
        assert tree.path_to_root(0) == [0]

    def test_mean_path_delay(self):
        tree = self._star()
        # Node 2 buffers at itself and at node 1: 2 hops, 2 * 30 delay.
        assert tree.mean_path_delay(2) == pytest.approx(2 * 1.0 + 60.0)

    def test_children_sorted(self):
        assert self._star().children(1) == [2, 3]

    def test_total_buffered(self):
        tree = self._star()
        expected = sum(tree.mean_occupancy(n) for n in tree.nodes())
        assert tree.total_buffered_packets() == pytest.approx(expected)

    def test_per_node_service_rates(self):
        tree = QueueTreeModel(
            parent={1: 0},
            injection_rates={1: 0.5},
            service_rates={1: 0.25},
            default_service_rate=1.0,
        )
        assert tree.offered_load(1) == pytest.approx(2.0)
        assert tree.offered_load(0) == pytest.approx(0.5)

    def test_paper_trunk_aggregation(self, paper_tree, paper_deployment):
        """On the Figure 1 tree the sink-adjacent node carries all 4 flows."""
        sources = {
            paper_deployment.node_for_label(label): 0.25
            for label in ("S1", "S2", "S3", "S4")
        }
        model = QueueTreeModel(
            parent=dict(paper_tree.parent),
            injection_rates=sources,
            default_service_rate=1.0 / 30.0,
        )
        last_hop = paper_tree.path(paper_deployment.node_for_label("S1"))[-2]
        assert model.arrival_rate(last_hop) == pytest.approx(1.0)

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            QueueTreeModel(parent={1: 2, 2: 1}, injection_rates={1: 0.1})

    def test_negative_injection_rejected(self):
        with pytest.raises(ValueError):
            QueueTreeModel(parent={1: 0}, injection_rates={1: -0.1})


def test_kleinrock_note_mentions_poisson():
    assert "Poisson" in kleinrock_note()
