"""Tests for the empirical-Bayes adversary."""

import numpy as np
import pytest

from repro.core.adversary import FlowKnowledge
from repro.core.bayes import EmpiricalBayesAdversary, erlang_path_delay_pdf
from repro.sim.results import DeliveryLog

from .taps import tap_log

KNOWLEDGE = FlowKnowledge(
    transmission_delay=1.0, mean_delay_per_hop=30.0,
    buffer_capacity=10, n_sources=1,
)


def _obs(arrival, origin=5, hops=3):
    return tap_log([arrival], hops=hops, origins=origin)


class TestErlangPathDelayPdf:
    def test_integrates_to_one(self):
        from scipy import integrate

        pdf = erlang_path_delay_pdf(3, 30.0, 1.0)
        total, _ = integrate.quad(lambda y: float(pdf(np.array([y]))[0]), 0, 3000)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_zero_before_transmission_floor(self):
        pdf = erlang_path_delay_pdf(5, 30.0, 1.0)
        assert float(pdf(np.array([4.9]))[0]) == 0.0
        assert float(pdf(np.array([200.0]))[0]) > 0.0

    def test_mean_matches_path_budget(self):
        from scipy import integrate

        hops, mean = 4, 20.0
        pdf = erlang_path_delay_pdf(hops, mean, 1.0)
        expectation, _ = integrate.quad(
            lambda y: y * float(pdf(np.array([y]))[0]), 0, 5000
        )
        assert expectation == pytest.approx(hops * mean + hops * 1.0, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            erlang_path_delay_pdf(0, 30.0, 1.0)
        with pytest.raises(ValueError):
            erlang_path_delay_pdf(3, 0.0, 1.0)


class TestEmpiricalBayesAdversary:
    def _synthetic_observations(self, rng, n=400, hops=3, origin=5):
        """Bimodal creation times + true Erlang(h, mu) path delays."""
        creation = np.sort(
            np.concatenate(
                [rng.normal(200.0, 20.0, n // 2), rng.normal(600.0, 20.0, n - n // 2)]
            )
        )
        delays = rng.gamma(hops, 30.0, size=n) + hops * 1.0
        arrivals = creation + delays
        order = np.argsort(arrivals)
        return creation[order], tap_log(arrivals[order], hops=hops, origins=origin)

    def test_requires_fit_before_estimate(self):
        adversary = EmpiricalBayesAdversary(KNOWLEDGE, hop_counts={5: 3})
        with pytest.raises(RuntimeError):
            adversary.estimate_all(_obs(10.0))

    def test_beats_mean_subtraction_on_structured_traffic(self):
        rng = np.random.Generator(np.random.PCG64(1))
        truth, observations = self._synthetic_observations(rng)
        adversary = EmpiricalBayesAdversary(KNOWLEDGE, hop_counts={5: 3})
        adversary.fit(observations)
        estimates = np.array(adversary.estimate_all(observations))
        bayes_mse = float(np.mean((estimates - truth) ** 2))
        mean_sub = observations.arrival_time - 3 * (1.0 + 30.0)
        baseline_mse = float(np.mean((mean_sub - truth) ** 2))
        assert bayes_mse < 0.7 * baseline_mse

    def test_nearly_unbiased_with_correct_delay_model(self):
        rng = np.random.Generator(np.random.PCG64(2))
        truth, observations = self._synthetic_observations(rng)
        adversary = EmpiricalBayesAdversary(KNOWLEDGE, hop_counts={5: 3})
        adversary.fit(observations)
        estimates = np.array(adversary.estimate_all(observations))
        assert abs(float(np.mean(estimates - truth))) < 15.0

    def test_unknown_origin_raises(self):
        rng = np.random.Generator(np.random.PCG64(3))
        _, observations = self._synthetic_observations(rng, n=100)
        adversary = EmpiricalBayesAdversary(KNOWLEDGE, hop_counts={5: 3})
        adversary.fit(observations)
        with pytest.raises(KeyError, match="99"):
            adversary.estimate_all(_obs(500.0, origin=99))
        with pytest.raises(KeyError):
            adversary.fit(_obs(500.0, origin=99))

    def test_reset_forgets_fit(self):
        rng = np.random.Generator(np.random.PCG64(4))
        _, observations = self._synthetic_observations(rng, n=100)
        adversary = EmpiricalBayesAdversary(KNOWLEDGE, hop_counts={5: 3})
        adversary.fit(observations)
        adversary.reset()
        with pytest.raises(RuntimeError):
            adversary.estimate_all(observations.take([0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalBayesAdversary(KNOWLEDGE, hop_counts={})
        with pytest.raises(ValueError):
            EmpiricalBayesAdversary(
                FlowKnowledge(transmission_delay=1.0), hop_counts={5: 3}
            )
        with pytest.raises(ValueError):
            EmpiricalBayesAdversary(KNOWLEDGE, hop_counts={5: 3}, grid_step=0.0)
        adversary = EmpiricalBayesAdversary(KNOWLEDGE, hop_counts={5: 3})
        with pytest.raises(ValueError):
            adversary.fit(DeliveryLog())


class TestBayesAttackExperiment:
    def test_shape(self):
        from repro.experiments.bayes_attack import bayes_attack_experiment

        rows = bayes_attack_experiment(n_packets=200, seed=5)
        cells = {(row.case, row.adversary) for row in rows}
        assert ("unlimited", "empirical-bayes") in cells
        assert ("rcad", "empirical-bayes") in cells
        assert ("no-delay", "baseline") in cells
        by_cell = {(row.case, row.adversary): row for row in rows}
        # EB exploits structure where the delay model is right...
        assert (
            by_cell[("unlimited", "empirical-bayes")].mse
            < by_cell[("unlimited", "baseline")].mse
        )
        # ...but RCAD still keeps it orders above the unlimited EB MSE.
        assert (
            by_cell[("rcad", "empirical-bayes")].mse
            > 3 * by_cell[("unlimited", "empirical-bayes")].mse
        )
