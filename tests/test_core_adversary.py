"""Unit tests for the adversary estimators."""

import math

import pytest

from repro.core.adversary import (
    WARMUP_OBSERVATIONS,
    AdaptiveAdversary,
    BaselineAdversary,
    FlowKnowledge,
    NaiveAdversary,
    PathAwareAdaptiveAdversary,
)
from repro.queueing.erlang import erlang_b

from .taps import tap_log


def _obs(arrival, hops=15, origin=103):
    """One sink arrival: ``(arrival_time, hop_count, origin)``."""
    return (arrival, hops, origin)


def _log(rows):
    arrivals, hops, origins = zip(*rows)
    return tap_log(arrivals, hops, origins)


RCAD_KNOWLEDGE = FlowKnowledge(
    transmission_delay=1.0, mean_delay_per_hop=30.0, buffer_capacity=10, n_sources=4
)


class TestFlowKnowledge:
    def test_defaults(self):
        knowledge = FlowKnowledge()
        assert knowledge.transmission_delay == 1.0
        assert knowledge.mean_delay_per_hop == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowKnowledge(transmission_delay=-1.0)
        with pytest.raises(ValueError):
            FlowKnowledge(mean_delay_per_hop=-1.0)
        with pytest.raises(ValueError):
            FlowKnowledge(buffer_capacity=0)
        with pytest.raises(ValueError):
            FlowKnowledge(n_sources=0)

    @pytest.mark.parametrize("field", ["transmission_delay", "mean_delay_per_hop"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_delays_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            FlowKnowledge(**{field: value})


def _estimate(adversary, observation):
    return adversary.estimate_all(_log([observation]))[0]


class TestNaiveAdversary:
    def test_formula(self):
        adversary = NaiveAdversary(FlowKnowledge(transmission_delay=1.0))
        assert _estimate(adversary, _obs(arrival=100.0, hops=15)) == 85.0

    def test_exact_on_undefended_network(self):
        """z = x + h*tau implies x_hat = x."""
        adversary = NaiveAdversary(FlowKnowledge(transmission_delay=2.0))
        x = 50.0
        z = x + 7 * 2.0
        assert _estimate(adversary, _obs(arrival=z, hops=7)) == pytest.approx(x)


class TestBaselineAdversary:
    def test_formula(self):
        adversary = BaselineAdversary(RCAD_KNOWLEDGE)
        # x_hat = z - h (tau + 1/mu) = 500 - 15 * 31.
        assert _estimate(adversary, _obs(arrival=500.0, hops=15)) == pytest.approx(
            35.0
        )

    def test_unbiased_against_unlimited_buffers_on_average(self):
        """Against the mean total delay, the estimate is centred."""
        adversary = BaselineAdversary(RCAD_KNOWLEDGE)
        x = 10.0
        mean_z = x + 15 * (1.0 + 30.0)
        assert _estimate(adversary, _obs(arrival=mean_z, hops=15)) == pytest.approx(x)

    def test_estimate_all_requires_arrival_order(self):
        adversary = BaselineAdversary(RCAD_KNOWLEDGE)
        with pytest.raises(ValueError):
            adversary.estimate_all(_log([_obs(10.0), _obs(5.0)]))

    def test_estimate_all_maps_each(self):
        adversary = BaselineAdversary(RCAD_KNOWLEDGE)
        estimates = adversary.estimate_all(_log([_obs(500.0), _obs(600.0)]))
        assert estimates == [pytest.approx(35.0), pytest.approx(135.0)]


def _uniform(rate, count=200, hops=15):
    """`count` observations at a constant aggregate rate."""
    return [_obs(arrival=i / rate, hops=hops) for i in range(count)]


class TestAdaptiveAdversary:
    def test_low_rate_behaves_like_baseline(self):
        # Aggregate rate 0.05 -> rho = 1.5 on k = 10: loss ~ 0.
        stream = _uniform(rate=0.05) + [_obs(arrival=(200 / 0.05) + 100.0)]
        estimates = AdaptiveAdversary(RCAD_KNOWLEDGE).estimate_all(_log(stream))
        baseline = BaselineAdversary(RCAD_KNOWLEDGE).estimate_all(_log(stream))
        assert estimates == pytest.approx(baseline)

    def test_high_rate_switches_to_saturation_estimate(self):
        # Aggregate rate 2.0 -> rho = 60 on k = 10: loss >> 0.1.  The
        # next arrival continues the same rate (a distant arrival would
        # legitimately dilute the adversary's rate estimate).
        # Per-hop extra: n k / lambda_tot = 4 * 10 / 2 = 20.
        obs = _obs(arrival=200 / 2.0 + 0.5, hops=15)
        stream = _uniform(rate=2.0) + [obs]
        estimates = AdaptiveAdversary(RCAD_KNOWLEDGE).estimate_all(_log(stream))
        expected = obs[0] - 15 * (1.0 + 20.0)
        assert estimates[-1] == pytest.approx(expected, abs=3.0)

    def test_clamp_caps_at_advertised_mean(self):
        # Rate 0.4: rho = 12 > threshold load, but n k / lambda = 100 > 30.
        stream = _uniform(rate=0.4) + [_obs(arrival=200 / 0.4 + 2.0, hops=15)]
        estimates = AdaptiveAdversary(RCAD_KNOWLEDGE).estimate_all(_log(stream))
        baseline = BaselineAdversary(RCAD_KNOWLEDGE).estimate_all(_log(stream))
        assert estimates[-1] == pytest.approx(baseline[-1], rel=1e-6)
        # The stream is in the preemption regime: with one source the
        # drain time k / lambda = 25 < 30 shows through the cap.
        one_source = FlowKnowledge(
            transmission_delay=1.0, mean_delay_per_hop=30.0, buffer_capacity=10
        )
        uncapped = AdaptiveAdversary(one_source).estimate_all(_log(stream))
        assert uncapped[-1] > baseline[-1] + 15 * 4.0

    def test_warmup_behaves_like_baseline(self):
        stream = _uniform(rate=2.0, count=WARMUP_OBSERVATIONS)
        estimates = AdaptiveAdversary(RCAD_KNOWLEDGE).estimate_all(_log(stream))
        baseline = BaselineAdversary(RCAD_KNOWLEDGE).estimate_all(_log(stream))
        assert estimates[:-1] == baseline[:-1]
        assert estimates[-1] > baseline[-1]

    def test_preemption_probability_matches_erlang(self):
        # Rate 2.0: the regime switch sits exactly at E(2.0 * 30, 10).
        stream = _uniform(rate=2.0)
        loss = erlang_b(2.0 * 30.0, 10)
        baseline = BaselineAdversary(RCAD_KNOWLEDGE).estimate_all(_log(stream))
        below = AdaptiveAdversary(RCAD_KNOWLEDGE, preemption_threshold=loss * 0.99)
        above = AdaptiveAdversary(RCAD_KNOWLEDGE, preemption_threshold=loss * 1.01)
        assert below.estimate_all(_log(stream))[-1] > baseline[-1]
        assert above.estimate_all(_log(stream)) == baseline

    def test_estimates_depend_only_on_the_stream(self):
        adversary = AdaptiveAdversary(RCAD_KNOWLEDGE)
        stream = _uniform(rate=2.0)
        first = adversary.estimate_all(_log(stream))
        adversary.estimate_all(_log(_uniform(rate=0.05)))
        assert adversary.estimate_all(_log(stream)) == first

    def test_requires_capacity_and_delay(self):
        with pytest.raises(ValueError):
            AdaptiveAdversary(FlowKnowledge(mean_delay_per_hop=30.0))
        with pytest.raises(ValueError):
            AdaptiveAdversary(FlowKnowledge(buffer_capacity=10))

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            AdaptiveAdversary(RCAD_KNOWLEDGE, preemption_threshold=0.0)
        with pytest.raises(ValueError):
            AdaptiveAdversary(RCAD_KNOWLEDGE, preemption_threshold=1.0)


class TestPathAwareAdversary:
    PATH_RATES = {103: [0.5] * 4 + [0.75] * 2 + [1.0] * 9}

    def test_unsaturated_path_equals_baseline(self):
        light = {103: [0.01] * 15}
        adversary = PathAwareAdaptiveAdversary(RCAD_KNOWLEDGE, path_rates=light)
        baseline = BaselineAdversary(RCAD_KNOWLEDGE)
        obs = _obs(arrival=1000.0)
        assert _estimate(adversary, obs) == pytest.approx(_estimate(baseline, obs))

    def test_saturated_hops_use_drain_time(self):
        adversary = PathAwareAdaptiveAdversary(
            RCAD_KNOWLEDGE, path_rates=self.PATH_RATES
        )
        # Every node saturated (rho from 15 to 30 on k=10):
        # delay = sum min(30, 10/rate) = 4*20 + 2*13.33 + 9*10 = 196.67.
        obs = _obs(arrival=1000.0, hops=15)
        expected = 1000.0 - 15 * 1.0 - (4 * 20.0 + 2 * (10 / 0.75) + 9 * 10.0)
        assert _estimate(adversary, obs) == pytest.approx(expected)

    def test_unknown_origin_raises(self):
        adversary = PathAwareAdaptiveAdversary(
            RCAD_KNOWLEDGE, path_rates=self.PATH_RATES
        )
        with pytest.raises(KeyError, match="999"):
            adversary.estimate_all(_log([_obs(arrival=10.0, origin=999)]))

    def test_validation(self):
        with pytest.raises(ValueError):
            PathAwareAdaptiveAdversary(RCAD_KNOWLEDGE, path_rates={})
        with pytest.raises(ValueError):
            PathAwareAdaptiveAdversary(
                FlowKnowledge(mean_delay_per_hop=30.0), path_rates=self.PATH_RATES
            )
        with pytest.raises(ValueError):
            PathAwareAdaptiveAdversary(
                RCAD_KNOWLEDGE, path_rates=self.PATH_RATES, preemption_threshold=1.5
            )
