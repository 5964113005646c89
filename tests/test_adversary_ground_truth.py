"""Adversaries never read ground truth.

Every adversary reads a run's :class:`~repro.sim.results.DeliveryLog`
through :meth:`~repro.sim.results.DeliveryLog.observation_arrays`
alone.  The test: scramble the log's ground-truth columns (``flow_id``,
``packet_id``, ``preemptions``, ``created_at``) and check that no
adversary's output moves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bayes import EmpiricalBayesAdversary
from repro.experiments.common import build_adversary, paper_flow_knowledge
from repro.sim.config import SimulationConfig
from repro.sim.results import DELIVERY_COLUMNS, DeliveryLog
from repro.sim.simulator import SensorNetworkSimulator
from repro.tracking.adversary import TrackingAdversary

from .test_vectorized_estimators import ADVERSARIES

GROUND_TRUTH = ("flow_id", "packet_id", "preemptions", "created_at")


@pytest.fixture(scope="module")
def run():
    config = SimulationConfig.paper_baseline(
        interarrival=2.0, case="rcad", n_packets=60, seed=11
    )
    return config, SensorNetworkSimulator(config).run()


def _scrambled(log: DeliveryLog) -> DeliveryLog:
    """``log`` with its ground-truth columns replaced by noise."""
    rng = np.random.default_rng(0)
    n = len(log)
    columns = {name: getattr(log, name) for name in DELIVERY_COLUMNS}
    columns["flow_id"] = rng.permutation(log.flow_id) + 100
    columns["packet_id"] = rng.integers(0, 10**6, n)
    columns["preemptions"] = rng.integers(0, 50, n)
    # Created no later than delivered, so the copy still constructs.
    columns["created_at"] = log.arrival_time - rng.uniform(0.0, 500.0, n)
    scrambled = DeliveryLog(**columns)
    for name in GROUND_TRUTH:
        assert not np.array_equal(getattr(scrambled, name), getattr(log, name))
    return scrambled


@pytest.mark.parametrize("kind", sorted(ADVERSARIES))
def test_estimates_ignore_ground_truth(run, kind):
    _, result = run
    adversary = ADVERSARIES[kind]()
    estimates = adversary.estimate_all(result.delivery)
    assert estimates == adversary.estimate_all(_scrambled(result.delivery))


def test_empirical_bayes_ignores_ground_truth(run):
    _, result = run
    log = result.delivery
    hop_counts = dict(zip(log.origin.tolist(), log.hop_count.tolist()))

    def fitted_estimates(delivery):
        adversary = EmpiricalBayesAdversary(
            paper_flow_knowledge("rcad"), hop_counts, grid_step=20.0
        )
        adversary.fit(delivery)
        return adversary.estimate_all(delivery)

    assert fitted_estimates(log) == fitted_estimates(_scrambled(log))


def test_tracking_reconstruction_ignores_ground_truth(run):
    config, result = run
    adversary = TrackingAdversary(
        build_adversary("baseline", "rcad"), config.deployment.positions
    )
    track = adversary.reconstruct(result.delivery)
    assert track == adversary.reconstruct(_scrambled(result.delivery))
