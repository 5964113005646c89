"""Vectorized estimators agree with their scalar oracles (<= 1e-9).

Covers every adversary's columnar estimator, the Erlang-B batch
recursion and the batched KSG neighbour counts.  The adversary and KSG
oracles live in ``tests/oracles.py``; the Erlang oracle is the
library's own scalar recursion.

In practice every comparison here is *exactly* equal -- the columns go
through the same IEEE-754 operations in the same per-element order as
the scalar formulas -- but the contract asserted is a 1e-9 bound.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.core.adversary import ModelBasedAdversary
from repro.experiments.common import build_adversary, run_paper_case
from repro.experiments.fig3 import paper_path_aware_adversary
from repro.infotheory.estimators import _marginal_neighbor_counts
from repro.queueing.erlang import erlang_b, erlang_b_batch

from .oracles import estimate_all_scalar, marginal_neighbor_counts_scalar

TOL = 1e-9


@pytest.fixture(scope="module")
def rcad_delivery():
    return run_paper_case(2.0, "rcad", n_packets=200, seed=3).delivery


def _model_based_adversary():
    path_aware = paper_path_aware_adversary(2.0)
    return ModelBasedAdversary(path_aware.knowledge, path_aware.path_rates)


ADVERSARIES = {
    "naive": lambda: build_adversary("naive", "rcad"),
    "baseline": lambda: build_adversary("baseline", "rcad"),
    "adaptive": lambda: build_adversary("adaptive", "rcad"),
    "path-aware": lambda: paper_path_aware_adversary(2.0),
    "model-based": _model_based_adversary,
}


class TestAdversaryEstimators:
    @pytest.mark.parametrize("kind", sorted(ADVERSARIES))
    def test_estimate_all_matches_scalar(self, rcad_delivery, kind):
        adversary = ADVERSARIES[kind]()
        v = adversary.estimate_all(rcad_delivery)
        s = estimate_all_scalar(adversary, rcad_delivery)
        assert len(v) == len(s) == len(rcad_delivery)
        assert max(abs(a - b) for a, b in zip(v, s)) <= TOL

    def test_out_of_order_arrivals_rejected(self, rcad_delivery):
        adversary = build_adversary("baseline", "rcad")
        rows = list(range(len(rcad_delivery)))
        rows[0], rows[-1] = rows[-1], rows[0]
        shuffled = rcad_delivery.take(rows)
        with pytest.raises(ValueError):
            adversary.estimate_all(shuffled)


class TestErlangBatch:
    def test_matches_scalar_recursion(self):
        loads = np.linspace(0.0, 80.0, 333)
        batch_values = erlang_b_batch(loads, 10)
        scalar_values = [erlang_b(float(rho), 10) for rho in loads]
        assert max(abs(a - b) for a, b in zip(batch_values, scalar_values)) <= TOL

    def test_nan_propagates(self):
        out = erlang_b_batch(np.array([1.0, np.nan]), 5)
        assert not np.isnan(out[0]) and np.isnan(out[1])

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            erlang_b_batch(np.array([1.0, -0.5]), 5)


class TestKsgNeighborCounts:
    def test_batched_counts_match_loop(self):
        rng = np.random.Generator(np.random.PCG64(7))
        points = rng.standard_normal(300)
        radii = np.abs(rng.standard_normal(300)) * 0.5 + 1e-3
        tree = cKDTree(points[:, None])
        fast = _marginal_neighbor_counts(tree, points, radii)
        slow = marginal_neighbor_counts_scalar(tree, points, radii)
        assert np.array_equal(fast, slow)
