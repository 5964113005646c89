"""Extension: a distribution-level adversary (EM deconvolution).

Per-packet creation-time estimates are one threat; the *temporal
pattern* of the phenomenon (when is the animal active?) is another.
Using the EM reconstruction the paper cites ([1], Agrawal & Aggarwal),
a sink adversary can deconvolve the known delay distribution out of
the arrival-time histogram and recover the creation-time distribution.

This experiment drives the paper topology with a **bimodal** activity
pattern (two activity bursts -- dawn and dusk, say), runs the three
evaluation cases, and lets the EM adversary reconstruct the pattern:

* **no-delay** -- the adversary shifts arrivals by h*tau and recovers
  the pattern essentially exactly;
* **unlimited buffers** -- the adversary deconvolves the true
  Erlang(h, mu) delay and still recovers the gross shape (temporal
  privacy against distribution inference is *weaker* than against
  per-packet inference -- deconvolution averages the noise away);
* **RCAD** -- the adversary deconvolves the *nominal* delay density,
  but preemption shortened the real delays, so the reconstruction is
  misplaced; the error is quantified as the total-variation distance
  to the true pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats as scipy_stats

from repro.core.planner import UniformPlanner
from repro.experiments.common import (
    PAPER_BUFFER_CAPACITY,
    PAPER_MEAN_DELAY,
    PAPER_TX_DELAY,
)
from repro.infotheory.deconvolution import em_deconvolve, total_variation_distance
from repro.net.routing import greedy_grid_tree
from repro.net.topology import paper_topology
from repro.runtime.context import run_simulation
from repro.sim.config import BufferSpec, FlowSpec, SimulationConfig
from repro.traffic.generators import TraceTraffic

__all__ = ["DistributionAdversaryRow", "distribution_adversary_experiment"]


@dataclass(frozen=True)
class DistributionAdversaryRow:
    """Reconstruction quality for one evaluation case."""

    case: str
    tv_distance: float
    reconstructed_mean: float
    true_mean: float


def _bimodal_pattern(n_packets: int, rng: np.random.Generator) -> np.ndarray:
    """Two activity bursts: N(300, 40) and N(900, 60), clipped positive."""
    first = rng.normal(300.0, 40.0, size=n_packets // 2)
    second = rng.normal(900.0, 60.0, size=n_packets - n_packets // 2)
    return np.sort(np.clip(np.concatenate([first, second]), 1.0, None))


def _true_masses(samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    step = grid[1] - grid[0]
    edges = np.concatenate([grid - step / 2, [grid[-1] + step / 2]])
    histogram, _ = np.histogram(samples, bins=edges)
    return histogram / histogram.sum()


def distribution_adversary_experiment(
    n_packets: int = 600,
    seed: int = 0,
    flow_label: str = "S1",
    grid_step: float = 10.0,
) -> list[DistributionAdversaryRow]:
    """Run the EM adversary against the three evaluation cases."""
    rng = np.random.Generator(np.random.PCG64(seed))
    creation_times = _bimodal_pattern(n_packets, rng)

    deployment = paper_topology()
    tree = greedy_grid_tree(deployment, width=12)
    source = deployment.node_for_label(flow_label)
    hops = tree.hop_count(source)
    grid = np.arange(0.0, creation_times.max() + 300.0, grid_step)
    true_masses = _true_masses(creation_times, grid)

    rows = []
    for case in ("no-delay", "unlimited", "rcad"):
        if case == "no-delay":
            plan, buffers = None, BufferSpec(kind="infinite")
        else:
            plan = UniformPlanner(PAPER_MEAN_DELAY).plan(tree, {source: 0.01})
            buffers = (
                BufferSpec(kind="infinite")
                if case == "unlimited"
                else BufferSpec(kind="rcad", capacity=PAPER_BUFFER_CAPACITY)
            )
        config = SimulationConfig(
            deployment=deployment,
            tree=tree,
            flows=[
                FlowSpec(
                    flow_id=1,
                    source=source,
                    traffic=TraceTraffic(creation_times),
                    n_packets=n_packets,
                )
            ],
            delay_plan=plan,
            buffers=buffers,
            seed=seed,
        )
        result = run_simulation(config)
        arrivals = result.delivery.arrival_time

        # The adversary's delay model: h*tau transmission shift plus,
        # for the delayed cases, the *nominal* Erlang(h, mu) sum of
        # per-hop exponentials -- correct for "unlimited", optimistic
        # for RCAD (preemption shortens the real delays).
        if case == "no-delay":
            def delay_pdf(lag, _h=hops):
                return np.where(np.abs(lag - _h * PAPER_TX_DELAY) < grid_step / 2,
                                1.0 / grid_step, 0.0)
        else:
            erlang = scipy_stats.gamma(a=hops, scale=PAPER_MEAN_DELAY)

            def delay_pdf(lag, _e=erlang, _h=hops):
                return _e.pdf(lag - _h * PAPER_TX_DELAY)

        reconstruction = em_deconvolve(arrivals, delay_pdf, grid)
        rows.append(
            DistributionAdversaryRow(
                case=case,
                tv_distance=total_variation_distance(
                    reconstruction.density, true_masses
                ),
                reconstructed_mean=reconstruction.mean(),
                true_mean=float(creation_times.mean()),
            )
        )
    return rows
