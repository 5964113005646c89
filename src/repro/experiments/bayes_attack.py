"""Extension: the empirical-Bayes attack on structured traffic.

Real phenomena are bursty, and a per-packet adversary can exploit
that: learn the creation-time prior by EM deconvolution (paper ref
[1]) and estimate each packet by its posterior mean.  This experiment
drives a single bimodal-activity flow (the S1 path) and scores the
baseline mean-subtracting adversary against the empirical-Bayes
adversary under each defence level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.adversary import BaselineAdversary, FlowKnowledge
from repro.core.bayes import EmpiricalBayesAdversary
from repro.core.metrics import summarize_flow
from repro.core.planner import UniformPlanner
from repro.experiments.common import (
    PAPER_BUFFER_CAPACITY,
    PAPER_MEAN_DELAY,
    PAPER_TX_DELAY,
)
from repro.net.routing import greedy_grid_tree
from repro.net.topology import paper_topology
from repro.runtime.context import run_simulation
from repro.sim.config import BufferSpec, FlowSpec, SimulationConfig
from repro.traffic.generators import TraceTraffic

__all__ = ["BayesAttackRow", "bayes_attack_experiment"]


@dataclass(frozen=True)
class BayesAttackRow:
    """One (case, adversary) cell of the attack comparison."""

    case: str
    adversary: str
    mse: float
    mean_error: float


def bayes_attack_experiment(
    n_packets: int = 500,
    seed: int = 0,
    flow_label: str = "S1",
) -> list[BayesAttackRow]:
    """Baseline vs empirical-Bayes across the three defence levels."""
    rng = np.random.Generator(np.random.PCG64(seed))
    half = n_packets // 2
    creation = np.sort(
        np.clip(
            np.concatenate(
                [
                    rng.normal(300.0, 40.0, size=half),
                    rng.normal(900.0, 60.0, size=n_packets - half),
                ]
            ),
            1.0,
            None,
        )
    )
    deployment = paper_topology()
    tree = greedy_grid_tree(deployment, width=12)
    source = deployment.node_for_label(flow_label)
    hops = tree.hop_count(source)

    rows = []
    for case in ("no-delay", "unlimited", "rcad"):
        if case == "no-delay":
            plan, buffers = None, BufferSpec(kind="infinite")
            mean_delay = 0.0
        else:
            plan = UniformPlanner(PAPER_MEAN_DELAY).plan(tree, {source: 0.01})
            buffers = (
                BufferSpec(kind="infinite")
                if case == "unlimited"
                else BufferSpec(kind="rcad", capacity=PAPER_BUFFER_CAPACITY)
            )
            mean_delay = PAPER_MEAN_DELAY
        config = SimulationConfig(
            deployment=deployment,
            tree=tree,
            flows=[
                FlowSpec(
                    flow_id=1,
                    source=source,
                    traffic=TraceTraffic(creation),
                    n_packets=n_packets,
                )
            ],
            delay_plan=plan,
            buffers=buffers,
            seed=seed,
        )
        result = run_simulation(config)
        knowledge = FlowKnowledge(
            transmission_delay=PAPER_TX_DELAY,
            mean_delay_per_hop=mean_delay,
            buffer_capacity=PAPER_BUFFER_CAPACITY if case == "rcad" else None,
            n_sources=1,
        )
        adversaries: dict[str, object] = {
            "baseline": BaselineAdversary(knowledge)
        }
        if mean_delay > 0:
            bayes = EmpiricalBayesAdversary(knowledge, hop_counts={source: hops})
            bayes.fit(result.delivery)
            adversaries["empirical-bayes"] = bayes
        for name, adversary in adversaries.items():
            estimates = adversary.estimate_all(result.delivery)
            metrics = summarize_flow(result.delivery, estimates)
            rows.append(
                BayesAttackRow(
                    case=case,
                    adversary=name,
                    mse=metrics.mse,
                    mean_error=metrics.mean_error,
                )
            )
    return rows
