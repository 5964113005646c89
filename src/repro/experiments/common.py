"""Shared constants and helpers for the paper's evaluation (§5.2).

The constants are the paper's stated simulation parameters; the helpers
run one evaluation case and score it with a chosen adversary, which is
the unit of work every figure driver sweeps.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.core.adversary import (
    AdaptiveAdversary,
    Adversary,
    BaselineAdversary,
    FlowKnowledge,
    NaiveAdversary,
)
from repro.core.metrics import FlowMetrics, summarize_flow
from repro.runtime.context import run_simulation
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult

__all__ = [
    "PAPER_INTERARRIVALS",
    "PAPER_MEAN_DELAY",
    "PAPER_BUFFER_CAPACITY",
    "PAPER_N_PACKETS",
    "PAPER_N_SOURCES",
    "PAPER_TX_DELAY",
    "PAPER_PREEMPTION_THRESHOLD",
    "paper_flow_knowledge",
    "build_adversary",
    "run_paper_case",
    "score_flow",
]

#: 1/lambda sweep: "we varied 1/lambda from 2 ... to 20" (§5.2).
PAPER_INTERARRIVALS: tuple[float, ...] = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
#: 1/mu: "unless mentioned otherwise we took 1/mu = 30 time units".
PAPER_MEAN_DELAY: float = 30.0
#: k: "each node can buffer 10 packets ... Mica-2 motes".
PAPER_BUFFER_CAPACITY: int = 10
#: packets per source: "a total of 1000 packets".
PAPER_N_PACKETS: int = 1000
#: four sources S1..S4.
PAPER_N_SOURCES: int = 4
#: tau: "a constant transmission delay (i.e. 1 time unit)".
PAPER_TX_DELAY: float = 1.0
#: the adaptive adversary's Erlang-loss switching threshold (§5.4).
PAPER_PREEMPTION_THRESHOLD: float = 0.1

Case = Literal["no-delay", "unlimited", "rcad"]
AdversaryKind = Literal["naive", "baseline", "adaptive"]


def paper_flow_knowledge(case: Case) -> FlowKnowledge:
    """The deployment knowledge an adversary holds for a given case."""
    return FlowKnowledge(
        transmission_delay=PAPER_TX_DELAY,
        mean_delay_per_hop=0.0 if case == "no-delay" else PAPER_MEAN_DELAY,
        buffer_capacity=PAPER_BUFFER_CAPACITY if case == "rcad" else None,
        n_sources=PAPER_N_SOURCES,
    )


def build_adversary(kind: AdversaryKind, case: Case) -> Adversary:
    """Instantiate the requested adversary for the requested case.

    ``"baseline"`` against the no-delay case degenerates to the naive
    estimator (the advertised mean delay is zero), matching the paper's
    case-1 evaluation.
    """
    knowledge = paper_flow_knowledge(case)
    if kind == "naive" or (kind == "baseline" and case == "no-delay"):
        return NaiveAdversary(knowledge)
    if kind == "baseline":
        return BaselineAdversary(knowledge)
    if kind == "adaptive":
        if case != "rcad":
            raise ValueError("the adaptive adversary targets the RCAD case")
        return AdaptiveAdversary(
            knowledge, preemption_threshold=PAPER_PREEMPTION_THRESHOLD
        )
    raise ValueError(f"unknown adversary kind {kind!r}")


def run_paper_case(
    interarrival: float,
    case: Case,
    n_packets: int = PAPER_N_PACKETS,
    seed: int = 0,
    traffic: str = "periodic",
) -> SimulationResult:
    """Simulate one evaluation case at one traffic load.

    ``traffic="poisson"`` swaps the paper's periodic sources for
    Poisson sources at the same mean rate -- the regime the Section 4
    queueing predictions (and the telemetry acceptance checks) assume.
    """
    config = SimulationConfig.paper_baseline(
        interarrival=interarrival,
        case=case,
        n_packets=n_packets,
        mean_delay=PAPER_MEAN_DELAY,
        buffer_capacity=PAPER_BUFFER_CAPACITY,
        seed=seed,
        traffic=traffic,  # type: ignore[arg-type]
    )
    return run_simulation(config)


def score_flow(
    result: SimulationResult,
    adversary: Adversary,
    flow_id: int = 1,
) -> FlowMetrics:
    """Run an adversary over a result and score one flow.

    The adversary is fed the *full interleaved arrival stream* (it
    observes every flow at the sink, which the adaptive adversary
    exploits to estimate the aggregate rate), but it is scored on the
    requested flow only -- flow S1 in the paper's reported results.
    """
    delivery = result.delivery
    estimates = adversary.estimate_all(delivery)
    indices = np.flatnonzero(delivery.flow_id == flow_id)
    if not indices.size:
        raise ValueError(f"no delivered packets for flow {flow_id}")
    return summarize_flow(delivery.take(indices), np.asarray(estimates)[indices])
