"""Ablations of the design choices the paper (and DESIGN.md) call out.

* :func:`victim_policy_ablation` -- RCAD preempts the packet with the
  shortest remaining delay "so the resulting delay times ... are the
  closest to the original distribution" (§5).  We swap in the
  alternatives and measure MSE, latency, and how far the realized
  end-to-end artificial delays drift from the intended Erlang shape;
* :func:`delay_allocation_ablation` -- §3.3 suggests shifting delay
  away from the congested near-sink trunk; we compare the uniform,
  sink-weighted and Erlang-target planners on buffer load and privacy;
* :func:`drop_vs_preempt_ablation` -- §4's drop-tail alternative vs
  RCAD's preemption at equal capacity: RCAD should deliver every
  packet while drop-tail loses a load-dependent fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from scipy import stats as scipy_stats

from repro.core.adversary import BaselineAdversary, FlowKnowledge
from repro.core.optimizer import VarianceOptimalPlanner
from repro.core.planner import (
    DelayPlanner,
    ErlangTargetPlanner,
    SinkWeightedPlanner,
    UniformPlanner,
)
from repro.core.victim import (
    LongestRemainingDelay,
    NewestArrival,
    OldestArrival,
    RandomVictim,
    ShortestRemainingDelay,
    VictimPolicy,
)
from repro.experiments.common import (
    PAPER_BUFFER_CAPACITY,
    PAPER_MEAN_DELAY,
    PAPER_TX_DELAY,
    build_adversary,
    score_flow,
)
from repro.net.routing import greedy_grid_tree
from repro.net.topology import paper_topology
from repro.runtime.context import run_simulation
from repro.sim.config import BufferSpec, FlowSpec, SimulationConfig
from repro.traffic.generators import PeriodicTraffic

__all__ = [
    "VictimAblationRow",
    "victim_policy_ablation",
    "PlannerAblationRow",
    "delay_allocation_ablation",
    "DropVsPreemptRow",
    "drop_vs_preempt_ablation",
    "DEFAULT_VICTIM_POLICIES",
]

DEFAULT_VICTIM_POLICIES: tuple[VictimPolicy, ...] = (
    ShortestRemainingDelay(),
    LongestRemainingDelay(),
    RandomVictim(),
    OldestArrival(),
    NewestArrival(),
)


@dataclass(frozen=True)
class VictimAblationRow:
    """One victim policy's outcome."""

    policy: str
    mse: float
    mean_latency: float
    preemptions: int
    delay_shape_distance: float
    """Kolmogorov-Smirnov distance between the realized end-to-end
    artificial delays and the intended Erlang(h, mu) distribution;
    smaller = closer to the advertised delay process."""


def victim_policy_ablation(
    interarrival: float = 2.0,
    policies: Sequence[VictimPolicy] = DEFAULT_VICTIM_POLICIES,
    n_packets: int = 500,
    seed: int = 0,
    flow_id: int = 1,
) -> list[VictimAblationRow]:
    """Compare RCAD victim policies at one (high) traffic load."""
    rows = []
    for policy in policies:
        config = SimulationConfig.paper_baseline(
            interarrival=interarrival,
            case="rcad",
            n_packets=n_packets,
            victim_policy=policy,
            seed=seed,
        )
        result = run_simulation(config)
        metrics = score_flow(result, build_adversary("baseline", "rcad"), flow_id)
        records = result.delivery.take(result.flow_indices(flow_id))
        hop_count = int(records.hop_count[0])
        artificial = records.latency() - hop_count * PAPER_TX_DELAY
        # Intended shape: sum of h Exp(mu) delays = Erlang(h, mu).
        ks = scipy_stats.kstest(
            artificial,
            scipy_stats.gamma(a=hop_count, scale=PAPER_MEAN_DELAY).cdf,
        )
        rows.append(
            VictimAblationRow(
                policy=policy.name,
                mse=metrics.mse,
                mean_latency=metrics.latency.mean,
                preemptions=result.total_preemptions(),
                delay_shape_distance=float(ks.statistic),
            )
        )
    return rows


@dataclass(frozen=True)
class PlannerAblationRow:
    """One delay-allocation planner's outcome."""

    planner: str
    mse: float
    mean_latency: float
    max_node_mean_occupancy: float
    """Worst per-node time-averaged buffer load under *infinite*
    buffers: the §3.3/§4 resource metric the planners trade against
    privacy."""
    total_mean_occupancy: float


def delay_allocation_ablation(
    interarrival: float = 4.0,
    n_packets: int = 500,
    seed: int = 0,
    flow_id: int = 1,
) -> list[PlannerAblationRow]:
    """Uniform vs sink-weighted vs Erlang-target delay allocation.

    Runs each planner with infinite buffers (so occupancy reflects the
    plan, not preemption) and scores privacy with a baseline adversary
    that knows each plan's *per-flow mean path delay* -- the fair
    Kerckhoff adversary for non-uniform plans.
    """
    deployment = paper_topology()
    tree = greedy_grid_tree(deployment, width=12)
    labels = ("S1", "S2", "S3", "S4")
    sources = [deployment.node_for_label(label) for label in labels]
    rate = 1.0 / interarrival
    flows = [
        FlowSpec(
            flow_id=i + 1,
            source=source,
            traffic=PeriodicTraffic(interval=interarrival, phase=interarrival * (i + 1) / 4),
            n_packets=n_packets,
        )
        for i, source in enumerate(sources)
    ]
    flow_rates = {source: rate for source in sources}
    scored_source = sources[flow_id - 1]
    planners: dict[str, DelayPlanner] = {
        "uniform": UniformPlanner(PAPER_MEAN_DELAY),
        "sink-weighted": SinkWeightedPlanner(PAPER_MEAN_DELAY, exponent=1.0),
        "erlang-target": ErlangTargetPlanner(
            buffer_capacity=PAPER_BUFFER_CAPACITY,
            target_loss=0.1,
            max_mean_delay=8 * PAPER_MEAN_DELAY,
        ),
        # The §3.2/§3.3 optimum: same latency budget as uniform for the
        # scored flow, buffer caps enforced via the Erlang loss target.
        "variance-optimal": VarianceOptimalPlanner(
            source=scored_source,
            latency_budget=tree.hop_count(scored_source) * PAPER_MEAN_DELAY,
            buffer_capacity=PAPER_BUFFER_CAPACITY,
            target_loss=0.1,
            fallback_mean_delay=PAPER_MEAN_DELAY,
        ),
    }
    rows = []
    for name, planner in planners.items():
        plan = planner.plan(tree, flow_rates)
        config = SimulationConfig(
            deployment=deployment,
            tree=tree,
            flows=flows,
            delay_plan=plan,
            buffers=BufferSpec(kind="infinite"),
            seed=seed,
        )
        result = run_simulation(config)
        source = sources[flow_id - 1]
        # Fair adversary: knows this plan's mean total path delay.
        mean_path_delay = plan.mean_path_delay(tree, source)
        hops = tree.hop_count(source)
        adversary = BaselineAdversary(
            FlowKnowledge(
                transmission_delay=PAPER_TX_DELAY,
                mean_delay_per_hop=mean_path_delay / hops,
                buffer_capacity=None,
                n_sources=len(labels),
            )
        )
        metrics = score_flow(result, adversary, flow_id)
        occupancies = [s.mean_occupancy for s in result.node_stats.values()]
        rows.append(
            PlannerAblationRow(
                planner=name,
                mse=metrics.mse,
                mean_latency=metrics.latency.mean,
                max_node_mean_occupancy=max(occupancies) if occupancies else 0.0,
                total_mean_occupancy=float(sum(occupancies)),
            )
        )
    return rows


@dataclass(frozen=True)
class DropVsPreemptRow:
    """Drop-tail vs RCAD at one traffic load."""

    interarrival: float
    rcad_delivered: int
    rcad_mse: float
    droptail_delivered: int
    droptail_drop_fraction: float
    droptail_mse: float


def drop_vs_preempt_ablation(
    interarrivals: Sequence[float] = (2.0, 4.0, 8.0, 16.0),
    n_packets: int = 400,
    seed: int = 0,
    flow_id: int = 1,
) -> list[DropVsPreemptRow]:
    """RCAD preemption vs plain M/M/k/k dropping at equal capacity."""
    rows = []
    offered = n_packets  # per flow
    for interarrival in interarrivals:
        results = {}
        for kind in ("rcad", "drop-tail"):
            config = SimulationConfig.paper_baseline(
                interarrival=interarrival,
                case="rcad",
                n_packets=n_packets,
                seed=seed,
            )
            if kind == "drop-tail":
                config.buffers = BufferSpec(
                    kind="drop-tail", capacity=PAPER_BUFFER_CAPACITY
                )
            result = run_simulation(config)
            metrics = score_flow(result, build_adversary("baseline", "rcad"), flow_id)
            results[kind] = (result, metrics)
        rcad_result, rcad_metrics = results["rcad"]
        drop_result, drop_metrics = results["drop-tail"]
        rows.append(
            DropVsPreemptRow(
                interarrival=interarrival,
                rcad_delivered=rcad_result.delivered_count(flow_id),
                rcad_mse=rcad_metrics.mse,
                droptail_delivered=drop_result.delivered_count(flow_id),
                droptail_drop_fraction=(
                    1.0 - drop_result.delivered_count(flow_id) / offered
                ),
                droptail_mse=drop_metrics.mse,
            )
        )
    return rows
