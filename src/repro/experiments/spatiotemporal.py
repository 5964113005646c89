"""Extension: spatial and temporal privacy, together (§1, refs [11,14]).

The paper's introduction splits asset privacy into *where* (source
location, protected by phantom routing in the authors' earlier work)
and *when* (temporal, this paper's RCAD).  This experiment runs the
2x2 of {tree, phantom} routing x {no-delay, RCAD} buffering on a
single S1 flow and scores both threats at once:

* **temporal** -- the baseline adversary's creation-time MSE (headers
  carry the true per-packet hop count, so the estimator stays
  calibrated under phantom routing's variable-length paths);
* **spatial** -- a backtracing local eavesdropper replaying the
  transmission log from the sink; scored by capture (did it reach the
  source?), capture time and moves.

Expected 2x2: phantom routing alone leaves creation times exactly
recoverable (MSE 0 -- spatial tricks buy no temporal privacy);
RCAD alone leaves the single fixed path trivially backtraceable in
h moves (though slower in wall-clock, since packets arrive spread
out); only the combination defends both axes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.adversary import BaselineAdversary, FlowKnowledge
from repro.core.planner import UniformPlanner
from repro.experiments.common import (
    PAPER_BUFFER_CAPACITY,
    PAPER_MEAN_DELAY,
    PAPER_TX_DELAY,
)
from repro.core.metrics import summarize_flow
from repro.location.backtrace import BacktracingAdversary
from repro.location.policies import PhantomRoutingPolicy, TreeRoutingPolicy
from repro.net.routing import greedy_grid_tree
from repro.net.topology import paper_topology
from repro.runtime.context import run_simulation
from repro.sim.config import BufferSpec, FlowSpec, SimulationConfig
from repro.traffic.generators import PeriodicTraffic

__all__ = [
    "SpatioTemporalRow",
    "spatiotemporal_experiment",
    "SafetyPeriodRow",
    "safety_period_sweep",
]


@dataclass(frozen=True)
class SpatioTemporalRow:
    """One (routing, buffering) cell of the 2x2."""

    routing: str
    buffering: str
    temporal_mse: float
    mean_latency: float
    captured: bool
    capture_time: float | None
    backtrace_moves: int


def spatiotemporal_experiment(
    walk_length: int = 8,
    interarrival: float = 4.0,
    n_packets: int = 300,
    seed: int = 0,
    flow_label: str = "S1",
) -> list[SpatioTemporalRow]:
    """Run the 2x2 and score both adversaries on each cell."""
    if walk_length < 1:
        raise ValueError(f"walk length must be >= 1, got {walk_length}")
    deployment = paper_topology()
    tree = greedy_grid_tree(deployment, width=12)
    source = deployment.node_for_label(flow_label)

    rows = []
    for routing_name in ("tree", "phantom"):
        for buffering in ("no-delay", "rcad"):
            if routing_name == "tree":
                policy = TreeRoutingPolicy(tree)
            else:
                policy = PhantomRoutingPolicy(
                    tree, deployment, walk_length=walk_length
                )
            if buffering == "no-delay":
                plan, buffers = None, BufferSpec(kind="infinite")
                mean_delay = 0.0
            else:
                plan = UniformPlanner(PAPER_MEAN_DELAY).plan(
                    tree, {source: 1.0 / interarrival}
                )
                buffers = BufferSpec(kind="rcad", capacity=PAPER_BUFFER_CAPACITY)
                mean_delay = PAPER_MEAN_DELAY
            config = SimulationConfig(
                deployment=deployment,
                tree=tree,
                flows=[
                    FlowSpec(
                        flow_id=1,
                        source=source,
                        traffic=PeriodicTraffic(interval=interarrival),
                        n_packets=n_packets,
                    )
                ],
                delay_plan=plan,
                buffers=buffers,
                routing_policy=policy,
                record_transmissions=True,
                seed=seed,
            )
            result = run_simulation(config)

            timing_adversary = BaselineAdversary(
                FlowKnowledge(
                    transmission_delay=PAPER_TX_DELAY,
                    mean_delay_per_hop=mean_delay,
                    buffer_capacity=(
                        PAPER_BUFFER_CAPACITY if buffering == "rcad" else None
                    ),
                    n_sources=1,
                )
            )
            estimates = timing_adversary.estimate_all(result.delivery)
            metrics = summarize_flow(result.delivery, estimates)

            hunter = BacktracingAdversary(sink=deployment.sink)
            outcome = hunter.hunt(result.transmissions, target_source=source)
            rows.append(
                SpatioTemporalRow(
                    routing=routing_name,
                    buffering=buffering,
                    temporal_mse=metrics.mse,
                    mean_latency=metrics.latency.mean,
                    captured=outcome.captured,
                    capture_time=outcome.capture_time,
                    backtrace_moves=outcome.moves,
                )
            )
    return rows


@dataclass(frozen=True)
class SafetyPeriodRow:
    """Backtracer outcome at one phantom walk length (replicated)."""

    walk_length: int
    capture_fraction: float
    mean_safety_period: float | None
    """Mean capture time over the replications that ended in capture
    (None if the source survived every hunt)."""
    mean_latency: float


def safety_period_sweep(
    walk_lengths: tuple[int, ...] = (0, 2, 4, 8, 12),
    interarrival: float = 4.0,
    n_packets: int = 300,
    n_replications: int = 5,
    base_seed: int = 0,
    flow_label: str = "S1",
) -> list[SafetyPeriodRow]:
    """The classic source-location figure: safety period vs h_walk.

    No artificial delays here (pure routing defence), so the sweep
    isolates phantom routing's contribution; walk length 0 is plain
    tree routing and the baseline safety period.  Hunts are replicated
    over seeds because a single backtrace outcome is high-variance.
    """
    if n_replications < 1:
        raise ValueError(f"need at least 1 replication, got {n_replications}")
    deployment = paper_topology()
    tree = greedy_grid_tree(deployment, width=12)
    source = deployment.node_for_label(flow_label)
    rows = []
    for walk_length in walk_lengths:
        if walk_length < 0:
            raise ValueError(f"walk length must be non-negative, got {walk_length}")
        capture_times: list[float] = []
        latencies: list[float] = []
        for replication in range(n_replications):
            policy = (
                TreeRoutingPolicy(tree)
                if walk_length == 0
                else PhantomRoutingPolicy(tree, deployment, walk_length=walk_length)
            )
            config = SimulationConfig(
                deployment=deployment,
                tree=tree,
                flows=[
                    FlowSpec(
                        flow_id=1,
                        source=source,
                        traffic=PeriodicTraffic(interval=interarrival),
                        n_packets=n_packets,
                    )
                ],
                delay_plan=None,
                buffers=BufferSpec(kind="infinite"),
                routing_policy=policy,
                record_transmissions=True,
                seed=base_seed + replication,
            )
            result = run_simulation(config)
            latencies.append(result.mean_latency())
            outcome = BacktracingAdversary(sink=deployment.sink).hunt(
                result.transmissions, target_source=source
            )
            if outcome.captured:
                capture_times.append(outcome.capture_time)
        rows.append(
            SafetyPeriodRow(
                walk_length=walk_length,
                capture_fraction=len(capture_times) / n_replications,
                mean_safety_period=(
                    sum(capture_times) / len(capture_times)
                    if capture_times
                    else None
                ),
                mean_latency=sum(latencies) / len(latencies),
            )
        )
    return rows
