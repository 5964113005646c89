"""Hop-delay planners: how much delay each node should inject.

The delay process can be decomposed across the path (Section 3.3):
``Y_j = Y_0j + Y_1j + ... + Y_{N-1,j}``, and the decomposition is a
design degree of freedom.  Three planners:

* :class:`UniformPlanner` -- the paper's simulation default: every
  node draws Exp(mu) with the same mean 1/mu (= 30 time units);
* :class:`SinkWeightedPlanner` -- the Section 3.3 idea that "it may be
  possible to decompose {Y_j} so that more delay is introduced when a
  forwarding node is further from the sink", relieving the congested
  near-sink buffers;
* :class:`ErlangTargetPlanner` -- the Section 4 rule: from each node's
  aggregate traffic rate lambda_i, pick mu_i so the Erlang loss
  E(lambda_i/mu_i, k) hits a target drop/preemption rate alpha;
  approaching the sink, lambda grows and the planner shrinks 1/mu_i.

All planners emit a :class:`DelayPlan`: node id -> delay distribution.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Mapping

from repro.core.delays import DelayDistribution, ExponentialDelay
from repro.net.routing import RoutingTree
from repro.queueing.erlang import mu_for_target_loss
from repro.queueing.tandem import QueueTreeModel

__all__ = [
    "DelayPlan",
    "DelayPlanner",
    "UniformPlanner",
    "SinkWeightedPlanner",
    "ErlangTargetPlanner",
]


@dataclass
class DelayPlan:
    """Assignment of a delay distribution to every buffering node."""

    per_node: Mapping[int, DelayDistribution]
    default: DelayDistribution | None = None

    def distribution_for(self, node: int) -> DelayDistribution:
        """Delay distribution node ``node`` must draw from."""
        dist = self.per_node.get(node, self.default)
        if dist is None:
            raise KeyError(f"no delay distribution planned for node {node}")
        return dist

    def mean_path_delay(self, tree: RoutingTree, source: int) -> float:
        """Expected total artificial delay on ``source``'s path."""
        buffering_nodes = tree.path(source)[:-1]
        return float(sum(self.distribution_for(n).mean for n in buffering_nodes))


class DelayPlanner(abc.ABC):
    """Strategy interface producing a :class:`DelayPlan` for a tree."""

    @abc.abstractmethod
    def plan(self, tree: RoutingTree, flow_rates: Mapping[int, float]) -> DelayPlan:
        """Build the plan.

        Parameters
        ----------
        tree:
            The routing tree toward the sink.
        flow_rates:
            Mapping source node id -> packet creation rate lambda.
        """


class UniformPlanner(DelayPlanner):
    """Same exponential delay (mean 1/mu) at every node.

    The configuration of the paper's Figures 2 and 3 ("unless mentioned
    otherwise we took 1/mu = 30 time units").
    """

    def __init__(self, mean_delay: float) -> None:
        if mean_delay < 0:
            raise ValueError(f"mean delay must be non-negative, got {mean_delay}")
        self.mean_delay = float(mean_delay)

    def plan(self, tree: RoutingTree, flow_rates: Mapping[int, float]) -> DelayPlan:
        if self.mean_delay == 0:
            raise ValueError("uniform planner with zero delay plans nothing")
        return DelayPlan(per_node={}, default=ExponentialDelay.from_mean(self.mean_delay))


class SinkWeightedPlanner(DelayPlanner):
    """More delay far from the sink, less near it (Section 3.3).

    Node i at tree depth d_i (hops to the sink) gets an exponential
    delay with mean proportional to ``d_i ** exponent``.  The constant
    is normalized per flow so that the *deepest* flow's total mean path
    delay equals what the uniform planner would give it
    (``hop_count * reference_mean_delay``) -- privacy budget preserved,
    load shifted away from the congested near-sink trunk.
    """

    def __init__(self, reference_mean_delay: float, exponent: float = 1.0) -> None:
        if reference_mean_delay <= 0:
            raise ValueError(
                f"reference mean delay must be positive, got {reference_mean_delay}"
            )
        if exponent < 0:
            raise ValueError(f"exponent must be non-negative, got {exponent}")
        self.reference_mean_delay = float(reference_mean_delay)
        self.exponent = float(exponent)

    def plan(self, tree: RoutingTree, flow_rates: Mapping[int, float]) -> DelayPlan:
        if not flow_rates:
            raise ValueError("need at least one flow to plan for")
        participating = tree.nodes_on_flows(sorted(flow_rates))
        depth = {node: tree.hop_count(node) for node in participating}
        deepest_source = max(flow_rates, key=lambda s: tree.hop_count(s))
        deepest_path = tree.path(deepest_source)[:-1]
        budget = tree.hop_count(deepest_source) * self.reference_mean_delay
        weight_sum = sum(depth[node] ** self.exponent for node in deepest_path)
        scale = budget / weight_sum
        per_node = {
            node: ExponentialDelay.from_mean(
                max(scale * depth[node] ** self.exponent, 1e-9)
            )
            for node in participating
        }
        return DelayPlan(
            per_node=per_node,
            default=ExponentialDelay.from_mean(self.reference_mean_delay),
        )


class ErlangTargetPlanner(DelayPlanner):
    """Per-node mu from the Erlang loss formula (Section 4).

    For each buffering node with aggregate Poisson rate lambda_i and
    buffer capacity k, choose the smallest mu_i such that
    ``E(lambda_i / mu_i, k) <= target_loss``.  A ``max_mean_delay`` cap
    keeps lightly loaded far-from-sink nodes from planning absurdly
    long delays (the formula alone would push 1/mu to infinity as
    lambda -> 0).
    """

    def __init__(
        self,
        buffer_capacity: int,
        target_loss: float,
        max_mean_delay: float = 1000.0,
    ) -> None:
        if buffer_capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {buffer_capacity}")
        if not 0.0 < target_loss < 1.0:
            raise ValueError(f"target loss must be in (0, 1), got {target_loss}")
        if max_mean_delay <= 0:
            raise ValueError(f"max mean delay must be positive, got {max_mean_delay}")
        self.buffer_capacity = int(buffer_capacity)
        self.target_loss = float(target_loss)
        self.max_mean_delay = float(max_mean_delay)

    def plan(self, tree: RoutingTree, flow_rates: Mapping[int, float]) -> DelayPlan:
        if not flow_rates:
            raise ValueError("need at least one flow to plan for")
        model = QueueTreeModel(
            parent=dict(tree.parent),
            injection_rates=dict(flow_rates),
            default_service_rate=1.0,  # irrelevant: only arrival rates are used
        )
        participating = tree.nodes_on_flows(sorted(flow_rates))
        per_node: dict[int, DelayDistribution] = {}
        for node in participating:
            rate = model.arrival_rate(node)
            if rate <= 0:
                per_node[node] = ExponentialDelay.from_mean(self.max_mean_delay)
                continue
            mu = mu_for_target_loss(rate, self.buffer_capacity, self.target_loss)
            per_node[node] = ExponentialDelay.from_mean(
                min(1.0 / mu, self.max_mean_delay)
            )
        return DelayPlan(per_node=per_node, default=None)
