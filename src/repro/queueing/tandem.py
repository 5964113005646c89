"""Tandem paths and routing-tree networks of privacy-delay queues.

Section 4 of the paper composes single-node results into networks:

* **Tandem path** -- packets leaving an M/M/infinity node form a
  Poisson process at the input rate (Burke's theorem), so an N-hop
  path is N independent M/M/infinity queues; the end-to-end artificial
  delay is the sum of independent exponentials (hypoexponential, or
  Erlang when the rates are equal).
* **Routing tree** -- flows merge as they approach the sink; the
  superposition property gives node i the aggregate Poisson rate
  ``lambda_i = sum of its children's carried rates``, and each node is
  then modelled as M/M/infinity (unbounded) or M/M/k/k (bounded).
* **Kleinrock's independence approximation** -- after drops the
  streams are not exactly Poisson, but merging restores independence
  well enough that the Poisson model remains accurate; we keep the
  approximation and the validation benchmarks quantify its error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.queueing.erlang import erlang_b
from repro.queueing.mminf import MMInfinityQueue
from repro.queueing.mmkk import MMkkQueue

__all__ = ["TandemPathModel", "QueueTreeModel", "kleinrock_note"]


def kleinrock_note() -> str:
    """One-line statement of the modelling approximation used after drops."""
    return (
        "Kleinrock independence approximation: merging several packet "
        "streams restores (approximately) the independence of interarrival "
        "times, so post-drop traffic at each node is still modelled as "
        "Poisson with the aggregate carried rate."
    )


@dataclass(frozen=True)
class TandemPathModel:
    """An N-hop line S -> F1 -> ... -> F_{N-1} -> R of delay queues.

    Parameters
    ----------
    service_rates:
        mu_i for each buffering node on the path, source first.  The
        paper allows per-node rates ("to allow each node to follow its
        own delay distribution").
    arrival_rate:
        lambda of the Poisson flow entering the path.
    hop_transmission_delay:
        The constant per-hop transmit time tau (1 time unit in the
        paper's simulations).  The number of *transmissions* is
        ``len(service_rates)``: each buffering node forwards once.

    Examples
    --------
    >>> path = TandemPathModel(service_rates=[1/30]*15, arrival_rate=0.5)
    >>> path.mean_end_to_end_delay()
    465.0
    """

    service_rates: Sequence[float]
    arrival_rate: float
    hop_transmission_delay: float = 1.0

    def __post_init__(self) -> None:
        if not self.service_rates:
            raise ValueError("path must contain at least one buffering node")
        if any(mu <= 0 for mu in self.service_rates):
            raise ValueError("all service rates must be positive")
        if self.arrival_rate < 0:
            raise ValueError(f"arrival rate must be non-negative, got {self.arrival_rate}")
        if self.hop_transmission_delay < 0:
            raise ValueError("transmission delay must be non-negative")

    @property
    def hop_count(self) -> int:
        """Number of buffering/forwarding nodes on the path."""
        return len(self.service_rates)

    def node_queue(self, index: int) -> MMInfinityQueue:
        """The M/M/infinity model of the ``index``-th node (0 = source)."""
        return MMInfinityQueue(
            arrival_rate=self.arrival_rate, service_rate=self.service_rates[index]
        )

    def mean_artificial_delay(self) -> float:
        """E[sum of per-node privacy delays] = sum 1/mu_i."""
        return float(sum(1.0 / mu for mu in self.service_rates))

    def artificial_delay_variance(self) -> float:
        """Var of the summed independent exponential delays: sum 1/mu_i^2."""
        return float(sum(1.0 / mu**2 for mu in self.service_rates))

    def mean_end_to_end_delay(self) -> float:
        """Mean total latency: transmissions plus artificial delays."""
        return self.hop_count * self.hop_transmission_delay + self.mean_artificial_delay()

    def total_mean_occupancy(self) -> float:
        """Expected number of packets buffered along the whole path."""
        return float(sum(self.arrival_rate / mu for mu in self.service_rates))

    def end_to_end_delay_pdf(self, y: float) -> float:
        """Density of the total *artificial* delay at lag ``y``.

        Hypoexponential density for distinct rates; for repeated rates
        the general case degenerates, so we fall back to the Erlang
        density when all rates are equal (the common configuration in
        the paper: identical 1/mu at every node).  Mixed repeated rates
        are evaluated by grouping into Erlang stages via convolution of
        at most a few numerical terms and are outside the fast path.
        """
        if y < 0:
            return 0.0
        rates = list(self.service_rates)
        if len(set(rates)) == 1:
            mu = rates[0]
            n = len(rates)
            return (
                mu**n * y ** (n - 1) * math.exp(-mu * y) / math.gamma(n)
                if y > 0 or n == 1
                else (mu if n == 1 else 0.0)
            )
        if len(set(rates)) != len(rates):
            raise NotImplementedError(
                "mixed repeated service rates are not supported by the "
                "closed-form density; use distinct or all-equal rates"
            )
        # Hypoexponential density: sum_i w_i mu_i e^{-mu_i y}.
        density = 0.0
        for i, mu_i in enumerate(rates):
            weight = 1.0
            for j, mu_j in enumerate(rates):
                if i != j:
                    weight *= mu_j / (mu_j - mu_i)
            density += weight * mu_i * math.exp(-mu_i * y)
        return max(density, 0.0)


@dataclass
class QueueTreeModel:
    """Analytic model of a routing tree of privacy-delay queues.

    The tree is given by ``parent`` pointers toward the sink.  Sources
    inject Poisson flows at their node; interior nodes aggregate the
    carried rates of their children plus their own injection (if any),
    exactly as in the paper's superposition argument.

    Parameters
    ----------
    parent:
        Mapping child node id -> parent node id; the sink appears only
        as a parent.
    injection_rates:
        Mapping node id -> locally generated Poisson rate.
    service_rates:
        Mapping node id -> mu at that node.  Nodes absent from the
        mapping use ``default_service_rate``.
    capacities:
        Mapping node id -> buffer slots k; absent nodes are unbounded
        (M/M/infinity).  With finite capacity the *carried* rate
        ``lambda (1 - E(rho, k))`` propagates upward (Poisson-thinning
        under the Kleinrock approximation).

    Examples
    --------
    >>> tree = QueueTreeModel(
    ...     parent={1: 0, 2: 0},
    ...     injection_rates={1: 0.2, 2: 0.3},
    ...     default_service_rate=1.0,
    ... )
    >>> tree.arrival_rate(0)
    0.5
    """

    parent: Mapping[int, int]
    injection_rates: Mapping[int, float]
    service_rates: Mapping[int, float] = field(default_factory=dict)
    capacities: Mapping[int, int] = field(default_factory=dict)
    default_service_rate: float = 1.0

    def __post_init__(self) -> None:
        import networkx as nx

        self._graph = nx.DiGraph()
        for child, par in self.parent.items():
            self._graph.add_edge(child, par)
        for node in self.injection_rates:
            self._graph.add_node(node)
        # The parent mapping guarantees out-degree <= 1, so acyclicity is
        # exactly the tree/forest condition.  (An undirected forest check
        # would miss two-node cycles like {1: 2, 2: 1}.)
        if not nx.is_directed_acyclic_graph(self._graph):
            raise ValueError("routing structure must be a tree/forest (no cycles)")
        if any(rate < 0 for rate in self.injection_rates.values()):
            raise ValueError("injection rates must be non-negative")
        self._arrival_cache: dict[int, float] = {}

    # ------------------------------------------------------------------
    def nodes(self) -> list[int]:
        """All node ids in the tree."""
        return list(self._graph.nodes)

    def children(self, node: int) -> list[int]:
        """Routing children of ``node`` (nodes that forward to it)."""
        return sorted(self._graph.predecessors(node))

    def service_rate(self, node: int) -> float:
        """mu at ``node``."""
        return float(self.service_rates.get(node, self.default_service_rate))

    def arrival_rate(self, node: int) -> float:
        """Aggregate Poisson arrival rate lambda_i entering ``node``.

        Sum of the carried output rates of its children plus any local
        injection at children (a node's own injection enters its own
        buffer too, per the paper's source-buffering model).
        """
        cached = self._arrival_cache.get(node)
        if cached is not None:
            return cached
        rate = float(self.injection_rates.get(node, 0.0))
        for child in self._graph.predecessors(node):
            rate += self.carried_rate(child)
        self._arrival_cache[node] = rate
        return rate

    def offered_load(self, node: int) -> float:
        """rho_i = lambda_i / mu_i."""
        return self.arrival_rate(node) / self.service_rate(node)

    def blocking_probability(self, node: int) -> float:
        """Erlang loss at ``node`` (0 for unbounded nodes)."""
        capacity = self.capacities.get(node)
        if capacity is None:
            return 0.0
        return erlang_b(self.offered_load(node), capacity)

    def carried_rate(self, node: int) -> float:
        """Output rate of ``node``: arrivals times acceptance probability."""
        return self.arrival_rate(node) * (1.0 - self.blocking_probability(node))

    def node_model(self, node: int) -> MMInfinityQueue | MMkkQueue:
        """The per-node queue model (M/M/k/k if a capacity is set)."""
        capacity = self.capacities.get(node)
        if capacity is None:
            return MMInfinityQueue(
                arrival_rate=self.arrival_rate(node),
                service_rate=self.service_rate(node),
            )
        return MMkkQueue(
            arrival_rate=self.arrival_rate(node),
            service_rate=self.service_rate(node),
            capacity=capacity,
        )

    def mean_occupancy(self, node: int) -> float:
        """E[N_i] at ``node``."""
        return self.node_model(node).mean_occupancy

    def path_to_root(self, node: int) -> list[int]:
        """Nodes from ``node`` to (and excluding) the sink, in hop order."""
        path = [node]
        while True:
            successors = list(self._graph.successors(path[-1]))
            if not successors:
                break
            path.append(successors[0])
        return path[:-1] if len(path) > 1 else path

    def mean_path_delay(self, source: int, hop_transmission_delay: float = 1.0) -> float:
        """Expected end-to-end latency from ``source`` to the sink.

        Sums the per-node mean privacy delay 1/mu_i over the buffering
        nodes plus one transmission per hop.  Valid for the unbounded
        model; with finite buffers this is an upper bound (preemption
        or loss only shortens delays).
        """
        buffering_nodes = self.path_to_root(source)
        hops = len(buffering_nodes)
        return hops * hop_transmission_delay + sum(
            1.0 / self.service_rate(n) for n in buffering_nodes
        )

    def total_buffered_packets(self) -> float:
        """Expected number of packets buffered across the whole network."""
        return float(sum(self.mean_occupancy(n) for n in self._graph.nodes))
