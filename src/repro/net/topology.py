"""Deployments: where the nodes are and who can hear whom.

A :class:`Deployment` is a set of node positions plus a communication
radius; connectivity is the induced unit-disk graph.  Builders cover
the standard research topologies (line, grid, random geometric) and
:func:`paper_topology` reconstructs the evaluation scenario of the
paper's Figure 1: four source flows with hop counts 15, 22, 9 and 11
that merge progressively on their way to a common sink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "Deployment",
    "line_deployment",
    "grid_deployment",
    "random_geometric_deployment",
    "paper_topology",
    "PAPER_SOURCE_POSITIONS",
    "PAPER_HOP_COUNTS",
]

# Source positions on the 12x12 grid used by :func:`paper_topology`.
# With the sink at (0, 0) and 4-neighbour grid connectivity, the hop
# count of each flow is the Manhattan distance -- matching the flow
# hop counts reported in Section 5.2 (S1..S4 -> 15, 22, 9, 11).
PAPER_SOURCE_POSITIONS: dict[str, tuple[int, int]] = {
    "S1": (7, 8),
    "S2": (11, 11),
    "S3": (4, 5),
    "S4": (5, 6),
}
PAPER_HOP_COUNTS: dict[str, int] = {"S1": 15, "S2": 22, "S3": 9, "S4": 11}


@dataclass
class Deployment:
    """Node positions, a sink, and radio connectivity.

    Parameters
    ----------
    positions:
        Mapping node id -> (x, y) position.
    sink:
        Id of the data sink (base station).
    radio_range:
        Two nodes are connected iff their Euclidean distance is at most
        this range.
    """

    positions: Mapping[int, tuple[float, float]]
    sink: int
    radio_range: float
    labels: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.sink not in self.positions:
            raise ValueError(f"sink id {self.sink} has no position")
        if self.radio_range <= 0:
            raise ValueError(f"radio range must be positive, got {self.radio_range}")

    @property
    def node_ids(self) -> list[int]:
        """All node ids, sorted."""
        return sorted(self.positions)

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance between two nodes."""
        (ax, ay), (bx, by) = self.positions[a], self.positions[b]
        return math.hypot(ax - bx, ay - by)

    def connectivity_graph(self) -> nx.Graph:
        """The unit-disk communication graph.

        Candidate pairs come from a spatial hash (grid cells of side
        ``radio_range``): two nodes within range always fall in the
        same or adjacent cells, so only those pairs are distance-tested.
        The edge set is exactly the brute-force all-pairs one
        (``distance <= radio_range + 1e-12``), but building it is
        O(n * local density) instead of O(n^2) -- the difference
        between milliseconds and minutes at the 10^3-10^4-node
        scenario scales.
        """
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.positions)
        ids = self.node_ids
        if len(ids) < 2:
            return graph
        cell = self.radio_range
        buckets: dict[tuple[int, int], list[int]] = {}
        for node in ids:
            x, y = self.positions[node]
            key = (math.floor(x / cell), math.floor(y / cell))
            buckets.setdefault(key, []).append(node)
        limit = self.radio_range + 1e-12
        # Half of the 8-neighbourhood: each unordered cell pair is
        # visited exactly once, as is each node pair within a cell.
        offsets = ((1, -1), (1, 0), (1, 1), (0, 1))
        for (cx, cy), members in buckets.items():
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    if self.distance(a, b) <= limit:
                        graph.add_edge(a, b)
            for ox, oy in offsets:
                others = buckets.get((cx + ox, cy + oy))
                if others is None:
                    continue
                for a in members:
                    for b in others:
                        if self.distance(a, b) <= limit:
                            graph.add_edge(a, b)
        return graph

    def is_connected(self) -> bool:
        """True if every node can reach the sink over some path."""
        import networkx as nx

        graph = self.connectivity_graph()
        return nx.is_connected(graph) if graph.number_of_nodes() else True

    def node_for_label(self, label: str) -> int:
        """Resolve a human label (e.g. ``"S1"``) to a node id."""
        try:
            return self.labels[label]
        except KeyError:
            raise KeyError(f"no node labelled {label!r}; labels: {sorted(self.labels)}")


def line_deployment(hops: int, spacing: float = 1.0) -> Deployment:
    """A line S -> F1 -> ... -> sink with ``hops`` hops.

    Node 0 is the source, node ``hops`` is the sink; the source's flow
    has hop count exactly ``hops``.  This is the topology of the
    paper's two-party and tandem analyses (Sections 3-4).
    """
    if hops < 1:
        raise ValueError(f"need at least 1 hop, got {hops}")
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    positions = {i: (i * spacing, 0.0) for i in range(hops + 1)}
    return Deployment(
        positions=positions,
        sink=hops,
        radio_range=spacing,
        labels={"S1": 0, "sink": hops},
    )


def grid_deployment(width: int, height: int, spacing: float = 1.0) -> Deployment:
    """A ``width x height`` grid with the sink at the origin corner.

    Node ids are assigned row-major (``id = y * width + x``); radio
    range equals the spacing, giving 4-neighbour connectivity, so hop
    counts to the sink equal Manhattan distances.
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    positions = {
        y * width + x: (x * spacing, y * spacing)
        for y in range(height)
        for x in range(width)
    }
    return Deployment(
        positions=positions,
        sink=0,
        radio_range=spacing,
        labels={"sink": 0},
    )


def random_geometric_deployment(
    n_nodes: int,
    area_side: float,
    radio_range: float,
    rng: np.random.Generator | int,
    max_attempts: int = 50,
) -> Deployment:
    """Uniform random node placement, resampled until connected.

    The sink is the node closest to the area's corner (0, 0), modelling
    an edge-of-field base station.

    ``rng`` may be a ``numpy`` ``Generator`` or a plain integer seed
    (``default_rng(seed)`` is built internally), so declarative
    scenario specs can pin the topology with a number: the same seed
    always yields the identical deployment.
    """
    if n_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {n_nodes}")
    if area_side <= 0:
        raise ValueError(f"area side must be positive, got {area_side}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    for _ in range(max_attempts):
        coords = rng.uniform(0.0, area_side, size=(n_nodes, 2))
        positions = {i: (float(x), float(y)) for i, (x, y) in enumerate(coords)}
        sink = min(positions, key=lambda i: math.hypot(*positions[i]))
        deployment = Deployment(
            positions=positions,
            sink=sink,
            radio_range=radio_range,
            labels={"sink": sink},
        )
        if deployment.is_connected():
            return deployment
    raise RuntimeError(
        f"could not draw a connected deployment in {max_attempts} attempts "
        f"({n_nodes} nodes over a {area_side:g} x {area_side:g} area = "
        f"{n_nodes / area_side**2:.3g} nodes per unit area at radio range "
        f"{radio_range:g}); increase radio_range or node density"
    )


def paper_topology() -> Deployment:
    """The Figure 1 evaluation topology.

    A 12x12 grid with the sink at the corner (0, 0) and sources S1-S4
    placed so their shortest-path hop counts are 15, 22, 9 and 11,
    exactly the four flows of Section 5.2.  Under the deterministic
    staircase routing of :func:`repro.net.routing.greedy_grid_tree`
    the four flows merge progressively: S2's path passes through S1,
    and S1's path passes through S4 and S3, so the near-sink trunk
    carries all four flows -- the traffic-accumulation regime the
    queueing analysis (Section 4) is about.
    """
    deployment = grid_deployment(width=12, height=12)
    labels = dict(deployment.labels)
    for label, (x, y) in PAPER_SOURCE_POSITIONS.items():
        labels[label] = y * 12 + x
    deployment.labels = labels
    return deployment
