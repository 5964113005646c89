"""Routing trees toward the sink.

Sensor networks route convergecast traffic over a spanning tree rooted
at the sink ("each message is routed in a hop-by-hop manner based on a
routing tree", Section 4).  Two constructions:

* :func:`shortest_path_tree` -- BFS/Dijkstra tree over any deployment's
  connectivity graph (ties broken deterministically by node id), the
  general-purpose router;
* :func:`greedy_grid_tree` -- the deterministic "staircase" router for
  grid deployments: step toward the sink along the axis with the larger
  remaining distance (ties step in x).  On the paper topology this
  makes the four flows merge progressively into a shared trunk, the
  behaviour Figure 1 depicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.net.topology import Deployment

__all__ = [
    "RoutingTree",
    "DisconnectedDeploymentError",
    "shortest_path_tree",
    "greedy_grid_tree",
    "backup_parents",
]


class DisconnectedDeploymentError(ValueError):
    """A deployment node cannot reach the sink over the radio graph.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    call sites keep working; carries the offending node so scenario
    tooling can report *which* placement failed instead of guessing.
    """

    def __init__(self, node: int, sink: int, n_unreachable: int = 1) -> None:
        self.node = node
        self.sink = sink
        self.n_unreachable = n_unreachable
        others = (
            f" ({n_unreachable - 1} other nodes are unreachable too)"
            if n_unreachable > 1
            else ""
        )
        super().__init__(
            f"deployment is disconnected: node {node} cannot reach the "
            f"sink {sink} over the radio graph{others}; increase "
            "radio_range or node density"
        )


@dataclass(frozen=True)
class RoutingTree:
    """A spanning tree of next-hop pointers toward the sink.

    Attributes
    ----------
    parent:
        Mapping node id -> next hop toward the sink.  The sink itself
        is absent from the mapping.
    sink:
        The root of the tree.
    """

    parent: Mapping[int, int]
    sink: int

    def __post_init__(self) -> None:
        if self.sink in self.parent:
            raise ValueError("the sink must not have a parent")
        for node in self.parent:
            # Walk to the root; a cycle would loop forever, so bound it.
            current = node
            for _ in range(len(self.parent) + 1):
                current = self.parent.get(current, self.sink)
                if current == self.sink:
                    break
            else:
                raise ValueError(f"node {node} cannot reach the sink (cycle?)")

    def next_hop(self, node: int) -> int:
        """The node ``node`` forwards to."""
        if node == self.sink:
            raise ValueError("the sink does not forward")
        try:
            return self.parent[node]
        except KeyError:
            raise KeyError(f"node {node} is not in the routing tree")

    def path(self, source: int) -> list[int]:
        """Nodes from ``source`` to the sink inclusive."""
        nodes = [source]
        while nodes[-1] != self.sink:
            nodes.append(self.next_hop(nodes[-1]))
        return nodes

    def hop_count(self, source: int) -> int:
        """Number of transmissions from ``source`` to the sink.

        This is the h_i the adversary reads out of the cleartext
        header's hop-count field.
        """
        return len(self.path(source)) - 1

    def depths(self) -> dict[int, int]:
        """Hop count of every node (sink included, at 0), in one pass.

        Equivalent to calling :meth:`hop_count` per node but memoized
        along shared path suffixes, so it is O(n) instead of O(n * h)
        -- the difference between instant and sluggish on the 10^4-node
        scenario topologies.
        """
        depth = {self.sink: 0}
        for node in self.parent:
            chain: list[int] = []
            current = node
            while current not in depth:
                chain.append(current)
                current = self.parent.get(current, self.sink)
            base = depth[current]
            for offset, member in enumerate(reversed(chain), start=1):
                depth[member] = base + offset
        return depth

    def children_map(self) -> dict[int, list[int]]:
        """Inverse of ``parent``: node -> nodes forwarding into it."""
        children: dict[int, list[int]] = {}
        for child, par in self.parent.items():
            children.setdefault(par, []).append(child)
        for nodes in children.values():
            nodes.sort()
        return children

    def nodes_on_flows(self, sources: list[int]) -> set[int]:
        """All nodes participating in the given flows (excluding sink)."""
        involved: set[int] = set()
        for source in sources:
            involved.update(self.path(source)[:-1])
        return involved


def backup_parents(deployment: Deployment, tree: RoutingTree) -> dict[int, int]:
    """Per-node failover parents for crash resilience.

    A node whose tree parent is down needs somewhere else to forward.
    The backup parent is the connectivity-graph neighbour -- other than
    the primary parent -- with the *smallest tree depth* (hops to the
    sink along the tree), provided that depth is strictly smaller than
    the node's own.  Strict progress toward the sink guarantees the
    failover graph is loop-free even if every primary parent fails at
    once.  Ties break toward the smaller node id, keeping failover
    deterministic.  Nodes with no qualifying neighbour (e.g. a node
    whose only closer neighbour *is* its parent) are absent from the
    mapping and simply lose packets while their parent is down.

    Raises :class:`ValueError` naming the offending node when the tree
    and the deployment disagree (a tree node that is not deployed, or a
    radio neighbour that is not part of the tree) instead of surfacing
    a bare ``KeyError`` from deep inside the depth lookup.
    """
    graph = deployment.connectivity_graph()
    depth = tree.depths()
    backups: dict[int, int] = {}
    for node in tree.parent:
        if node not in graph:
            raise ValueError(
                f"routing-tree node {node} is not in the deployment "
                f"(deployed ids: {len(deployment.positions)} nodes, "
                f"sink {deployment.sink}); tree and deployment disagree"
            )
        primary = tree.parent[node]
        candidates: list[tuple[int, int]] = []
        for neighbor in graph.neighbors(node):
            neighbor_depth = depth.get(neighbor)
            if neighbor_depth is None:
                raise ValueError(
                    f"neighbour {neighbor} of node {node} is absent from "
                    f"the routing tree toward sink {tree.sink}; the tree "
                    "does not span the deployment it is used with"
                )
            if neighbor != primary and neighbor_depth < depth[node]:
                candidates.append((neighbor_depth, neighbor))
        if candidates:
            backups[node] = min(candidates)[1]
    return backups


def shortest_path_tree(deployment: Deployment) -> RoutingTree:
    """BFS shortest-path tree over the connectivity graph.

    Ties between equally short parents are broken toward the smaller
    node id so that routing is deterministic across runs.

    Raises :class:`DisconnectedDeploymentError` -- naming the first
    unreachable node -- when the deployment does not connect; the BFS
    distances double as the reachability check, so the graph is built
    once instead of twice.
    """
    import networkx as nx

    graph = deployment.connectivity_graph()
    distances = nx.single_source_shortest_path_length(graph, deployment.sink)
    unreachable = [n for n in deployment.node_ids if n not in distances]
    if unreachable:
        raise DisconnectedDeploymentError(
            unreachable[0], deployment.sink, len(unreachable)
        )
    parent: dict[int, int] = {}
    for node in deployment.node_ids:
        if node == deployment.sink:
            continue
        candidates = [
            neighbor
            for neighbor in graph.neighbors(node)
            if distances[neighbor] == distances[node] - 1
        ]
        if not candidates:  # pragma: no cover - BFS guarantees a parent
            raise DisconnectedDeploymentError(node, deployment.sink)
        parent[node] = min(candidates)
    return RoutingTree(parent=parent, sink=deployment.sink)


def greedy_grid_tree(deployment: Deployment, width: int) -> RoutingTree:
    """Deterministic staircase routing on a grid deployment.

    Each node steps toward the sink's corner along the axis with the
    larger remaining distance; on a tie it steps in x.  Produces the
    progressive-merge structure of the paper's Figure 1: flows from
    deeper in the grid join the diagonal trunk and share all remaining
    hops.  Hop counts equal Manhattan distances, as with any shortest
    -path grid routing.

    Only valid for unit-spaced row-major grids (``id = y * width + x``,
    integer coordinates).  Every computed parent is validated against
    ``deployment.positions``: a non-lattice or non-row-major deployment
    raises a clear :class:`ValueError` instead of silently producing a
    tree whose parents reference the wrong -- or nonexistent -- nodes.
    """
    if width < 1:
        raise ValueError(f"grid width must be at least 1, got {width}")
    sink_x, sink_y = deployment.positions[deployment.sink]
    parent: dict[int, int] = {}
    for node, (x, y) in deployment.positions.items():
        if node == deployment.sink:
            continue
        dx = x - sink_x
        dy = y - sink_y
        if abs(dx) >= abs(dy) and dx != 0:
            step = (-1 if dx > 0 else 1, 0)
        elif dy != 0:
            step = (0, -1 if dy > 0 else 1)
        else:  # pragma: no cover - co-located with sink but not the sink
            raise ValueError(f"node {node} is co-located with the sink")
        next_x, next_y = int(x + step[0]), int(y + step[1])
        if x + step[0] != next_x or y + step[1] != next_y:
            raise ValueError(
                f"greedy_grid_tree requires integer unit-spaced grid "
                f"coordinates, but node {node} sits at ({x:g}, {y:g}); "
                "use shortest_path_tree for non-lattice deployments"
            )
        parent_id = next_y * width + next_x
        actual = deployment.positions.get(parent_id)
        if actual is None:
            raise ValueError(
                f"greedy_grid_tree: node {node} at ({x:g}, {y:g}) steps "
                f"to ({next_x}, {next_y}), but the row-major id "
                f"{parent_id} = {next_y} * {width} + {next_x} is not "
                f"deployed; the deployment is not a width-{width} "
                "row-major grid"
            )
        if (float(actual[0]), float(actual[1])) != (float(next_x), float(next_y)):
            raise ValueError(
                f"greedy_grid_tree: node {node} at ({x:g}, {y:g}) steps "
                f"to ({next_x}, {next_y}), but node {parent_id} -- the "
                f"row-major id for that cell -- sits at "
                f"({actual[0]:g}, {actual[1]:g}); node ids are not "
                f"row-major (id = y * {width} + x) in this deployment"
            )
        parent[node] = parent_id
    return RoutingTree(parent=parent, sink=deployment.sink)
