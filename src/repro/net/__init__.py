"""Sensor-network substrate: packets, deployments, links and routing.

This layer models the network exactly at the abstraction level of the
paper's simulator: node positions and connectivity, a routing tree
toward a single sink, constant per-hop transmission delay (tau = 1 time
unit; "we simplified the PHY- and MAC-level protocols by adopting a
constant transmission delay", Section 5.2), and packets carrying the
TinyOS MultiHop-style cleartext header next to an encrypted payload.
"""

from repro.net.link import ConstantDelayLink, LossyLink
from repro.net.packet import Packet, RoutingHeader
from repro.net.routing import (
    DisconnectedDeploymentError,
    RoutingTree,
    backup_parents,
    greedy_grid_tree,
    shortest_path_tree,
)
from repro.net.topology import (
    Deployment,
    grid_deployment,
    line_deployment,
    paper_topology,
    random_geometric_deployment,
)

__all__ = [
    "Packet",
    "RoutingHeader",
    "ConstantDelayLink",
    "LossyLink",
    "RoutingTree",
    "DisconnectedDeploymentError",
    "shortest_path_tree",
    "greedy_grid_tree",
    "backup_parents",
    "Deployment",
    "grid_deployment",
    "line_deployment",
    "random_geometric_deployment",
    "paper_topology",
]
