"""Extension: temporal ambiguity becomes spatial ambiguity (§1-§2).

"In asset tracking, if we add temporal ambiguity to the time that the
packets are created then, as the asset moves, this would introduce
spatial ambiguity and make it harder for the adversary to track the
asset."  This experiment executes that sentence:

1. an asset walks a zigzag across the Figure 1 field; sensors within
   detection range fire one report per pass;
2. the reports are routed to the sink (undefended vs RCAD-defended);
3. the tracking adversary pins every report at its origin's (known)
   position and its *estimated* creation time, interpolates a track,
   and is scored by mean localization error against the true path.

The conversion rate is physical: a creation-time RMSE of T buys
roughly ``speed * T`` of spatial ambiguity, so the defence matters
more for faster assets -- the experiment reports both slow and fast
passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.adversary import BaselineAdversary, FlowKnowledge, NaiveAdversary
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
from repro.tracking.adversary import TrackingAdversary, mean_localization_error
from repro.tracking.detection import detect_passes
from repro.tracking.trajectory import waypoint_trajectory
from repro.traffic.generators import TraceTraffic

__all__ = ["AssetTrackingRow", "asset_tracking_experiment", "ZIGZAG_WAYPOINTS"]

#: A zigzag crossing most of the 12x12 field.
ZIGZAG_WAYPOINTS: tuple[tuple[float, float], ...] = (
    (11.0, 1.0),
    (2.0, 3.0),
    (10.0, 6.0),
    (3.0, 9.0),
    (11.0, 11.0),
)


@dataclass(frozen=True)
class AssetTrackingRow:
    """Tracking outcome for one (defence, asset speed) cell."""

    case: str
    asset_speed: float
    n_detections: int
    time_rmse: float
    localization_error: float


def asset_tracking_experiment(
    speeds: tuple[float, ...] = (0.02, 0.08),
    detection_radius: float = 1.3,
    seed: int = 0,
) -> list[AssetTrackingRow]:
    """Track the asset across defences and speeds.

    Returns one row per (case, speed); cases are ``no-delay`` (the
    undefended network, naive adversary is exact) and ``rcad`` (the
    paper's defence, baseline adversary).
    """
    deployment = paper_topology()
    tree = greedy_grid_tree(deployment, width=12)
    rows = []
    for speed in speeds:
        if speed <= 0:
            raise ValueError(f"asset speed must be positive, got {speed}")
        trajectory = waypoint_trajectory(
            ZIGZAG_WAYPOINTS, speed=speed, start_time=50.0
        )
        detections = detect_passes(
            trajectory,
            deployment.positions,
            detection_radius=detection_radius,
            hold_off=20.0 / speed * 0.02,  # re-arm scales with pass duration
        )
        # Sensors at the sink itself cannot report (the sink is not a
        # source); drop any detection there.
        detections = [d for d in detections if d.node_id != deployment.sink]
        if len(detections) < 8:
            raise RuntimeError(
                f"only {len(detections)} detections at speed {speed}; "
                "widen the detection radius"
            )
        per_sensor: dict[int, list[float]] = {}
        for detection in detections:
            per_sensor.setdefault(detection.node_id, []).append(detection.time)

        for case in ("no-delay", "rcad"):
            flows = [
                FlowSpec(
                    flow_id=index + 1,
                    source=node,
                    traffic=TraceTraffic(times),
                    n_packets=len(times),
                )
                for index, (node, times) in enumerate(sorted(per_sensor.items()))
            ]
            if case == "no-delay":
                plan, buffers = None, BufferSpec(kind="infinite")
                knowledge = FlowKnowledge(transmission_delay=PAPER_TX_DELAY)
                estimator = NaiveAdversary(knowledge)
            else:
                plan = UniformPlanner(PAPER_MEAN_DELAY).plan(
                    tree, {flow.source: 0.01 for flow in flows}
                )
                buffers = BufferSpec(kind="rcad", capacity=PAPER_BUFFER_CAPACITY)
                estimator = BaselineAdversary(
                    FlowKnowledge(
                        transmission_delay=PAPER_TX_DELAY,
                        mean_delay_per_hop=PAPER_MEAN_DELAY,
                        buffer_capacity=PAPER_BUFFER_CAPACITY,
                        n_sources=len(flows),
                    )
                )
            config = SimulationConfig(
                deployment=deployment,
                tree=tree,
                flows=flows,
                delay_plan=plan,
                buffers=buffers,
                seed=seed,
            )
            result = run_simulation(config)

            adversary = TrackingAdversary(estimator, deployment.positions)
            estimate = adversary.reconstruct(result.delivery)
            error = mean_localization_error(trajectory, estimate, time_step=5.0)

            time_estimates = estimator.estimate_all(result.delivery)
            truths = result.delivery.created_at
            time_rmse = float(
                np.sqrt(np.mean((np.array(time_estimates) - truths) ** 2))
            )
            rows.append(
                AssetTrackingRow(
                    case=case,
                    asset_speed=speed,
                    n_detections=len(detections),
                    time_rmse=time_rmse,
                    localization_error=error,
                )
            )
    return rows
