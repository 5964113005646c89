"""Section 4 validation: queue formulas against discrete-event runs.

Three checks tying the analytic queueing layer to the DES engine:

* :func:`mm_infinity_validation` -- simulated M/M/infinity occupancy
  vs the Poisson(rho) closed form (mean and full distribution);
* :func:`erlang_loss_validation` -- simulated M/M/k/k blocking vs the
  Erlang loss formula, swept across loads;
* :func:`tree_occupancy_validation` -- per-node time-averaged buffer
  occupancy of the *full WSN simulator* (Poisson sources, infinite
  buffers) vs the :class:`~repro.queueing.tandem.QueueTreeModel`
  prediction rho_i = lambda_i / mu_i along S1's path, validating the
  superposition/Burke composition on the real topology.
"""

from __future__ import annotations

from repro.analysis.records import ExperimentSeries, ExperimentTable
from repro.core.planner import UniformPlanner
from repro.net.routing import greedy_grid_tree
from repro.net.topology import paper_topology
from repro.queueing.erlang import erlang_b
from repro.queueing.mminf import MMInfinityQueue
from repro.queueing.simq import SimulatedMMInfinity, SimulatedMMkk
from repro.queueing.tandem import QueueTreeModel
from repro.runtime.context import run_simulation
from repro.sim.config import BufferSpec, FlowSpec, SimulationConfig
from repro.traffic.generators import PoissonTraffic

__all__ = [
    "mm_infinity_validation",
    "erlang_loss_validation",
    "tree_occupancy_validation",
]


def mm_infinity_validation(
    arrival_rate: float = 0.5,
    service_rate: float = 1.0 / 30.0,
    horizon: float = 60_000.0,
    seed: int = 0,
) -> dict[str, float]:
    """Simulated vs analytic M/M/infinity occupancy.

    Returns the analytic and simulated means plus the total-variation
    distance between the simulated occupancy distribution and the
    Poisson(rho) law.
    """
    analytic = MMInfinityQueue(arrival_rate=arrival_rate, service_rate=service_rate)
    simulated = SimulatedMMInfinity(
        arrival_rate=arrival_rate, service_rate=service_rate, seed=seed
    ).run(horizon=horizon)
    sim_dist = simulated["occupancy_distribution"]
    support = range(0, max(sim_dist) + 20 if sim_dist else 20)
    tv_distance = 0.5 * sum(
        abs(sim_dist.get(k, 0.0) - analytic.occupancy_pmf(k)) for k in support
    )
    return {
        "analytic_mean": analytic.mean_occupancy,
        "simulated_mean": simulated["mean_occupancy"],
        "analytic_sojourn": analytic.mean_sojourn,
        "simulated_sojourn": simulated["mean_sojourn"],
        "tv_distance": float(tv_distance),
    }


def erlang_loss_validation(
    offered_loads: tuple[float, ...] = (2.0, 5.0, 10.0, 15.0, 25.0),
    capacity: int = 10,
    service_rate: float = 1.0 / 30.0,
    horizon: float = 60_000.0,
    seed: int = 0,
) -> ExperimentTable:
    """Simulated M/M/k/k blocking vs Erlang loss across loads."""
    analytic = []
    simulated = []
    for rho in offered_loads:
        arrival_rate = rho * service_rate
        analytic.append(erlang_b(rho, capacity))
        run = SimulatedMMkk(
            arrival_rate=arrival_rate,
            service_rate=service_rate,
            capacity=capacity,
            seed=seed,
        ).run(horizon=horizon)
        simulated.append(run["blocking_probability"])
    table = ExperimentTable(
        title=f"Eq. (5) Erlang loss validation, k={capacity}",
        x_label="offered load rho",
        y_label="blocking probability",
    )
    table.add(ExperimentSeries("Erlang B (analytic)", list(offered_loads), analytic))
    table.add(ExperimentSeries("M/M/k/k simulation", list(offered_loads), simulated))
    return table


def tree_occupancy_validation(
    interarrival: float = 10.0,
    mean_delay: float = 30.0,
    n_packets: int = 2000,
    seed: int = 0,
) -> ExperimentTable:
    """WSN-simulator node occupancy vs QueueTreeModel along S1's path.

    Runs the paper topology with *Poisson* sources (so the analytic
    model applies exactly) and infinite buffers, then compares each
    trunk node's time-averaged occupancy with rho_i = lambda_i / mu.
    The match validates superposition + Burke composition end-to-end
    on the very simulator that produces Figures 2-3.
    """
    deployment = paper_topology()
    tree = greedy_grid_tree(deployment, width=12)
    rate = 1.0 / interarrival
    sources = {
        label: deployment.node_for_label(label) for label in ("S1", "S2", "S3", "S4")
    }
    flows = [
        FlowSpec(
            flow_id=i + 1,
            source=source,
            traffic=PoissonTraffic(rate=rate),
            n_packets=n_packets,
        )
        for i, source in enumerate(sources.values())
    ]
    plan = UniformPlanner(mean_delay).plan(tree, {f.source: rate for f in flows})
    config = SimulationConfig(
        deployment=deployment,
        tree=tree,
        flows=flows,
        delay_plan=plan,
        buffers=BufferSpec(kind="infinite"),
        seed=seed,
    )
    result = run_simulation(config)

    model = QueueTreeModel(
        parent=dict(tree.parent),
        injection_rates={source: rate for source in sources.values()},
        default_service_rate=1.0 / mean_delay,
    )
    s1_path = tree.path(sources["S1"])[:-1]
    hop_positions = [float(i) for i in range(len(s1_path))]
    predicted = [model.mean_occupancy(node) for node in s1_path]
    # The simulator's time average includes the idle warm-up/drain
    # tails; restrict to the busy window by scaling with the fraction
    # of time the node was actually receiving traffic.
    measured = []
    busy_fraction = _busy_fraction(result, n_packets, rate)
    for node in s1_path:
        stats = result.node_stats.get(node)
        measured.append(stats.mean_occupancy / busy_fraction if stats else 0.0)
    table = ExperimentTable(
        title=(
            "Section 4 tree model vs WSN simulator, S1 path "
            f"(1/lambda={interarrival:g}, 1/mu={mean_delay:g})"
        ),
        x_label="hop index (0 = S1)",
        y_label="mean buffer occupancy",
    )
    table.add(ExperimentSeries("QueueTreeModel rho_i", hop_positions, predicted))
    table.add(ExperimentSeries("simulated occupancy", hop_positions, measured))
    return table


def _busy_fraction(result, n_packets: int, rate: float) -> float:
    """Fraction of the run during which sources were still injecting."""
    injection_span = n_packets / rate
    return min(injection_span / result.end_time, 1.0) if result.end_time > 0 else 1.0
