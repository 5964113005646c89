"""Run scenario matrices on the supervised parallel runtime.

:func:`run_suite` flattens a list of :class:`ScenarioSpec` into
self-contained cells -- one per (scenario, defense, seed) -- and maps
:func:`scenario_cell` over them with :func:`repro.analysis.sweep.sweep`,
so the ambient runtime supplies parallelism, the result cache, retries
and journal resume exactly as it does for the figure drivers.  Each
cell carries the *serialized* spec and recompiles its own combination:
cells stay pure JSON (journals and the fabric's grid round-trip them)
and ``scenario_cell`` is a module-level importable, so remote ``repro
worker --connect`` processes can join a scenario sweep too.

Scoring follows the paper's evaluation: the defense advertises its mean
per-hop delay and buffer capacity, the matching baseline adversary
estimates every delivered packet's creation time from its arrival time
and hop count, and the scenario's privacy is the MSE of those estimates
over all flows.  Latency/delivery come from the same runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.sweep import sweep
from repro.core.adversary import BaselineAdversary, FlowKnowledge, NaiveAdversary
from repro.core.metrics import LatencyStats
from repro.infotheory.mmse import mse_of_estimator
from repro.runtime.context import current_runtime, run_simulation
from repro.scenarios.spec import CompiledScenario, ScenarioSpec

__all__ = [
    "ScenarioSummary",
    "scenario_cells",
    "scenario_cell",
    "run_suite",
    "render_summaries",
    "summaries_to_dict",
]


@dataclass(frozen=True)
class ScenarioSummary:
    """Per-(scenario, defense, seed) outcome of a matrix run."""

    scenario: str
    family: str
    n_nodes: int
    defense: str
    seed: int
    mse: float
    rmse: float
    mean_latency: float
    p95_latency: float
    delivery_rate: float
    delivered: int
    expected: int
    drops: int
    preemptions: int

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "family": self.family,
            "n_nodes": self.n_nodes,
            "defense": self.defense,
            "seed": self.seed,
            "mse": self.mse,
            "rmse": self.rmse,
            "mean_latency": self.mean_latency,
            "p95_latency": self.p95_latency,
            "delivery_rate": self.delivery_rate,
            "delivered": self.delivered,
            "expected": self.expected,
            "drops": self.drops,
            "preemptions": self.preemptions,
        }


def scenario_cells(specs: Sequence[ScenarioSpec]) -> list[dict]:
    """The flattened (scenario x defense x seed) matrix, as JSON cells.

    Every cell embeds the whole serialized spec plus the indices of its
    own combination, so :func:`scenario_cell` can recompile it from the
    cell alone -- the property that makes cells journal-, cache- and
    fabric-portable.
    """
    cells: list[dict] = []
    for spec in specs:
        data = spec.to_dict()
        for defense_index in range(len(spec.defenses)):
            for seed in spec.seeds:
                cells.append(
                    {
                        "spec": data,
                        "defense_index": int(defense_index),
                        "seed": int(seed),
                    }
                )
    return cells


def scenario_cell(cell: Mapping) -> dict:
    """Run and score one matrix cell; returns a JSON summary dict."""
    spec = ScenarioSpec.from_dict(cell["spec"])
    (compiled,) = spec.compile(
        defense_indices=[int(cell["defense_index"])],
        seeds=[int(cell["seed"])],
    )
    return _run_compiled(compiled)


def _score(compiled: CompiledScenario, result) -> tuple[float, float, float]:
    """(mse, mean latency, p95 latency) over all delivered packets.

    The adversary gets exactly what the defense advertises: with no
    advertised delay it falls back to the naive arrival-time estimator,
    as in the paper's case-1 evaluation.
    """
    knowledge = FlowKnowledge(
        transmission_delay=compiled.config.transmission_delay,
        mean_delay_per_hop=compiled.advertised_mean_delay,
        buffer_capacity=compiled.advertised_capacity,
        n_sources=len(compiled.config.flows),
    )
    adversary = (
        BaselineAdversary(knowledge)
        if compiled.advertised_mean_delay > 0
        else NaiveAdversary(knowledge)
    )
    delivery = result.delivery
    estimates = adversary.estimate_all(delivery)
    # Score over *all* flows jointly (summarize_flow is single-flow):
    # the scenario-level privacy figure is the adversary's MSE over
    # every delivered packet in the network.
    mse = mse_of_estimator(delivery.created_at, estimates)
    latency = LatencyStats.from_samples(delivery.latency())
    return mse, latency.mean, latency.p95


def _run_compiled(compiled: CompiledScenario) -> dict:
    result = run_simulation(compiled.config)
    expected = sum(flow.n_packets for flow in compiled.config.flows)
    delivered = len(result.delivery)
    if delivered:
        mse, mean_latency, p95_latency = _score(compiled, result)
    else:  # a defense that drops everything still yields a summary row
        mse = mean_latency = p95_latency = float("nan")
    summary = {
        "scenario": compiled.scenario,
        "family": compiled.family,
        "n_nodes": int(compiled.n_nodes),
        "defense": compiled.defense,
        "seed": int(compiled.seed),
        "mse": float(mse),
        "rmse": float(mse) ** 0.5 if delivered else float("nan"),
        "mean_latency": float(mean_latency),
        "p95_latency": float(p95_latency),
        "delivery_rate": delivered / expected if expected else 0.0,
        "delivered": int(delivered),
        "expected": int(expected),
        "drops": int(result.drop_count()),
        "preemptions": int(result.total_preemptions()),
    }
    _publish_summary_telemetry(compiled, summary)
    return summary


def _publish_summary_telemetry(compiled: CompiledScenario, summary: dict) -> None:
    """Publish the scored summary as gauges under ``scenario/<id>``.

    Runs *after* ``run_simulation`` published the underlying run's own
    telemetry, inside the same capture, so the manifest's run order is
    identical between serial and ``--jobs N`` executions.
    """
    context = current_runtime()
    if context.telemetry is None:
        return
    from repro.telemetry import RunTelemetry

    run = RunTelemetry()
    registry = run.registry
    for name in ("mse", "mean_latency", "p95_latency", "delivery_rate"):
        registry.gauge(f"scenario/{name}").set(summary[name])
    registry.counter("scenario/delivered").inc(summary["delivered"])
    registry.counter("scenario/drops").inc(summary["drops"])
    registry.counter("scenario/preemptions").inc(summary["preemptions"])
    context.telemetry.add_run(f"scenario/{compiled.scenario_id}", run)


def run_suite(specs: Sequence[ScenarioSpec]) -> list[ScenarioSummary]:
    """Run every (scenario, defense, seed) cell through the runtime."""
    cells = scenario_cells(specs)
    values = sweep(cells, scenario_cell)
    summaries: list[ScenarioSummary] = []
    for value in values:
        if value is None:  # quarantined cell under --quarantine
            continue
        summaries.append(ScenarioSummary(**value))
    return summaries


def summaries_to_dict(summaries: Sequence[ScenarioSummary]) -> dict:
    """JSON export payload for ``repro scenarios --json``."""
    return {"summaries": [s.to_dict() for s in summaries]}


def render_summaries(summaries: Sequence[ScenarioSummary]) -> str:
    """One fixed-width table per scenario, defenses as rows."""
    if not summaries:
        return "(no scenario cells completed)"
    lines: list[str] = []
    header = (
        f"{'defense':<22} {'seed':>4} {'mse':>12} {'latency':>9} "
        f"{'p95':>9} {'delivery':>8} {'drops':>6} {'preempt':>8}"
    )
    seen: list[str] = []
    for summary in summaries:
        if summary.scenario not in seen:
            seen.append(summary.scenario)
    for scenario in seen:
        rows = [s for s in summaries if s.scenario == scenario]
        first = rows[0]
        if lines:
            lines.append("")
        lines.append(
            f"# scenario {scenario} ({first.family}, {first.n_nodes} nodes)"
        )
        lines.append(header)
        for row in rows:
            lines.append(
                f"{row.defense:<22} {row.seed:>4} {row.mse:>12,.1f} "
                f"{row.mean_latency:>9.2f} {row.p95_latency:>9.2f} "
                f"{row.delivery_rate:>7.1%} {row.drops:>6} "
                f"{row.preemptions:>8}"
            )
    return "\n".join(lines)
