"""Figures 2(a) and 2(b): RCAD effectiveness.

The paper's central result.  Sweep the source inter-arrival time
1/lambda over {2..20} and, for flow S1, measure

* **Figure 2(a)** -- the baseline adversary's MSE on creation times,
  for case 1 (NoDelay), case 2 (Delay & unlimited buffers) and case 3
  (Delay & limited buffers, i.e. RCAD).  Expected shape: cases 1-2
  are small (case 1 exactly zero; case 2 only the delay variance),
  while case 3 is orders of magnitude larger, growing as the traffic
  rate rises and preemption truncates more delays;
* **Figure 2(b)** -- mean end-to-end delivery latency for the same
  three cases.  Expected shape: case 1 lowest (h tau = 15), case 2
  highest (h (tau + 1/mu) = 465), case 3 between them and dropping
  toward case 1 at high traffic (about 2.5x below case 2 at
  1/lambda = 2 in the paper).
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.records import ExperimentSeries, ExperimentTable
from repro.analysis.sweep import sweep
from repro.experiments.common import (
    PAPER_INTERARRIVALS,
    PAPER_N_PACKETS,
    build_adversary,
    run_paper_case,
    score_flow,
)

__all__ = [
    "CASE_LABELS",
    "fig2_cell",
    "fig2_cells",
    "fig2_tables",
    "figure2",
    "figure2_mse",
    "figure2_latency",
]

#: The paper's legend labels, keyed by evaluation case.
CASE_LABELS: dict[str, str] = {
    "no-delay": "NoDelay",
    "unlimited": "Delay&UnlimitedBuffers",
    "rcad": "Delay&LimitedBuffers",
}


def fig2_cells(
    interarrivals: Sequence[float] = PAPER_INTERARRIVALS,
    n_packets: int = PAPER_N_PACKETS,
    seed: int = 0,
    flow_id: int = 1,
) -> list[tuple[str, float, int, int, int]]:
    """The flattened (case, 1/lambda) grid as self-contained cells.

    Every cell carries all of its parameters so :func:`fig2_cell` is an
    importable module-level function (``repro.experiments.fig2:fig2_cell``)
    -- which is what lets ``repro worker --connect`` processes on other
    hosts join a ``repro fig2 --listen`` run of this grid.
    """
    return [
        (case, float(interarrival), int(n_packets), int(seed), int(flow_id))
        for case in CASE_LABELS
        for interarrival in interarrivals
    ]


def fig2_cell(cell: tuple[str, float, int, int, int]) -> tuple[float, float]:
    """Run and score one grid cell: ``(mse, mean_latency)`` for flow S1."""
    case, interarrival, n_packets, seed, flow_id = cell
    result = run_paper_case(
        interarrival=interarrival, case=case, n_packets=n_packets, seed=seed
    )
    metrics = score_flow(
        result, build_adversary("baseline", case), flow_id=flow_id
    )
    return metrics.mse, metrics.latency.mean


def fig2_tables(
    cells: Sequence[tuple[str, float, int, int, int]],
    values: Sequence[tuple[float, float]],
) -> tuple[ExperimentTable, ExperimentTable]:
    """Assemble both Figure 2 panels from per-cell scores.

    Kept apart from :func:`figure2` so a caller holding per-cell values
    from any executor builds the same tables.
    """
    mse_table = ExperimentTable(
        title="Figure 2(a): adversary estimation error, flow S1",
        x_label="1/lambda",
        y_label="mean square error",
    )
    latency_table = ExperimentTable(
        title="Figure 2(b): delivery latency, flow S1",
        x_label="1/lambda",
        y_label="mean end-to-end latency",
    )
    scores = dict(zip([tuple(cell) for cell in cells], values))
    interarrivals: list[float] = []
    for cell in cells:
        if cell[1] not in interarrivals:
            interarrivals.append(cell[1])
    by_case = {cell[0]: cell for cell in cells}
    for case, label in CASE_LABELS.items():
        if case not in by_case:
            continue
        _, _, n_packets, seed, flow_id = by_case[case]
        mse_values = [
            scores[(case, ia, n_packets, seed, flow_id)][0] for ia in interarrivals
        ]
        latency_values = [
            scores[(case, ia, n_packets, seed, flow_id)][1] for ia in interarrivals
        ]
        mse_table.add(ExperimentSeries(label, list(interarrivals), mse_values))
        latency_table.add(ExperimentSeries(label, list(interarrivals), latency_values))
    return mse_table, latency_table


def figure2(
    interarrivals: Sequence[float] = PAPER_INTERARRIVALS,
    n_packets: int = PAPER_N_PACKETS,
    seed: int = 0,
    flow_id: int = 1,
) -> tuple[ExperimentTable, ExperimentTable]:
    """Regenerate both panels of Figure 2 in one sweep.

    Returns ``(mse_table, latency_table)``.  Each simulation is run
    once and scored for both panels, mirroring how the paper derives
    both plots from the same runs.
    """
    # Flatten the (case, 1/lambda) grid into independent cells so the
    # active executor can fan every simulation out at once.
    cells = fig2_cells(interarrivals, n_packets, seed, flow_id)
    return fig2_tables(cells, sweep(cells, fig2_cell))


def figure2_mse(
    interarrivals: Sequence[float] = PAPER_INTERARRIVALS,
    n_packets: int = PAPER_N_PACKETS,
    seed: int = 0,
) -> ExperimentTable:
    """Figure 2(a) only."""
    mse_table, _ = figure2(interarrivals, n_packets, seed)
    return mse_table


def figure2_latency(
    interarrivals: Sequence[float] = PAPER_INTERARRIVALS,
    n_packets: int = PAPER_N_PACKETS,
    seed: int = 0,
) -> ExperimentTable:
    """Figure 2(b) only."""
    _, latency_table = figure2(interarrivals, n_packets, seed)
    return latency_table
