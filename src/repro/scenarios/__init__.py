"""Declarative scenario specs and the matrix runner.

A scenario names a topology family (line / grid / random-geometric),
source placement, a traffic mix, a buffer hardware model and a list of
registry defenses; :func:`run_suite` expands suites of them into
(defense x seed) matrices on the supervised parallel runtime.  See
DESIGN.md §13 and ``repro scenarios --help``.
"""

from repro.scenarios.runner import (
    ScenarioSummary,
    render_summaries,
    run_suite,
    scenario_cell,
    scenario_cells,
    summaries_to_dict,
)
from repro.scenarios.spec import (
    CapacitySpec,
    CompiledScenario,
    DefenseSpec,
    ScenarioSpec,
    SourceSpec,
    TopologySpec,
    TrafficSpec,
    example_suite,
    load_suite,
    parse_suite,
    suite_to_dict,
)

__all__ = [
    "TopologySpec",
    "SourceSpec",
    "TrafficSpec",
    "CapacitySpec",
    "DefenseSpec",
    "ScenarioSpec",
    "CompiledScenario",
    "load_suite",
    "parse_suite",
    "suite_to_dict",
    "example_suite",
    "ScenarioSummary",
    "scenario_cells",
    "scenario_cell",
    "run_suite",
    "render_summaries",
    "summaries_to_dict",
]
