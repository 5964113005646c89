"""The workloads and the inputs each one builds from ``--seed``.

The program under test never sees ``--seed``: every input it gets (the
fig2 ``--seed`` value, simulation seeds, arrival schedules and delay
seeds) is derived here from the benchmark seed and the workload family,
so the same seed always builds the same inputs.

Module level is standard library only; functions that need the
program import it when called.
"""

from __future__ import annotations

import random

#: workload name -> family.  The family says what one operation is: a
#: ``repro fig2`` command, one pass over a scenario suite, or one event
#: offered to the streaming service.
WORKLOADS = {
    "fig2-cold": "fig2",
    "fig2-warm": "fig2",
    "fig2-jobs2": "fig2",
    "scenarios-fastpath": "scenarios",
    "scenarios-event": "scenarios",
    "service-openloop": "service",
}

#: Cells in the grid a default ``repro fig2`` runs: 3 cases x 10 loads.
FIG2_CELLS = 30

#: The streaming service under test and the load offered to it.  The
#: global bound sits above the 4 x 256 slots, so a saturated shard
#: preempts (RCAD backpressure) and no event is ever shed.
SERVICE_CONFIG = dict(
    shards=4, shard_capacity=256, max_buffered_total=2048, mean_delay=0.05
)
SERVICE_FLOWS = 8
STEADY_RATE = 6000.0  # events/s, about a third of the measured capacity
STEADY_SHARE = 0.45  # of the run spent in the steady phase
BURST_RATE = 40000.0  # events/s offered during a saturating burst
BURST_EVENTS = 10000
MIN_BURSTS = 5


def derived_seed(family: str, seed: int, stream: str = "") -> int:
    """A program-side seed for one input stream of one workload family."""
    return random.Random(f"{family}/{stream}/{seed}").randrange(2**31)


def fig2_jobs(workload: str) -> int:
    return 2 if workload == "fig2-jobs2" else 1


def fig2_argv(workload: str, seed: int, cache_dir: str, json_path: str) -> list[str]:
    """``repro fig2`` arguments for one operation of a fig2 workload."""
    argv = [
        "fig2", "--seed", str(derived_seed("fig2", seed)),
        "--cache-dir", cache_dir, "--json", json_path,
    ]
    jobs = fig2_jobs(workload)
    if jobs > 1:
        argv += ["--jobs", str(jobs)]
    return argv


def scenario_suite(workload: str, seed: int) -> list:
    """The scenario specs one pass of a scenario workload runs.

    The networks and source placements are fixed; the seed draws the
    simulations' traffic, delays and victims.  So every seed asks for
    the same amount of work, and a rate measured on one seed compares
    with a rate measured on another.
    """
    from repro.scenarios.spec import (
        DefenseSpec,
        ScenarioSpec,
        SourceSpec,
        TopologySpec,
        TrafficSpec,
    )

    sim_seeds = (derived_seed("scenarios", seed, workload),)
    if workload == "scenarios-fastpath":
        defenses = tuple(
            DefenseSpec(name=name)
            for name in (
                "rcad", "drop-tail", "proportional-delay", "infinite",
                "no-delay", "jittered-delay",
            )
        )
        traffic = tuple(
            TrafficSpec(model=model, interarrival=8.0)
            for model in ("poisson", "onoff", "periodic")
        )
        return [
            ScenarioSpec(
                name="rg-1000",
                topology=TopologySpec(
                    family="random-geometric", n_nodes=1000, area_side=30.0,
                    radio_range=2.0,
                ),
                sources=SourceSpec(count=8, placement="spread"),
                traffic=traffic,
                defenses=defenses,
                n_packets=1000,
                seeds=sim_seeds,
            ),
            ScenarioSpec(
                name="grid-32x32",
                topology=TopologySpec(family="grid", width=32, height=32),
                sources=SourceSpec(count=8, placement="spread"),
                traffic=traffic,
                defenses=defenses,
                n_packets=1000,
                seeds=sim_seeds,
            ),
        ]
    if workload == "scenarios-event":
        defenses = (
            DefenseSpec(name="phantom", params={"walk_length": 3}),
            DefenseSpec(
                name="rcad", params={"victim": "oldest-arrival"}, label="rcad-oldest"
            ),
            DefenseSpec(name="rcad", params={"victim": "random"}, label="rcad-random"),
        )
        return [
            ScenarioSpec(
                name=f"grid-12x12-ia{interarrival:g}",
                topology=TopologySpec(family="grid", width=12, height=12),
                sources=SourceSpec(count=4, placement="spread"),
                traffic=(TrafficSpec(model="poisson", interarrival=interarrival),),
                defenses=defenses,
                n_packets=400,
                seeds=sim_seeds,
            )
            for interarrival in (2.0, 4.0)
        ]
    raise ValueError(f"{workload!r} is not a scenario workload")


def service_schedules(seed: int, seconds: float):
    """``(steady, bursts)``: due offsets in seconds from each phase's start.

    The runner offers bursts until its time is up, at least
    ``MIN_BURSTS`` of them.  A burst lasts its 0.25 s of offered load
    plus the drain of its longest delay (~0.5 s), so the list is longer
    than any run can use.
    """
    import numpy as np

    rng = np.random.default_rng(derived_seed("service", seed, "arrivals"))
    n_steady = int(STEADY_RATE * STEADY_SHARE * seconds)
    steady = np.cumsum(rng.exponential(1.0 / STEADY_RATE, n_steady))
    bursts = [
        np.cumsum(rng.exponential(1.0 / BURST_RATE, BURST_EVENTS))
        for _ in range(MIN_BURSTS + int(2 * seconds))
    ]
    return steady, bursts
