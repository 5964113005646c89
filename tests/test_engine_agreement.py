"""The fast path and the event engine agree on generated scenarios.

The golden digests pin both engines to the paper-era configurations
only.  This property test draws small :class:`ScenarioSpec`\\ s instead
-- grid and random-geometric topologies of up to ~40 nodes, one to four
sources, Poisson / on-off / periodic traffic, mixed per-node buffer
capacities, and each defense the fast path replays -- and runs every
compiled cell on both engines (``REPRO_FASTPATH=0`` forces the event
engine).  The two runs must produce the same observable digest, and
each must pass the conservation auditor.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.audit import InvariantAuditor
from repro.scenarios.spec import (
    CapacitySpec,
    DefenseSpec,
    ScenarioSpec,
    SourceSpec,
    TopologySpec,
    TrafficSpec,
)
from repro.sim import fastpath
from repro.sim.fastpath import fastpath_eligible
from repro.sim.observables import observable_digest
from repro.sim.simulator import SensorNetworkSimulator

FASTPATH_DEFENSES = ("rcad", "drop-tail", "infinite", "proportional-delay")


@st.composite
def topologies(draw):
    if draw(st.booleans()):
        width = draw(st.integers(min_value=2, max_value=6))
        height = draw(st.integers(min_value=1, max_value=6))
        return TopologySpec(family="grid", width=width, height=height)
    n_nodes = draw(st.integers(min_value=5, max_value=40))
    # Dense enough that a connected placement comes within a few draws.
    return TopologySpec(
        family="random-geometric",
        n_nodes=n_nodes,
        area_side=0.8 * math.sqrt(n_nodes),
        radio_range=draw(st.floats(min_value=1.6, max_value=2.5)),
        seed=draw(st.integers(min_value=0, max_value=1000)),
    )


@st.composite
def scenarios(draw):
    topology = draw(topologies())
    n_sources = draw(st.integers(min_value=1, max_value=min(4, topology.size - 1)))
    traffic = tuple(
        TrafficSpec(
            model=draw(st.sampled_from(("poisson", "onoff", "periodic"))),
            interarrival=draw(st.floats(min_value=0.5, max_value=12.0)),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    )
    mean_delay = draw(st.floats(min_value=1.0, max_value=40.0))
    defense = draw(st.sampled_from(FASTPATH_DEFENSES))
    params = {"mean_delay": mean_delay}
    if defense == "proportional-delay":
        params["exponent"] = draw(st.floats(min_value=0.0, max_value=2.0))
    return ScenarioSpec(
        name="generated",
        topology=topology,
        sources=SourceSpec(
            count=n_sources,
            placement=draw(st.sampled_from(("far", "spread", "random"))),
            seed=draw(st.integers(min_value=0, max_value=1000)),
        ),
        traffic=traffic,
        capacity=CapacitySpec(
            base=draw(st.integers(min_value=1, max_value=8)),
            spread=draw(st.integers(min_value=0, max_value=3)),
            seed=draw(st.integers(min_value=0, max_value=1000)),
        ),
        defenses=(DefenseSpec(name=defense, params=params),),
        n_packets=draw(st.integers(min_value=1, max_value=50)),
        seeds=(draw(st.integers(min_value=0, max_value=10_000)),),
    )


def _run(config):
    sim = SensorNetworkSimulator(config)
    result = sim.run()
    InvariantAuditor(sim._counters).audit(result)
    return result


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=scenarios())
def test_fast_path_matches_event_engine(spec):
    replays = []

    def spy(sim):
        replays.append(sim)
        return run_fastpath(sim)

    run_fastpath = fastpath.run_fastpath
    for cell in spec.compile():
        config = cell.config
        assert fastpath_eligible(config), cell.scenario_id
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fastpath, "run_fastpath", spy)
            patch.delenv("REPRO_FASTPATH", raising=False)
            fast = _run(config)
            patch.setenv("REPRO_FASTPATH", "0")
            event = _run(config)
        assert len(replays) == 1  # one run per engine
        replays.clear()
        assert fast.events_processed == event.events_processed
        assert observable_digest(fast) == observable_digest(event), spec
