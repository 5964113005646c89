"""Per-node replay: each node's buffer trace re-run through the core.

The event engine drives one :class:`~repro.core.privacy_core.\
TemporalPrivacyCore` per node.  Feeding a node's traced arrivals, with
the release times the run drew, into a fresh core over
:class:`~repro.core.buffers.RcadBuffer` must reproduce that node's
departures (``forwarded`` trace events) and its victims (``preempted``
events), packet for packet.

The sources are Poisson, so no two arrivals at one node share a time:
traces keep each packet's events but not the engine's order between
same-time events of different packets, which decides a tied replay.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import replace

import pytest

from repro.core.buffers import RcadBuffer
from repro.core.privacy_core import TemporalPrivacyCore
from repro.core.victim import OldestArrival, ShortestRemainingDelay
from repro.sim.config import SimulationConfig
from repro.sim.simulator import SensorNetworkSimulator

CAPACITY = 3


def _node_events(result):
    """``{node: {kind: [(time, detail, packet key), ...]}}``, time-sorted."""
    events = defaultdict(lambda: defaultdict(list))
    for key, trace in result.packet_traces.items():
        for event in trace.events:
            if event.kind in ("buffered", "forwarded", "preempted"):
                events[event.node][event.kind].append((event.time, event.detail, key))
    for kinds in events.values():
        for rows in kinds.values():
            rows.sort(key=lambda row: row[0])
    return events


def _replay(capacity, policy, buffered):
    """Departures ``[(time, key)]`` and victims ``[(time, release, key)]``."""
    core = TemporalPrivacyCore(RcadBuffer(capacity, victim_policy=policy))
    departures, victims = [], []
    for now, release, key in buffered:
        departures.extend((e.release_time, e.payload) for e in core.poll_due(now))
        decision = core.offer(key, now, delay=release - now)
        if decision.victim is not None:
            victim = decision.victim
            departures.append((now, victim.payload))
            victims.append((now, victim.release_time, victim.payload))
    departures.extend((e.release_time, e.payload) for e in core.poll_due(math.inf))
    return departures, victims


@pytest.mark.parametrize("policy", [ShortestRemainingDelay(), OldestArrival()])
def test_each_node_replays_its_trace(policy):
    config = replace(
        SimulationConfig.paper_baseline(
            interarrival=2.0, case="rcad", n_packets=40,
            buffer_capacity=CAPACITY, victim_policy=policy, traffic="poisson",
        ),
        record_packet_traces=True,
    )
    events = _node_events(SensorNetworkSimulator(config).run())
    preempting_nodes = 0
    for node, kinds in events.items():
        buffered = kinds["buffered"]
        times = [now for now, _, _ in buffered]
        assert len(set(times)) == len(times), f"node {node}: tied arrivals"
        departures, victims = _replay(CAPACITY, policy, buffered)

        forwarded = kinds["forwarded"]
        assert [key for _, key in departures] == [key for _, _, key in forwarded]
        assert [t for t, _ in departures] == pytest.approx(
            [t for t, _, _ in forwarded], rel=1e-12
        )

        preempted = kinds["preempted"]
        assert [key for _, _, key in victims] == [key for _, _, key in preempted]
        assert [(t, r) for t, r, _ in victims] == pytest.approx(
            [(t, r) for t, r, _ in preempted], rel=1e-12
        )
        preempting_nodes += bool(victims)
    assert preempting_nodes >= 3
