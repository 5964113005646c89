"""Tests for per-packet lifecycle tracing."""

import pytest

from repro.core.planner import UniformPlanner
from repro.net.routing import shortest_path_tree
from repro.net.topology import line_deployment
from repro.sim.config import BufferSpec, FlowSpec, SimulationConfig
from repro.sim.simulator import SensorNetworkSimulator
from repro.sim.tracing import PacketTrace, TraceEvent
from repro.traffic.generators import PeriodicTraffic


def _run(case="unlimited", hops=3, n_packets=20, interval=5.0, capacity=2,
         trace=True, seed=2):
    deployment = line_deployment(hops=hops)
    tree = shortest_path_tree(deployment)
    if case == "no-delay":
        plan, buffers = None, BufferSpec(kind="infinite")
    else:
        plan = UniformPlanner(10.0).plan(tree, {0: 1.0 / interval})
        buffers = (
            BufferSpec(kind=case, capacity=capacity)
            if case in ("rcad", "drop-tail")
            else BufferSpec(kind="infinite")
        )
    config = SimulationConfig(
        deployment=deployment, tree=tree,
        flows=[FlowSpec(flow_id=1, source=0,
                        traffic=PeriodicTraffic(interval), n_packets=n_packets)],
        delay_plan=plan, buffers=buffers,
        record_packet_traces=trace, seed=seed,
    )
    return SensorNetworkSimulator(config).run()


def _records(result):
    """``((flow_id, packet_id), latency, preemptions)`` per delivery."""
    log = result.delivery
    keys = zip(log.flow_id.tolist(), log.packet_id.tolist())
    return zip(keys, log.latency().tolist(), log.preemptions.tolist())


class TestTraceEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TraceEvent(time=0.0, kind="teleported", node=1)

    def test_unknown_kind_rejected_via_add(self):
        """PacketTrace.add validates too (it builds a TraceEvent)."""
        trace = PacketTrace(flow_id=1, packet_id=0)
        with pytest.raises(ValueError, match="teleported"):
            trace.add(0.0, "teleported", 0)

    def test_every_documented_kind_accepted(self):
        from repro.sim.tracing import EVENT_KINDS

        for kind in EVENT_KINDS:
            TraceEvent(time=0.0, kind=kind, node=1)

    def test_error_message_lists_legal_kinds(self):
        with pytest.raises(ValueError, match="delivered"):
            TraceEvent(time=0.0, kind="", node=1)

    def test_out_of_order_rejected(self):
        trace = PacketTrace(flow_id=1, packet_id=0)
        trace.add(5.0, "created", 0)
        with pytest.raises(ValueError):
            trace.add(4.0, "forwarded", 0)


class TestRecordedTraces:
    def test_no_traces_by_default(self):
        result = _run(trace=False)
        assert result.packet_traces == {}

    def test_every_packet_traced(self):
        result = _run(n_packets=15)
        assert len(result.packet_traces) == 15
        assert all(t.delivered for t in result.packet_traces.values())

    def test_lifecycle_structure_no_delay(self):
        result = _run(case="no-delay", hops=3, n_packets=1)
        trace = result.packet_traces[(1, 0)]
        kinds = [e.kind for e in trace.events]
        assert kinds == ["created", "forwarded", "forwarded", "forwarded", "delivered"]

    def test_lifecycle_structure_buffered(self):
        result = _run(case="unlimited", hops=2, n_packets=1)
        trace = result.packet_traces[(1, 0)]
        kinds = [e.kind for e in trace.events]
        # Buffered then forwarded at each of the 2 buffering nodes.
        assert kinds == [
            "created", "buffered", "forwarded", "buffered", "forwarded", "delivered",
        ]

    def test_path_matches_line(self):
        result = _run(case="unlimited", hops=3, n_packets=1)
        trace = result.packet_traces[(1, 0)]
        assert trace.path() == [0, 1, 2, 3]

    def test_latency_matches_record(self):
        result = _run(case="unlimited", hops=3, n_packets=5)
        for key, latency, _ in _records(result):
            trace = result.packet_traces[key]
            assert trace.end_to_end_latency() == pytest.approx(latency)

    def test_buffering_delays_sum_to_artificial_latency(self):
        result = _run(case="unlimited", hops=3, n_packets=5)
        for key, latency, _ in _records(result):
            trace = result.packet_traces[key]
            artificial = sum(d for _, d in trace.buffering_delays())
            assert artificial == pytest.approx(latency - 3.0)  # 3 tx

    def test_preemptions_traced(self):
        result = _run(case="rcad", interval=1.0, n_packets=60, capacity=2)
        preempted = [
            t for t in result.packet_traces.values() if t.preemption_count > 0
        ]
        assert preempted
        # Trace-level preemption counts agree with the records.
        for key, _, preemptions in _records(result):
            trace = result.packet_traces[key]
            assert trace.preemption_count == preemptions

    def test_preempted_packet_left_before_scheduled_release(self):
        result = _run(case="rcad", interval=1.0, n_packets=60, capacity=2)
        for trace in result.packet_traces.values():
            for event in trace.events:
                if event.kind == "preempted":
                    # detail = the release time it would have had.
                    assert event.detail > event.time

    def test_dropped_packets_traced(self):
        result = _run(case="drop-tail", interval=1.0, n_packets=60, capacity=2)
        dropped_traces = [
            t for t in result.packet_traces.values()
            if any(e.kind == "dropped" for e in t.events)
        ]
        assert len(dropped_traces) == result.drop_count()
        for trace in dropped_traces:
            assert not trace.delivered
            with pytest.raises(ValueError):
                trace.end_to_end_latency()

    def test_render_mentions_every_event(self):
        result = _run(case="unlimited", hops=2, n_packets=1)
        text = result.packet_traces[(1, 0)].render()
        for kind in ("created", "buffered", "forwarded", "delivered"):
            assert kind in text
