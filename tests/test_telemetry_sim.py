"""Simulator-level telemetry: probes, series, and queueing cross-checks."""

import dataclasses

import pytest

from repro.queueing.mminf import MMInfinityQueue
from repro.queueing.mmkk import MMkkQueue
from repro.sim.config import SimulationConfig
from repro.sim.simulator import SensorNetworkSimulator


def _run(interarrival=10.0, case="rcad", n_packets=400, seed=0,
         telemetry=True, traffic="poisson"):
    config = SimulationConfig.paper_baseline(
        interarrival=interarrival,
        case=case,
        n_packets=n_packets,
        seed=seed,
        traffic=traffic,
    )
    if telemetry:
        config = dataclasses.replace(config, record_telemetry=True)
    return SensorNetworkSimulator(config).run()


class TestTelemetryOffByDefault:
    def test_result_has_no_telemetry_by_default(self):
        result = _run(n_packets=50, telemetry=False)
        assert result.telemetry is None

    def test_instrumentation_does_not_change_results(self):
        """Probes observe; they must never perturb the simulation."""
        plain = _run(n_packets=100, telemetry=False)
        instrumented = _run(n_packets=100, telemetry=True)
        latencies = plain.delivery.latency().tolist()
        assert latencies == instrumented.delivery.latency().tolist()
        assert plain.total_preemptions() == instrumented.total_preemptions()


class TestRecordedSeries:
    def test_per_node_occupancy_series_exist(self):
        result = _run(n_packets=100)
        names = result.telemetry.series.names()
        occupancy = [n for n in names if n.startswith("occupancy/")]
        assert occupancy  # every buffering node that saw traffic has one

    def test_counters_agree_with_result(self):
        result = _run(n_packets=100)
        counters = result.telemetry.registry.snapshot()["counters"]
        assert counters["sim/delivered"] == len(result.delivery)
        assert counters["sim/preempted"] == result.total_preemptions()
        assert counters.get("sim/dropped", 0) == result.drop_count()
        # Conservation: everything admitted is eventually released.
        assert counters["sim/released"] == counters["sim/admitted"]

    def test_latency_histogram_matches_records(self):
        result = _run(n_packets=100)
        hist = result.telemetry.registry.histogram("latency/flow-1")
        flow1 = result.delivery.latency()[result.delivery.flow_id == 1].tolist()
        assert hist.count == len(flow1)
        assert hist.sum == pytest.approx(sum(flow1))
        assert hist.min == pytest.approx(min(flow1))
        assert hist.max == pytest.approx(max(flow1))

    def test_engine_counters_present(self):
        result = _run(n_packets=100)
        counters = result.telemetry.registry.snapshot()["counters"]
        assert counters["des/events-processed"] > 0
        assert counters["des/events-scheduled"] >= counters["des/events-processed"]
        # Under RCAD every preemption cancels the victim's release event.
        assert counters["des/events-skipped"] == counters["sim/preempted"]

    def test_occupancy_average_matches_node_stats_exactly(self):
        """The telemetry series and NodeStats integrate the same path."""
        result = _run(n_packets=200)
        checked = 0
        for node, stats in result.node_stats.items():
            series = result.telemetry.series.get(f"occupancy/node-{node}")
            if series is None or stats.observation_time <= 0:
                continue
            measured = series.time_average(0.0, stats.observation_time)
            assert measured == pytest.approx(stats.mean_occupancy, rel=1e-9)
            checked += 1
        assert checked > 0


class TestQueueingCrossChecks:
    def test_unlimited_occupancy_matches_mm_infinity(self):
        """Poisson sources + infinite buffers: occupancy -> rho = lambda/mu.

        Node 103 (source S1) also forwards S2's flow, so it carries
        lambda = 2/interarrival; with 1/mu = 30 the predicted mean
        occupancy is rho = 2 * 30 / interarrival.
        """
        interarrival = 10.0
        result = _run(
            interarrival=interarrival, case="unlimited", n_packets=3000, seed=0
        )
        predicted = MMInfinityQueue(
            arrival_rate=2.0 / interarrival, service_rate=1.0 / 30.0
        ).mean_occupancy
        series = result.telemetry.series.get("occupancy/node-103")
        horizon = 3000 * interarrival
        measured = series.time_average(300.0, horizon * 0.95)
        assert measured == pytest.approx(predicted, rel=0.10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rcad_occupancy_matches_mmkk_within_10pct(self, seed):
        """ISSUE acceptance: S1-path occupancy vs the M/M/k/k prediction.

        At 1/lambda = 10 the trunk node 103 sees lambda = 0.2 (its own
        flow plus S2's), rho = 6 on k = 10 slots -- a moderate load
        where RCAD's preemption bias stays small.
        """
        interarrival = 10.0
        result = _run(
            interarrival=interarrival, case="rcad", n_packets=3000, seed=seed
        )
        predicted = MMkkQueue(
            arrival_rate=2.0 / interarrival, service_rate=1.0 / 30.0, capacity=10
        ).mean_occupancy
        series = result.telemetry.series.get("occupancy/node-103")
        horizon = 3000 * interarrival
        measured = series.time_average(300.0, horizon * 0.95)
        assert measured == pytest.approx(predicted, rel=0.10)

    def test_occupancy_never_exceeds_capacity(self):
        result = _run(n_packets=300)
        for name in result.telemetry.series.names():
            if name.startswith("occupancy/"):
                series = result.telemetry.series.get(name)
                assert max(series.values, default=0.0) <= 10.0
