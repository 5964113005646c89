"""Integration tests: the simulator under injected faults.

Every run here also exercises the invariant auditor implicitly -- the
simulator audits each finished run and raises on any accounting error,
so a green test is also a certificate of packet conservation.
"""

import dataclasses

import pytest

from repro.faults import (
    ArqSpec,
    BurstyLossSpec,
    CrashWindow,
    DuplicationSpec,
    FaultPlan,
    JitterSpec,
)
from repro.sim.config import SimulationConfig
from repro.sim.simulator import SensorNetworkSimulator


def _config(n_packets=50, seed=11, **overrides):
    config = SimulationConfig.paper_baseline(
        interarrival=4.0, case="rcad", n_packets=n_packets, seed=seed
    )
    return dataclasses.replace(config, **overrides) if overrides else config


def _created(config):
    return sum(flow.n_packets for flow in config.flows)


def _conserved(config, result):
    return (
        result.delivered_count()
        + result.drop_count()
        + result.lost_in_transit
        + result.stranded_in_buffer
        == _created(config)
    )


def _ge_loss(intensity=1.0):
    return BurstyLossSpec(
        p_good_to_bad=0.05 * intensity, p_bad_to_good=0.25, loss_bad=0.6 * intensity
    )


def _trunk_parent(config, flow_index=0):
    return config.tree.parent[config.flows[flow_index].source]


class TestNoopEquivalence:
    """A no-op plan must be *bit-identical* to no plan at all."""

    def test_noop_plan_matches_unfaulted_run(self):
        baseline = SensorNetworkSimulator(_config()).run()
        noop = FaultPlan(
            bursty_loss=BurstyLossSpec(0.0, 0.5, loss_bad=0.9),
            jitter=JitterSpec(0.0),
            duplication=DuplicationSpec(0.0),
        )
        assert noop.is_noop
        faulted = SensorNetworkSimulator(_config().with_faults(noop)).run()
        assert faulted.delivery == baseline.delivery
        assert faulted.end_time == baseline.end_time
        assert faulted.total_retransmissions() == 0
        assert faulted.lost_in_transit == 0


class TestBurstyLoss:
    def test_ge_loss_conserves_packets(self):
        config = _config().with_faults(FaultPlan(bursty_loss=_ge_loss()))
        result = SensorNetworkSimulator(config).run()
        assert result.lost_in_transit > 0
        assert _conserved(config, result)

    def test_per_node_losses_partition_the_total(self):
        config = _config().with_faults(FaultPlan(bursty_loss=_ge_loss()))
        result = SensorNetworkSimulator(config).run()
        by_node = result.loss_by_node()
        assert sum(by_node.values()) == result.lost_in_transit
        assert all(count > 0 for count in by_node.values())

    def test_reproducible_given_seed(self):
        plan = FaultPlan(bursty_loss=_ge_loss(), jitter=JitterSpec(0.4))
        a = SensorNetworkSimulator(_config().with_faults(plan)).run()
        b = SensorNetworkSimulator(_config().with_faults(plan)).run()
        assert a.delivery.arrival_time.tolist() == b.delivery.arrival_time.tolist()
        assert a.lost_in_transit == b.lost_in_transit


class TestJitter:
    def test_jitter_perturbs_arrivals_without_losing_packets(self):
        baseline = SensorNetworkSimulator(_config()).run()
        config = _config().with_faults(FaultPlan(jitter=JitterSpec(0.5)))
        result = SensorNetworkSimulator(config).run()
        assert result.delivered_count() == baseline.delivered_count()
        assert result.lost_in_transit == 0
        arrivals = result.delivery.arrival_time.tolist()
        assert arrivals != baseline.delivery.arrival_time.tolist()


class TestDuplication:
    def test_duplicates_suppressed_and_delivery_unaffected(self):
        baseline = SensorNetworkSimulator(_config()).run()
        config = _config().with_faults(
            FaultPlan(duplication=DuplicationSpec(probability=0.2))
        )
        result = SensorNetworkSimulator(config).run()
        assert result.duplicates_suppressed > 0
        # Every unique packet still arrives exactly once.
        assert result.delivered_count() == baseline.delivered_count()


class TestArq:
    def test_arq_on_clean_link_never_retransmits(self):
        config = _config().with_faults(FaultPlan(arq=ArqSpec(timeout=4.0)))
        result = SensorNetworkSimulator(config).run()
        assert result.total_retransmissions() == 0
        assert result.delivered_count() == _created(config)

    def test_arq_recovers_bursty_loss(self):
        lossy = _config().with_faults(FaultPlan(bursty_loss=_ge_loss()))
        repaired = _config().with_faults(
            FaultPlan(bursty_loss=_ge_loss(), arq=ArqSpec(timeout=4.0, max_retries=4))
        )
        without = SensorNetworkSimulator(lossy).run()
        with_arq = SensorNetworkSimulator(repaired).run()
        assert with_arq.total_retransmissions() > 0
        assert with_arq.delivered_count() > without.delivered_count()
        assert with_arq.lost_in_transit < without.lost_in_transit
        assert _conserved(repaired, with_arq)

    def test_retransmission_log_is_adversary_grade(self):
        """Each entry is a (time, sender, receiver) emission in-range."""
        config = _config().with_faults(
            FaultPlan(bursty_loss=_ge_loss(), arq=ArqSpec(timeout=4.0, max_retries=4))
        )
        result = SensorNetworkSimulator(config).run()
        nodes = set(config.deployment.node_ids)
        assert result.retransmissions
        for time, sender, receiver in result.retransmissions:
            assert 0.0 <= time <= result.end_time
            assert sender in nodes and receiver in nodes
        per_node = sum(s.retransmissions for s in result.node_stats.values())
        assert per_node == result.total_retransmissions()

    def test_exhausted_retries_count_as_loss(self):
        # A brutal channel with a single retry: some hops must abandon.
        plan = FaultPlan(
            bursty_loss=BurstyLossSpec(0.3, 0.1, loss_bad=0.95),
            arq=ArqSpec(timeout=4.0, max_retries=1),
        )
        config = _config().with_faults(plan)
        result = SensorNetworkSimulator(config).run()
        assert result.arq_failed > 0
        assert result.arq_failed <= result.lost_in_transit
        assert _conserved(config, result)


class TestCrashes:
    def test_crash_with_recovery_strands_nothing(self):
        config = _config()
        plan = FaultPlan(
            crashes=(CrashWindow(node=_trunk_parent(config), start=60.0, end=130.0),)
        )
        config = config.with_faults(plan)
        result = SensorNetworkSimulator(config).run()
        assert result.stranded_in_buffer == 0
        assert _conserved(config, result)

    def test_permanent_crash_strands_frozen_buffer(self):
        config = _config()
        plan = FaultPlan(
            crashes=(CrashWindow(node=_trunk_parent(config), start=60.0),)
        )
        config = config.with_faults(plan)
        result = SensorNetworkSimulator(config).run()
        assert result.stranded_in_buffer > 0
        assert _conserved(config, result)

    def test_failover_reroutes_around_crashed_parent(self):
        """Most traffic survives a mid-run trunk crash via backup parents."""
        config = _config(record_packet_traces=True)
        plan = FaultPlan(
            crashes=(CrashWindow(node=_trunk_parent(config), start=60.0, end=130.0),)
        )
        config = config.with_faults(plan)
        result = SensorNetworkSimulator(config).run()
        kinds = {
            event.kind
            for trace in result.packet_traces.values()
            for event in trace.events
        }
        assert "failover" in kinds
        assert result.delivered_count() > 0.9 * _created(config)

    def test_blackholed_packets_are_counted_losses(self):
        """Copies sent to a crashed hop with no backup vanish as losses."""
        config = _config()
        plan = FaultPlan(
            crashes=(CrashWindow(node=_trunk_parent(config), start=60.0, end=130.0),)
        )
        config = config.with_faults(plan)
        result = SensorNetworkSimulator(config).run()
        assert result.crash_blackholed <= result.lost_in_transit
        assert _conserved(config, result)


class TestCombinedChaos:
    def test_all_families_at_once_conserve(self):
        config = _config()
        plan = FaultPlan(
            bursty_loss=_ge_loss(0.5),
            jitter=JitterSpec(0.5),
            duplication=DuplicationSpec(0.05),
            crashes=(CrashWindow(node=_trunk_parent(config), start=60.0, end=130.0),),
            arq=ArqSpec(timeout=4.0, max_retries=4),
        )
        config = config.with_faults(plan)
        result = SensorNetworkSimulator(config).run()
        assert _conserved(config, result)
        assert result.delivered_count() > 0


class TestFaultConfigValidation:
    def test_sink_cannot_crash(self):
        config = _config()
        plan = FaultPlan(crashes=(CrashWindow(node=config.tree.sink, start=1.0),))
        with pytest.raises(ValueError):
            config.with_faults(plan)

    def test_crash_node_must_be_deployed(self):
        plan = FaultPlan(crashes=(CrashWindow(node=10_000, start=1.0),))
        with pytest.raises(ValueError):
            _config().with_faults(plan)

    def test_arq_timeout_must_exceed_round_trip(self):
        plan = FaultPlan(arq=ArqSpec(timeout=1.5))  # 2 * tau == 2.0
        with pytest.raises(ValueError):
            _config().with_faults(plan)
