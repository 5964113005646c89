"""Tests for the post-run invariant auditor."""

import pytest

from repro.faults import ConservationCounters, InvariantAuditor, InvariantViolation
from repro.sim.config import SimulationConfig
from repro.sim.results import DeliveryLog, NodeStats, SimulationResult
from repro.sim.simulator import SensorNetworkSimulator


def _delivery(arrivals=(1.0, 2.0, 2.0, 50.0)):
    n = len(arrivals)
    return DeliveryLog(
        arrival_time=arrivals,
        created_at=[0.0] * n,
        flow_id=[1] * n,
        packet_id=range(n),
        routing_seq=range(n),
        hop_count=[1] * n,
        previous_hop=[0] * n,
        origin=[0] * n,
        preemptions=[0] * n,
    )


def _clean_result(end_time=100.0):
    """A minimal result that satisfies every clock check."""
    return SimulationResult(
        delivery=_delivery(),
        end_time=end_time,
        node_stats={
            7: NodeStats(node_id=7, observation_time=end_time,
                         occupancy_time_integral=3.5)
        },
    )


def _balanced_counters(**overrides):
    counters = ConservationCounters(
        created=10, delivered=4, buffer_dropped=3, lost_in_transit=2,
        stranded_in_buffer=1, stranding_nodes={7}, crash_nodes={7},
    )
    for name, value in overrides.items():
        setattr(counters, name, value)
    return counters


class TestConservationChecks:
    def test_balanced_ledger_passes(self):
        InvariantAuditor(_balanced_counters()).audit(_clean_result())

    def test_accounted_sums_terminal_states(self):
        assert _balanced_counters().accounted() == 10

    def test_creation_mismatch_detected(self):
        auditor = InvariantAuditor(_balanced_counters(created=11))
        violations = auditor.conservation_violations()
        assert len(violations) == 1
        assert "conservation" in violations[0]

    def test_copy_mismatch_detected(self):
        auditor = InvariantAuditor(
            _balanced_counters(extra_copies_arrived=5, duplicates_suppressed=4)
        )
        assert any("copy" in v for v in auditor.conservation_violations())

    def test_crashed_release_detected(self):
        auditor = InvariantAuditor(_balanced_counters(crashed_releases=1))
        assert any("crash" in v for v in auditor.conservation_violations())

    def test_rogue_stranding_node_detected(self):
        auditor = InvariantAuditor(_balanced_counters(crash_nodes=set()))
        violations = auditor.conservation_violations()
        assert any("non-crashing" in v for v in violations)

    def test_negative_counter_detected(self):
        auditor = InvariantAuditor(
            _balanced_counters(delivered=-4, lost_in_transit=10)
        )
        assert any("negative" in v for v in auditor.conservation_violations())


class TestClockChecks:
    def test_non_monotone_observations_detected(self):
        result = _clean_result()
        result.delivery = _delivery(arrivals=(1.0, 2.0, 1.5, 50.0))
        violations = InvariantAuditor(_balanced_counters()).clock_violations(result)
        assert any("non-monotone" in v for v in violations)

    def test_occupancy_past_end_detected(self):
        result = _clean_result()
        result.node_stats[7].observation_time = 200.0
        violations = InvariantAuditor(_balanced_counters()).clock_violations(result)
        assert any("past the run end" in v for v in violations)

    def test_negative_occupancy_integral_detected(self):
        result = _clean_result()
        result.node_stats[7].occupancy_time_integral = -1.0
        violations = InvariantAuditor(_balanced_counters()).clock_violations(result)
        assert any("negative occupancy" in v for v in violations)

    def test_delivery_after_end_detected(self):
        result = _clean_result(end_time=10.0)
        violations = InvariantAuditor(_balanced_counters()).clock_violations(result)
        assert any("after the run end" in v for v in violations)


class TestAlignmentCheck:
    def test_tap_and_truth_must_align(self):
        result = _clean_result()
        result.delivery.created_at = result.delivery.created_at[:-1]
        violations = InvariantAuditor(_balanced_counters()).alignment_violations(
            result
        )
        assert violations and "observations" in violations[0]


class TestViolationReporting:
    def test_all_failures_reported_together(self):
        counters = _balanced_counters(created=99, crashed_releases=2)
        with pytest.raises(InvariantViolation) as excinfo:
            InvariantAuditor(counters).audit(_clean_result())
        assert len(excinfo.value.violations) == 2
        assert "conservation" in str(excinfo.value)
        assert "crash" in str(excinfo.value)


class TestAuditorWiredIntoSimulator:
    def _config(self):
        return SimulationConfig.paper_baseline(
            interarrival=4.0, case="rcad", n_packets=20, seed=2
        )

    def test_every_run_is_audited(self, monkeypatch):
        import repro.sim.simulator as simulator_module

        audited = []
        original = simulator_module.InvariantAuditor

        class Spy(original):
            def audit(self, result):
                audited.append(result)
                super().audit(result)

        monkeypatch.setattr(simulator_module, "InvariantAuditor", Spy)
        result = SensorNetworkSimulator(self._config()).run()
        assert audited == [result]

    def test_corrupted_ledger_fails_the_run(self):
        """A bookkeeping bug anywhere surfaces as a loud structured error."""

        class Corrupted(SensorNetworkSimulator):
            def _finalize(self):
                self._counters.created += 1  # simulate a lost count
                super()._finalize()

        with pytest.raises(InvariantViolation):
            Corrupted(self._config()).run()
