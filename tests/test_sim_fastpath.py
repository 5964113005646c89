"""Fast-path equivalence: the batch replay is observable-bit-identical.

``repro.sim.fastpath`` replays eligible configurations as vectorized
per-node batches instead of interleaved discrete events.  Its contract
is byte-equality of every observable -- adversary observations,
delivery records, drop logs, node statistics including float occupancy
integrals, event accounting, telemetry -- with the event-driven engine
(``REPRO_FASTPATH=0`` forces the latter, making the A/B a one-variable
experiment).  The golden-digest suite separately pins both paths to the
seed engine's output; this module pins them to *each other* across the
eligibility matrix and across ``--jobs N`` parallelism.
"""

from __future__ import annotations

import pytest

from repro.sim.fastpath import fastpath_eligible, fastpath_enabled
from repro.sim.observables import observable_digest, reference_configs
from repro.sim.simulator import SensorNetworkSimulator

CONFIGS = reference_configs()

ELIGIBLE = [
    "fig2-no-delay-ia2",
    "fig2-no-delay-ia10",
    "fig2-unlimited-ia2",
    "fig2-unlimited-ia10",
    "fig2-rcad-ia2",
    "fig2-rcad-ia10",
    "rcad-seed7",
    "poisson-rcad-telemetry",
    "poisson-unlimited",
    "droptail",
]
INELIGIBLE = [
    "constant-delay",  # point-mass delays make event ties routine
    "rcad-newest-victim",  # non-SRD victim rule
    "rcad-oldest-victim",
    "sealed",  # payload codec consumes extra RNG streams per packet
    "lossy",  # per-hop Bernoulli loss interleaves with delivery order
    "recorded",  # transmission logs / traces need per-event hooks
    "chaos",  # fault machinery
    "chaos-arq",
]


class TestEligibilityMatrix:
    def test_reference_matrix_is_fully_classified(self):
        assert set(ELIGIBLE) | set(INELIGIBLE) == set(CONFIGS)

    @pytest.mark.parametrize("name", ELIGIBLE)
    def test_eligible(self, name):
        assert fastpath_eligible(CONFIGS[name])

    @pytest.mark.parametrize("name", INELIGIBLE)
    def test_ineligible(self, name):
        assert not fastpath_eligible(CONFIGS[name])


class TestEnvironmentEscapeHatch:
    @pytest.mark.parametrize("value", ["0", "off", "false", "FALSE", " no "])
    def test_disabled_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_FASTPATH", value)
        assert not fastpath_enabled()

    @pytest.mark.parametrize("value", ["1", "on", ""])
    def test_enabled_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_FASTPATH", value)
        assert fastpath_enabled()

    def test_default_is_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_FASTPATH", raising=False)
        assert fastpath_enabled()


class TestBitIdenticalToEventEngine:
    @pytest.mark.parametrize("name", ELIGIBLE)
    def test_digest_matches_legacy(self, name, monkeypatch):
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        legacy = observable_digest(SensorNetworkSimulator(CONFIGS[name]).run())
        monkeypatch.delenv("REPRO_FASTPATH")
        fast = observable_digest(SensorNetworkSimulator(CONFIGS[name]).run())
        assert fast == legacy

    def test_subclasses_take_the_event_engine(self, monkeypatch):
        """Lifecycle hooks (``_finalize`` & co.) are overridable; a
        subclass must never be routed around its own overrides."""
        calls = []

        class Probe(SensorNetworkSimulator):
            def _finalize(self):
                calls.append("finalize")
                super()._finalize()

        config = CONFIGS["fig2-rcad-ia10"]
        assert fastpath_eligible(config)
        Probe(config).run()
        assert calls == ["finalize"]

    def test_single_use_guard_applies_to_fastpath(self):
        sim = SensorNetworkSimulator(CONFIGS["fig2-rcad-ia10"])
        sim.run()
        with pytest.raises(RuntimeError, match="single-use"):
            sim.run()

    def test_horizon_overrun_message_matches_engine(self):
        from dataclasses import replace

        config = replace(CONFIGS["fig2-rcad-ia10"], max_sim_time=10.0)
        assert fastpath_eligible(config)
        with pytest.raises(RuntimeError, match="exceeded max_sim_time=10"):
            SensorNetworkSimulator(config).run()


def _digest(name: str) -> str:
    return observable_digest(SensorNetworkSimulator(CONFIGS[name]).run())


class TestParallelJobsDeterminism:
    def test_digests_bit_identical_across_jobs(self):
        """The fast path inherits the runtime layer's non-negotiable
        property: ``--jobs N`` equals serial, byte for byte."""
        from repro.analysis.sweep import sweep
        from repro.runtime import use_runtime

        names = ["fig2-rcad-ia2", "fig2-no-delay-ia10", "droptail",
                 "poisson-rcad-telemetry"]
        serial = sweep(names, _digest)
        with use_runtime(jobs=2):
            parallel = sweep(names, _digest)
        assert serial == parallel
