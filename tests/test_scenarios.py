"""Scenario specs, the defense registry, and the matrix runner."""

import json
import math

import numpy as np
import pytest

from repro.defenses import (
    DEFENSES,
    DefenseContext,
    DefenseRegistry,
    UnknownDefenseError,
)
from repro.net.topology import line_deployment
from repro.runtime.context import use_runtime
from repro.runtime.fingerprint import stable_fingerprint
from repro.scenarios import (
    CapacitySpec,
    DefenseSpec,
    ScenarioSpec,
    SourceSpec,
    TopologySpec,
    TrafficSpec,
    example_suite,
    load_suite,
    parse_suite,
    run_suite,
    scenario_cell,
    scenario_cells,
    suite_to_dict,
)
from repro.sim.config import SimulationConfig


def small_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="t",
        topology=TopologySpec(family="line", n_nodes=6),
        sources=SourceSpec(count=1, placement="far"),
        traffic=(TrafficSpec(model="periodic", interarrival=6.0),),
        defenses=(DefenseSpec(name="rcad"), DefenseSpec(name="no-delay")),
        n_packets=5,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestDefenseRegistry:
    def test_builtin_names(self):
        names = DEFENSES.names()
        assert {"no-delay", "infinite", "drop-tail", "rcad", "phantom"} <= set(
            names
        )
        assert names == sorted(names)
        assert len(names) >= 7

    def test_unknown_defense_lists_available(self):
        with pytest.raises(UnknownDefenseError) as excinfo:
            DEFENSES.create("rcda")
        message = str(excinfo.value)
        assert "rcda" in message
        for name in DEFENSES.names():
            assert name in message
        assert list(excinfo.value.available) == DEFENSES.names()

    def test_bad_parameters_embed_signature(self):
        with pytest.raises(ValueError, match="mean_delay"):
            DEFENSES.create("rcad", mean_dleay=30.0)

    def test_duplicate_registration_rejected(self):
        registry = DefenseRegistry()
        registry.register("x", lambda: None, "one")
        with pytest.raises(ValueError, match="already registered"):
            registry.register("x", lambda: None, "two")

    def test_registry_rcad_matches_paper_baseline(self):
        """The paper's case-3 config rebuilt via the registry is
        fingerprint-identical to ``SimulationConfig.paper_baseline`` --
        the invariant that keeps golden observable digests valid."""
        baseline = SimulationConfig.paper_baseline(
            interarrival=2.0, case="rcad", n_packets=150
        )
        defense = DEFENSES.create("rcad")
        context = DefenseContext(
            deployment=baseline.deployment,
            tree=baseline.tree,
            flow_rates={
                flow.source: flow.traffic.mean_rate()
                for flow in baseline.flows
            },
            capacity=10,
        )
        materialized = defense.materialize(context)
        rebuilt = SimulationConfig(
            deployment=baseline.deployment,
            tree=baseline.tree,
            flows=baseline.flows,
            delay_plan=materialized.delay_plan,
            buffers=materialized.buffers,
            routing_policy=materialized.routing_policy,
            transmission_delay=baseline.transmission_delay,
            seed=baseline.seed,
        )
        assert stable_fingerprint(rebuilt) == stable_fingerprint(baseline)

    def test_unknown_victim_policy_lists_available(self):
        with pytest.raises(ValueError, match="longest-remaining"):
            DEFENSES.create("rcad", victim="fifo")


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="random-geometric"):
            TopologySpec(family="torus", n_nodes=10)

    def test_unknown_defense_fails_at_spec_time(self):
        with pytest.raises(UnknownDefenseError):
            small_spec(defenses=(DefenseSpec(name="nope"),))

    def test_duplicate_defense_labels(self):
        with pytest.raises(ValueError, match="disambiguate"):
            small_spec(
                defenses=(
                    DefenseSpec(name="rcad"),
                    DefenseSpec(name="rcad", params={"mean_delay": 10.0}),
                )
            )

    @pytest.mark.parametrize(
        "defense, params, field",
        [
            ("rcad", {"mean_delay": math.nan}, "mean_delay"),
            ("infinite", {"mean_delay": math.inf}, "mean_delay"),
            ("drop-tail", {"mean_delay": -math.inf}, "mean_delay"),
            ("proportional-delay", {"exponent": math.nan}, "exponent"),
            ("proportional-delay", {"exponent": math.inf}, "exponent"),
            ("phantom", {"walk_length": math.nan}, "walk_length"),
            ("phantom", {"walk_length": 2.5}, "walk_length"),
            ("phantom", {"walk_length": 0}, "walk_length"),
            ("phantom", {"walk_length": True}, "walk_length"),
        ],
    )
    def test_non_finite_delay_parameters_fail_at_parse_time(
        self, defense, params, field
    ):
        suite = {
            "scenarios": [
                {
                    "name": "t",
                    "topology": {"family": "line", "n_nodes": 6},
                    "defenses": [{"name": defense, "params": params}],
                }
            ]
        }
        with pytest.raises(ValueError, match=field):
            parse_suite(suite)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="n_packet"):
            ScenarioSpec.from_dict({"name": "t", "n_packet": 5})

    def test_explicit_sources_validated_against_deployment(self):
        spec = small_spec(
            sources=SourceSpec(placement="explicit", nodes=(99,))
        )
        with pytest.raises(ValueError, match="99"):
            spec.compile()


class TestJsonRoundTrip:
    def test_round_trip_fingerprints_identical(self):
        """spec -> JSON -> spec compiles to fingerprint-identical
        configs (the reproducibility contract for suite files)."""
        for spec in example_suite():
            clone = ScenarioSpec.from_dict(
                json.loads(json.dumps(spec.to_dict()))
            )
            assert clone == spec
            original = spec.compile()
            rebuilt = clone.compile()
            assert len(original) == len(rebuilt)
            for a, b in zip(original, rebuilt):
                assert stable_fingerprint(a.config) == stable_fingerprint(
                    b.config
                )

    def test_suite_round_trip(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(suite_to_dict(example_suite())))
        loaded = load_suite(path)
        assert loaded == example_suite()

    def test_bad_suite_errors_name_the_file(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="suite.json"):
            load_suite(path)
        path.write_text(json.dumps({"scenarios": []}))
        with pytest.raises(ValueError, match="non-empty"):
            load_suite(path)

    def test_duplicate_scenario_names_rejected(self):
        spec = small_spec().to_dict()
        with pytest.raises(ValueError, match="repeat"):
            parse_suite({"scenarios": [spec, spec]})


class TestCompilation:
    def test_matrix_shape(self):
        spec = small_spec(seeds=(0, 1, 2))
        compiled = spec.compile()
        assert len(compiled) == 2 * 3
        assert {c.defense for c in compiled} == {"rcad", "no-delay"}
        assert {c.seed for c in compiled} == {0, 1, 2}

    def test_cell_filter_matches_full_compile(self):
        spec = small_spec(seeds=(0, 7))
        full = {
            (c.defense, c.seed): stable_fingerprint(c.config)
            for c in spec.compile()
        }
        (one,) = spec.compile(defense_indices=[1], seeds=[7])
        assert one.defense == "no-delay"
        assert full[("no-delay", 7)] == stable_fingerprint(one.config)

    def test_far_placement_picks_deepest_nodes(self):
        spec = small_spec(
            topology=TopologySpec(family="grid", width=4, height=4),
            sources=SourceSpec(count=2, placement="far"),
        )
        (first, *_rest) = spec.compile()
        assert [flow.source for flow in first.config.flows] == [11, 15]

    def test_heterogeneous_capacities_are_deterministic(self):
        capacity = CapacitySpec(base=10, spread=5, seed=3)
        deployment = line_deployment(hops=8)
        per_node = capacity.per_node(deployment)
        assert per_node == capacity.per_node(deployment)
        assert set(per_node) == set(deployment.node_ids) - {deployment.sink}
        assert all(v >= 1 for v in per_node.values())
        assert CapacitySpec(base=10, spread=0).per_node(deployment) is None

    def test_traffic_mix_round_robin(self):
        spec = small_spec(
            topology=TopologySpec(family="grid", width=4, height=4),
            sources=SourceSpec(count=3, placement="far"),
            traffic=(
                TrafficSpec(model="periodic", interarrival=6.0),
                TrafficSpec(model="poisson", interarrival=8.0),
            ),
        )
        (first, *_rest) = spec.compile()
        models = [type(f.traffic).__name__ for f in first.config.flows]
        assert models == [
            "PeriodicTraffic", "PoissonTraffic", "PeriodicTraffic",
        ]

    def test_compiles_sharing_a_network_keep_their_own_source_labels(self):
        grid = TopologySpec(family="grid", width=4, height=4)
        (three, *_), (one, *_) = (
            small_spec(topology=grid, sources=SourceSpec(count=n)).compile()
            for n in (3, 1)
        )
        network = set(grid.build()[0].labels)
        assert "S1" not in network
        assert set(three.config.deployment.labels) - network == {"S1", "S2", "S3"}
        assert set(one.config.deployment.labels) - network == {"S1"}

    def test_phantom_configs_do_not_share_policy_state(self):
        spec = small_spec(
            defenses=(DefenseSpec(name="phantom"),), seeds=(0, 1)
        )
        a, b = spec.compile()
        assert a.config.routing_policy is not b.config.routing_policy


class TestRunner:
    def test_cells_are_pure_json(self):
        cells = scenario_cells([small_spec()])
        assert cells == json.loads(json.dumps(cells))
        assert len(cells) == 2

    def test_run_suite_serial_matches_cell_by_cell(self):
        spec = small_spec()
        with use_runtime(jobs=1, cache=None):
            summaries = run_suite([spec])
            direct = [scenario_cell(c) for c in scenario_cells([spec])]
        assert [s.to_dict() for s in summaries] == direct
        by_defense = {s.defense: s for s in summaries}
        assert by_defense["no-delay"].mse == 0.0
        assert by_defense["rcad"].mse > 0.0
        assert by_defense["rcad"].delivery_rate == 1.0

    def test_scenario_cell_importable_by_name(self):
        """The fabric imports the cell fn as ``module:qualname``."""
        import importlib

        module = importlib.import_module("repro.scenarios.runner")
        assert getattr(module, "scenario_cell") is scenario_cell


class TestRoutingRegressions:
    def test_greedy_grid_tree_rejects_scrambled_ids(self):
        """Node ids that are not row-major used to silently produce a
        tree pointing at the wrong nodes; now a ValueError names the
        offending node."""
        from repro.net.routing import greedy_grid_tree
        from repro.net.topology import Deployment

        deployment = Deployment(
            positions={0: (1.0, 0.0), 1: (0.0, 0.0), 2: (0.0, 1.0),
                       3: (1.0, 1.0)},
            radio_range=1.1,
            sink=1,
        )
        with pytest.raises(ValueError, match="row-major"):
            greedy_grid_tree(deployment, width=2)

    def test_random_geometric_accepts_int_seed(self):
        from repro.net.topology import random_geometric_deployment

        dep1 = random_geometric_deployment(
            n_nodes=30, area_side=6.0, radio_range=2.0, rng=42
        )
        dep2 = random_geometric_deployment(
            n_nodes=30, area_side=6.0, radio_range=2.0,
            rng=np.random.default_rng(42),
        )
        assert dep1.positions == dep2.positions

    def test_random_geometric_failure_reports_density(self):
        from repro.net.topology import random_geometric_deployment

        with pytest.raises(RuntimeError, match="nodes per unit area"):
            random_geometric_deployment(
                n_nodes=5, area_side=100.0, radio_range=0.5,
                rng=0, max_attempts=2,
            )


class TestPerNodeCapacity:
    def test_per_node_capacity_serial_matches_fastpath(self):
        """Heterogeneous buffers run identically through the event
        engine and the vectorized fastpath."""
        import os

        from repro.runtime.context import run_simulation
        from repro.sim.config import BufferSpec

        spec = small_spec(
            capacity=CapacitySpec(base=3, spread=2, seed=1),
            defenses=(DefenseSpec(name="rcad"),),
            n_packets=30,
            traffic=(TrafficSpec(model="periodic", interarrival=2.0),),
        )
        (compiled,) = spec.compile()
        buffers = compiled.config.buffers
        assert isinstance(buffers, BufferSpec)
        assert buffers.per_node_capacity
        with use_runtime(jobs=1, cache=None):
            fast = run_simulation(compiled.config)
            os.environ["REPRO_FASTPATH"] = "0"
            try:
                slow = run_simulation(compiled.config)
            finally:
                os.environ.pop("REPRO_FASTPATH")
        assert fast.delivery == slow.delivery
