"""Declarative, seed-deterministic scenario specifications.

A :class:`ScenarioSpec` names everything one scenario varies -- the
topology family and size, source placement, the traffic mix, the buffer
hardware model, and the list of defenses to pit against it -- and
compiles, deterministically, into concrete
:class:`~repro.sim.config.SimulationConfig` objects (one per defense x
seed).  Specs round-trip through JSON exactly: ``spec -> to_dict ->
json -> from_dict -> compile`` yields configurations whose stable
fingerprints are identical to compiling the original spec, which is
what lets the result cache, the checkpoint journal and the sweep
fabric treat spec files as the unit of reproducibility.

Three topology families:

* ``line``  -- the tandem of the paper's Sections 3-4 (``n_nodes``);
* ``grid``  -- row-major lattice with corner sink (``width x height``),
  routed by the deterministic staircase of
  :func:`~repro.net.routing.greedy_grid_tree`;
* ``random-geometric`` -- uniform placement over a square, resampled
  until connected (``n_nodes``, ``area_side``, ``radio_range``,
  ``seed``), routed by shortest paths.  Practical from 10^2 up to 10^4
  nodes -- connectivity uses the spatial-hash graph builder.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.defenses import DEFENSES, DefenseContext
from repro.net.routing import RoutingTree, greedy_grid_tree, shortest_path_tree
from repro.net.topology import (
    Deployment,
    grid_deployment,
    line_deployment,
    random_geometric_deployment,
)
from repro.sim.config import FlowSpec, SimulationConfig
from repro.traffic.generators import (
    JitteredPeriodicTraffic,
    OnOffTraffic,
    PeriodicTraffic,
    PoissonTraffic,
    TrafficModel,
)

__all__ = [
    "TopologySpec",
    "SourceSpec",
    "TrafficSpec",
    "CapacitySpec",
    "DefenseSpec",
    "CompiledScenario",
    "ScenarioSpec",
    "load_suite",
    "parse_suite",
    "suite_to_dict",
    "example_suite",
]

TOPOLOGY_FAMILIES = ("line", "grid", "random-geometric")
PLACEMENTS = ("far", "spread", "random", "explicit")
TRAFFIC_MODELS = ("periodic", "poisson", "jittered", "onoff")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class TopologySpec:
    """Which network to build.

    ``family`` selects the builder; the other fields are per-family
    (``n_nodes`` for line / random-geometric, ``width``/``height`` for
    grid, ``area_side``/``radio_range``/``seed`` for random-geometric).
    """

    family: str = "grid"
    n_nodes: int | None = None
    width: int | None = None
    height: int | None = None
    area_side: float | None = None
    radio_range: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        _require(
            self.family in TOPOLOGY_FAMILIES,
            f"unknown topology family {self.family!r}; "
            f"available: {', '.join(TOPOLOGY_FAMILIES)}",
        )
        if self.family == "line":
            _require(
                self.n_nodes is not None and self.n_nodes >= 2,
                f"line topology needs n_nodes >= 2, got {self.n_nodes}",
            )
        elif self.family == "grid":
            _require(
                self.width is not None and self.width >= 1
                and self.height is not None and self.height >= 1,
                "grid topology needs width >= 1 and height >= 1, got "
                f"width={self.width} height={self.height}",
            )
            _require(
                (self.width or 0) * (self.height or 0) >= 2,
                "grid topology needs at least 2 nodes",
            )
        else:  # random-geometric
            _require(
                self.n_nodes is not None and self.n_nodes >= 2,
                f"random-geometric topology needs n_nodes >= 2, "
                f"got {self.n_nodes}",
            )
            _require(
                self.area_side is not None and self.area_side > 0,
                f"random-geometric topology needs area_side > 0, "
                f"got {self.area_side}",
            )
            _require(
                self.radio_range is not None and self.radio_range > 0,
                f"random-geometric topology needs radio_range > 0, "
                f"got {self.radio_range}",
            )

    @property
    def size(self) -> int:
        """Total node count (sink included)."""
        if self.family == "grid":
            return int(self.width * self.height)  # type: ignore[operator]
        return int(self.n_nodes)  # type: ignore[arg-type]

    @functools.lru_cache(maxsize=8)
    def build(self) -> tuple[Deployment, RoutingTree]:
        """Deterministically build the deployment and its routing tree.

        Built once per spec and process: every cell of a scenario
        matrix compiles the same network, so callers must not mutate
        the result.
        """
        if self.family == "line":
            deployment = line_deployment(hops=self.n_nodes - 1)  # type: ignore[operator]
            return deployment, shortest_path_tree(deployment)
        if self.family == "grid":
            deployment = grid_deployment(width=self.width, height=self.height)  # type: ignore[arg-type]
            return deployment, greedy_grid_tree(deployment, width=self.width)  # type: ignore[arg-type]
        deployment = random_geometric_deployment(
            n_nodes=self.n_nodes,  # type: ignore[arg-type]
            area_side=self.area_side,  # type: ignore[arg-type]
            radio_range=self.radio_range,  # type: ignore[arg-type]
            rng=self.seed,
        )
        return deployment, shortest_path_tree(deployment)


@dataclass(frozen=True)
class SourceSpec:
    """How many sources to place and where.

    ``placement``:

    * ``"far"``    -- the ``count`` deepest nodes (largest hop count;
      ties toward the smaller id): the adversary's hardest case and the
      paper's flavour of long flows;
    * ``"spread"`` -- ``count`` nodes evenly spaced through the
      depth-sorted node list: a mix of near and far sources;
    * ``"random"`` -- a seeded uniform draw without replacement;
    * ``"explicit"`` -- exactly the listed ``nodes``.
    """

    count: int = 1
    placement: str = "far"
    nodes: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        _require(
            self.placement in PLACEMENTS,
            f"unknown placement {self.placement!r}; "
            f"available: {', '.join(PLACEMENTS)}",
        )
        if self.placement == "explicit":
            _require(
                bool(self.nodes),
                "explicit placement needs a non-empty nodes list",
            )
        else:
            _require(self.count >= 1, f"need at least 1 source, got {self.count}")
            _require(
                self.nodes is None,
                "a nodes list implies placement='explicit'",
            )

    def place(self, deployment: Deployment, tree: RoutingTree) -> list[int]:
        """The source node ids, deterministic for a given spec."""
        if self.placement == "explicit":
            for node in self.nodes:  # type: ignore[union-attr]
                _require(
                    node in deployment.positions,
                    f"explicit source {node} is not deployed",
                )
                _require(
                    node != deployment.sink,
                    f"explicit source {node} is the sink",
                )
            _require(
                len(set(self.nodes)) == len(self.nodes),  # type: ignore[arg-type]
                f"explicit sources repeat a node: {list(self.nodes)}",  # type: ignore[arg-type]
            )
            return list(self.nodes)  # type: ignore[arg-type]
        depth = tree.depths()
        candidates = [n for n in deployment.node_ids if n != deployment.sink]
        _require(
            self.count <= len(candidates),
            f"cannot place {self.count} sources on {len(candidates)} "
            "non-sink nodes",
        )
        if self.placement == "far":
            ranked = sorted(candidates, key=lambda n: (-depth[n], n))
            return sorted(ranked[: self.count])
        if self.placement == "spread":
            ranked = sorted(candidates, key=lambda n: (depth[n], n))
            if self.count == 1:
                return [ranked[len(ranked) // 2]]
            picks = np.linspace(0, len(ranked) - 1, self.count)
            return sorted({ranked[int(round(p))] for p in picks})
        rng = np.random.default_rng(self.seed)
        draw = rng.choice(len(candidates), size=self.count, replace=False)
        return sorted(candidates[i] for i in draw)


@dataclass(frozen=True)
class TrafficSpec:
    """One traffic generator of the scenario's mix.

    Sources take generators round-robin from the scenario's ``traffic``
    list, so a two-entry mix on four sources alternates models.  All
    models are normalized to the same mean rate ``1/interarrival``.
    """

    model: str = "periodic"
    interarrival: float = 8.0
    jitter: float | None = None
    burst_factor: float = 4.0

    def __post_init__(self) -> None:
        _require(
            self.model in TRAFFIC_MODELS,
            f"unknown traffic model {self.model!r}; "
            f"available: {', '.join(TRAFFIC_MODELS)}",
        )
        _require(
            self.interarrival > 0,
            f"interarrival must be positive, got {self.interarrival}",
        )
        if self.jitter is not None:
            _require(
                0 <= self.jitter < self.interarrival / 2,
                f"jitter must be in [0, interarrival/2), got {self.jitter}",
            )
            _require(
                self.model == "jittered",
                "jitter only applies to the 'jittered' model",
            )
        _require(
            self.burst_factor >= 1.0,
            f"burst factor must be at least 1, got {self.burst_factor}",
        )

    def build(self, index: int, n_sources: int) -> TrafficModel:
        """The generator for source ``index`` of ``n_sources``.

        Periodic-family phases are staggered by source index (as the
        paper's independent sensors are), so sources sharing a model
        never fire in lockstep.
        """
        phase = self.interarrival * (index + 1) / max(n_sources, 1)
        if self.model == "periodic":
            return PeriodicTraffic(interval=self.interarrival, phase=phase)
        if self.model == "poisson":
            return PoissonTraffic(rate=1.0 / self.interarrival)
        if self.model == "jittered":
            jitter = (
                self.jitter if self.jitter is not None
                else self.interarrival / 4
            )
            return JitteredPeriodicTraffic(
                interval=self.interarrival, jitter=jitter, phase=phase
            )
        # onoff: bursts at burst_factor times the mean rate with a
        # 1/burst_factor duty cycle -- same mean rate as the others.
        mean_on = 5.0 * self.interarrival
        return OnOffTraffic(
            burst_rate=self.burst_factor / self.interarrival,
            mean_on=mean_on,
            mean_off=mean_on * (self.burst_factor - 1.0),
        )


@dataclass(frozen=True)
class CapacitySpec:
    """The buffer hardware model: homogeneous or heterogeneous slots.

    ``base`` is every node's default capacity (the paper's k = 10).
    ``spread > 0`` draws a per-node offset uniformly from
    ``[-spread, +spread]`` (seeded, over node ids in sorted order, so
    the same spec always produces the same hardware), clipped to at
    least 1 slot.
    """

    base: int = 10
    spread: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        _require(self.base >= 1, f"base capacity must be >= 1, got {self.base}")
        _require(self.spread >= 0, f"spread must be >= 0, got {self.spread}")

    def per_node(self, deployment: Deployment) -> dict[int, int] | None:
        """Per-node capacities, or None for the homogeneous model."""
        if self.spread == 0:
            return None
        rng = np.random.default_rng(self.seed)
        nodes = [n for n in deployment.node_ids if n != deployment.sink]
        offsets = rng.integers(-self.spread, self.spread + 1, size=len(nodes))
        return {
            node: max(1, self.base + int(offset))
            for node, offset in zip(nodes, offsets)
        }


@dataclass(frozen=True)
class DefenseSpec:
    """A registry entry plus its parameters, as named by a spec file."""

    name: str
    params: Mapping[str, object] = field(default_factory=dict)
    label: str | None = None

    def __post_init__(self) -> None:
        _require(bool(self.name), "defense spec needs a name")
        for key in self.params:
            _require(
                isinstance(key, str),
                f"defense parameter names must be strings, got {key!r}",
            )

    @property
    def display(self) -> str:
        return self.label if self.label is not None else self.name

    def create(self):
        """Instantiate through the registry (validates name and params)."""
        return DEFENSES.create(self.name, **dict(self.params))


@dataclass(frozen=True)
class CompiledScenario:
    """One concrete runnable cell: a config plus its provenance."""

    scenario: str
    family: str
    n_nodes: int
    defense: str
    seed: int
    config: SimulationConfig
    advertised_mean_delay: float
    advertised_capacity: int | None

    @property
    def scenario_id(self) -> str:
        return f"{self.scenario}/{self.defense}/s{self.seed}"


@dataclass(frozen=True)
class ScenarioSpec:
    """One named scenario: topology x sources x traffic x defenses x seeds."""

    name: str
    topology: TopologySpec = field(default_factory=TopologySpec)
    sources: SourceSpec = field(default_factory=SourceSpec)
    traffic: tuple[TrafficSpec, ...] = (TrafficSpec(),)
    capacity: CapacitySpec = field(default_factory=CapacitySpec)
    defenses: tuple[DefenseSpec, ...] = (DefenseSpec(name="rcad"),)
    n_packets: int = 100
    seeds: tuple[int, ...] = (0,)
    transmission_delay: float = 1.0

    def __post_init__(self) -> None:
        _require(bool(self.name), "scenario needs a name")
        _require("/" not in self.name, "scenario names must not contain '/'")
        _require(bool(self.traffic), "scenario needs at least one traffic entry")
        _require(bool(self.defenses), "scenario needs at least one defense")
        _require(bool(self.seeds), "scenario needs at least one seed")
        _require(
            self.n_packets >= 1,
            f"n_packets must be at least 1, got {self.n_packets}",
        )
        _require(
            self.transmission_delay > 0,
            f"transmission delay must be positive, "
            f"got {self.transmission_delay}",
        )
        labels = [d.display for d in self.defenses]
        _require(
            len(set(labels)) == len(labels),
            f"defense labels repeat: {labels}; disambiguate with 'label'",
        )
        for defense in self.defenses:
            defense.create()  # fail at spec time, not mid-matrix

    # ------------------------------------------------------------------
    def compile(
        self,
        defense_indices: Sequence[int] | None = None,
        seeds: Sequence[int] | None = None,
    ) -> list[CompiledScenario]:
        """Materialize the (defense x seed) matrix into configs.

        ``defense_indices`` / ``seeds`` restrict the matrix -- that is
        how one sweep cell recompiles exactly its own combination.
        Every config gets a *fresh* defense materialization, so configs
        never share mutable routing-policy state.
        """
        deployment, tree = self.topology.build()
        source_nodes = self.sources.place(deployment, tree)
        labels = dict(deployment.labels)
        for index, node in enumerate(source_nodes):
            labels[f"S{index + 1}"] = node
        deployment = replace(deployment, labels=labels)
        flows = [
            FlowSpec(
                flow_id=index + 1,
                source=node,
                traffic=self.traffic[index % len(self.traffic)].build(
                    index, len(source_nodes)
                ),
                n_packets=self.n_packets,
            )
            for index, node in enumerate(source_nodes)
        ]
        context = DefenseContext(
            deployment=deployment,
            tree=tree,
            flow_rates={
                flow.source: flow.traffic.mean_rate() for flow in flows
            },
            capacity=self.capacity.base,
            per_node_capacity=self.capacity.per_node(deployment),
        )
        picked_defenses = (
            range(len(self.defenses))
            if defense_indices is None
            else defense_indices
        )
        picked_seeds = self.seeds if seeds is None else tuple(seeds)
        compiled: list[CompiledScenario] = []
        for defense_index in picked_defenses:
            spec = self.defenses[defense_index]
            for seed in picked_seeds:
                defense = spec.create()
                materialized = defense.materialize(context)
                config = SimulationConfig(
                    deployment=deployment,
                    tree=tree,
                    flows=flows,
                    delay_plan=materialized.delay_plan,
                    buffers=materialized.buffers,
                    routing_policy=materialized.routing_policy,
                    transmission_delay=self.transmission_delay,
                    seed=seed,
                )
                compiled.append(
                    CompiledScenario(
                        scenario=self.name,
                        family=self.topology.family,
                        n_nodes=self.topology.size,
                        defense=spec.display,
                        seed=seed,
                        config=config,
                        advertised_mean_delay=defense.advertised_mean_delay,
                        advertised_capacity=defense.advertised_capacity(
                            context
                        ),
                    )
                )
        return compiled

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible view; ``from_dict`` inverts it exactly."""
        return {
            "name": self.name,
            "topology": _dataclass_dict(self.topology),
            "sources": _dataclass_dict(self.sources),
            "traffic": [_dataclass_dict(t) for t in self.traffic],
            "capacity": _dataclass_dict(self.capacity),
            "defenses": [_dataclass_dict(d) for d in self.defenses],
            "n_packets": self.n_packets,
            "seeds": list(self.seeds),
            "transmission_delay": self.transmission_delay,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSpec":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        _require(
            not unknown,
            f"unknown scenario fields {unknown}; known: {sorted(known)}",
        )
        _require("name" in data, "scenario needs a name")
        kwargs: dict = {"name": data["name"]}
        if "topology" in data:
            kwargs["topology"] = _from_mapping(TopologySpec, data["topology"])
        if "sources" in data:
            sources = dict(data["sources"])
            if sources.get("nodes") is not None:
                sources["nodes"] = tuple(int(n) for n in sources["nodes"])
                sources.setdefault("placement", "explicit")
                sources.setdefault("count", len(sources["nodes"]))
            kwargs["sources"] = _from_mapping(SourceSpec, sources)
        if "traffic" in data:
            kwargs["traffic"] = tuple(
                _from_mapping(TrafficSpec, entry) for entry in data["traffic"]
            )
        if "capacity" in data:
            kwargs["capacity"] = _from_mapping(CapacitySpec, data["capacity"])
        if "defenses" in data:
            kwargs["defenses"] = tuple(
                _from_mapping(DefenseSpec, entry) for entry in data["defenses"]
            )
        for key in ("n_packets", "transmission_delay"):
            if key in data:
                kwargs[key] = data[key]
        if "seeds" in data:
            kwargs["seeds"] = tuple(int(s) for s in data["seeds"])
        return cls(**kwargs)


def _dataclass_dict(spec) -> dict:
    """Non-default fields of a frozen spec dataclass, JSON-ready."""
    out: dict = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, Mapping):
            value = dict(value)
        out[f.name] = value
    return out


def _from_mapping(cls, data: Mapping):
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    _require(
        not unknown,
        f"unknown {cls.__name__} fields {unknown}; known: {sorted(known)}",
    )
    return cls(**dict(data))


# ----------------------------------------------------------------------
# Suite files
# ----------------------------------------------------------------------
def parse_suite(data: Mapping) -> list[ScenarioSpec]:
    """Parse a suite dict (``{"scenarios": [...]}``) into specs."""
    _require(
        isinstance(data, Mapping) and "scenarios" in data,
        "a scenario suite is an object with a 'scenarios' list",
    )
    scenarios = data["scenarios"]
    _require(
        isinstance(scenarios, Sequence) and len(scenarios) > 0,
        "'scenarios' must be a non-empty list",
    )
    specs = [ScenarioSpec.from_dict(entry) for entry in scenarios]
    names = [spec.name for spec in specs]
    _require(
        len(set(names)) == len(names),
        f"scenario names repeat: {names}",
    )
    return specs


def load_suite(path: str | Path) -> list[ScenarioSpec]:
    """Load and validate a scenario suite JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}")
    try:
        return parse_suite(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def suite_to_dict(specs: Sequence[ScenarioSpec]) -> dict:
    """The inverse of :func:`parse_suite`."""
    return {"scenarios": [spec.to_dict() for spec in specs]}


def example_suite() -> list[ScenarioSpec]:
    """A small ready-to-run suite covering all three topology families.

    Used by ``repro scenarios --example`` and the CI smoke script: four
    registered defenses over a line, a grid and a random-geometric
    deployment, sized to finish in seconds.
    """
    rcad = DefenseSpec(name="rcad")
    drop_tail = DefenseSpec(name="drop-tail")
    return [
        ScenarioSpec(
            name="line-12",
            topology=TopologySpec(family="line", n_nodes=13),
            sources=SourceSpec(count=1, placement="far"),
            traffic=(TrafficSpec(model="periodic", interarrival=6.0),),
            capacity=CapacitySpec(base=8),
            defenses=(
                DefenseSpec(name="no-delay"),
                rcad,
                DefenseSpec(name="jittered-delay"),
            ),
            n_packets=40,
        ),
        ScenarioSpec(
            name="grid-8x8",
            topology=TopologySpec(family="grid", width=8, height=8),
            sources=SourceSpec(count=3, placement="far"),
            traffic=(
                TrafficSpec(model="periodic", interarrival=6.0),
                TrafficSpec(model="poisson", interarrival=8.0),
            ),
            capacity=CapacitySpec(base=10),
            defenses=(
                rcad,
                drop_tail,
                DefenseSpec(name="proportional-delay"),
            ),
            n_packets=40,
        ),
        ScenarioSpec(
            name="rg-120",
            topology=TopologySpec(
                family="random-geometric",
                n_nodes=120,
                area_side=12.0,
                radio_range=2.2,
                seed=3,
            ),
            sources=SourceSpec(count=4, placement="spread"),
            traffic=(
                TrafficSpec(model="jittered", interarrival=8.0),
                TrafficSpec(model="onoff", interarrival=10.0),
            ),
            capacity=CapacitySpec(base=10, spread=4, seed=1),
            defenses=(
                rcad,
                drop_tail,
                DefenseSpec(name="phantom", params={"walk_length": 3}),
            ),
            n_packets=30,
            seeds=(0, 1),
        ),
    ]
