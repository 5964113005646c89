"""The pluggable defense-strategy registry.

A *defense* is everything a temporal-privacy countermeasure decides
about a run: the per-node artificial delay plan, the buffer discipline,
and (for routing-layer defenses) the per-packet forwarding policy.
:class:`Defense` is the protocol; :class:`DefenseRegistry` maps short
names to parameterized factories so scenario specs -- and the
``repro scenarios`` CLI -- can select defenses declaratively.

The paper's three evaluation cases are registered under ``no-delay``,
``infinite`` and ``rcad`` (plus the §4 loss alternative ``drop-tail``);
a registry-built ``rcad`` entry at the paper's parameters materializes
a configuration bit-identical to
:meth:`repro.sim.config.SimulationConfig.paper_baseline` -- the golden
observable digests pin that equivalence.  Beyond the paper:

* ``phantom`` -- phantom routing (random-walk prefix, then the tree)
  over RCAD buffers: a routing-layer defense in the spirit of the SLP
  literature.  Fastpath-ineligible by construction (it sets a routing
  policy), so it transparently runs on the event engine;
* ``proportional-delay`` -- the Section 3.3 decomposition: more delay
  far from the sink via :class:`~repro.core.planner.SinkWeightedPlanner`
  at an unchanged per-flow privacy budget;
* ``jittered-delay`` -- uniform (bounded-support) per-hop delay at the
  same mean, the low-variance alternative to the exponential sampler.
"""

from __future__ import annotations

import abc
import inspect
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.core.delays import UniformDelay
from repro.core.planner import DelayPlan, SinkWeightedPlanner, UniformPlanner
from repro.core.victim import (
    LongestRemainingDelay,
    NewestArrival,
    OldestArrival,
    RandomVictim,
    ShortestRemainingDelay,
    VictimPolicy,
)
from repro.location.policies import PhantomRoutingPolicy, RoutingPolicy
from repro.net.routing import RoutingTree
from repro.net.topology import Deployment
from repro.sim.config import BufferSpec

__all__ = [
    "DefenseContext",
    "DefenseMaterialization",
    "Defense",
    "UnknownDefenseError",
    "DefenseRegistry",
    "DEFENSES",
]

#: Victim policies a defense spec can name.  ``"shortest-remaining"``
#: maps to None so the materialized BufferSpec is field-for-field equal
#: to the paper baseline's (which leaves the default policy implicit).
_VICTIM_POLICIES: dict[str, Callable[[], VictimPolicy] | None] = {
    ShortestRemainingDelay.name: None,
    LongestRemainingDelay.name: LongestRemainingDelay,
    RandomVictim.name: RandomVictim,
    OldestArrival.name: OldestArrival,
    NewestArrival.name: NewestArrival,
}


def _check_mean_delay(mean_delay: float) -> None:
    if not (math.isfinite(mean_delay) and mean_delay > 0):
        raise ValueError(
            f"mean_delay must be finite and positive, got {mean_delay}"
        )


def _victim_policy(name: str) -> VictimPolicy | None:
    try:
        factory = _VICTIM_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown victim policy {name!r}; available: "
            f"{sorted(_VICTIM_POLICIES)}"
        )
    return None if factory is None else factory()


@dataclass(frozen=True)
class DefenseContext:
    """What a defense may look at while materializing.

    ``flow_rates`` maps source node id -> mean packet creation rate
    (what the delay planners consume); ``capacity`` / ``per_node_capacity``
    are the scenario's buffer-hardware model, which bounded defenses
    adopt and unbounded ones ignore.
    """

    deployment: Deployment
    tree: RoutingTree
    flow_rates: Mapping[int, float]
    capacity: int = 10
    per_node_capacity: Mapping[int, int] | None = None


@dataclass(frozen=True)
class DefenseMaterialization:
    """A defense's concrete contribution to a SimulationConfig."""

    delay_plan: DelayPlan | None
    buffers: BufferSpec
    routing_policy: RoutingPolicy | None = None


class Defense(abc.ABC):
    """Protocol every registered defense implements."""

    #: registry name; set by each concrete defense.
    name: str = "abstract"

    @abc.abstractmethod
    def materialize(self, context: DefenseContext) -> DefenseMaterialization:
        """Build the delay plan / buffers / routing policy for a run."""

    @property
    def advertised_mean_delay(self) -> float:
        """Per-hop mean delay the adversary is assumed to know (1/mu)."""
        return 0.0

    def advertised_capacity(self, context: DefenseContext) -> int | None:
        """Buffer capacity the adversary is assumed to know (k)."""
        return None


class UnknownDefenseError(KeyError):
    """Lookup of a defense name that is not registered.

    The message lists every available entry, so a typo in a scenario
    spec is a one-glance fix.
    """

    def __init__(self, name: str, available: list[str]) -> None:
        self.name = name
        self.available = available
        super().__init__(
            f"unknown defense {name!r}; available: {', '.join(available)}"
        )

    def __str__(self) -> str:  # KeyError would repr-quote the message
        return self.args[0]


class DefenseRegistry:
    """Named, parameterized defense factories."""

    def __init__(self) -> None:
        self._factories: dict[str, Callable[..., Defense]] = {}
        self._descriptions: dict[str, str] = {}

    def register(
        self, name: str, factory: Callable[..., Defense], description: str
    ) -> None:
        if name in self._factories:
            raise ValueError(f"defense {name!r} is already registered")
        self._factories[name] = factory
        self._descriptions[name] = description

    def names(self) -> list[str]:
        return sorted(self._factories)

    def describe(self) -> dict[str, str]:
        """name -> one-line description, for ``--list-defenses``."""
        return {name: self._descriptions[name] for name in self.names()}

    def signature(self, name: str) -> str:
        """The factory's parameter list, rendered for help output."""
        factory = self._factories.get(name)
        if factory is None:
            raise UnknownDefenseError(name, self.names())
        return str(inspect.signature(factory))

    def create(self, name: str, **params: object) -> Defense:
        try:
            factory = self._factories[name]
        except KeyError:
            raise UnknownDefenseError(name, self.names())
        try:
            return factory(**params)
        except TypeError as exc:
            raise ValueError(
                f"bad parameters for defense {name!r}: {exc}; expected "
                f"signature {name}{self.signature(name)}"
            )


# ----------------------------------------------------------------------
# Built-in defenses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NoDelayDefense(Defense):
    """Evaluation case 1: forward immediately, unbounded buffers."""

    name = "no-delay"

    def materialize(self, context: DefenseContext) -> DefenseMaterialization:
        return DefenseMaterialization(
            delay_plan=None, buffers=BufferSpec(kind="infinite")
        )


@dataclass(frozen=True)
class InfiniteBufferDefense(Defense):
    """Evaluation case 2: Exp(mu) delay at every hop, unbounded buffers."""

    name = "infinite"
    mean_delay: float = 30.0

    def __post_init__(self) -> None:
        _check_mean_delay(self.mean_delay)

    def materialize(self, context: DefenseContext) -> DefenseMaterialization:
        plan = UniformPlanner(self.mean_delay).plan(
            context.tree, context.flow_rates
        )
        return DefenseMaterialization(
            delay_plan=plan, buffers=BufferSpec(kind="infinite")
        )

    @property
    def advertised_mean_delay(self) -> float:
        return self.mean_delay


@dataclass(frozen=True)
class _BoundedDelayDefense(Defense):
    """Shared shape of the bounded-buffer exponential-delay defenses."""

    mean_delay: float = 30.0
    victim: str = ShortestRemainingDelay.name

    def __post_init__(self) -> None:
        _check_mean_delay(self.mean_delay)
        _victim_policy(self.victim)  # validate the name eagerly

    def _buffers(self, context: DefenseContext, kind: str) -> BufferSpec:
        return BufferSpec(
            kind=kind,
            capacity=context.capacity,
            victim_policy=(
                _victim_policy(self.victim) if kind == "rcad" else None
            ),
            per_node_capacity=context.per_node_capacity,
        )

    @property
    def advertised_mean_delay(self) -> float:
        return self.mean_delay

    def advertised_capacity(self, context: DefenseContext) -> int | None:
        return context.capacity


@dataclass(frozen=True)
class DropTailDefense(_BoundedDelayDefense):
    """Exp(mu) delay over bounded buffers that drop when full (§4)."""

    name = "drop-tail"

    def materialize(self, context: DefenseContext) -> DefenseMaterialization:
        plan = UniformPlanner(self.mean_delay).plan(
            context.tree, context.flow_rates
        )
        return DefenseMaterialization(
            delay_plan=plan, buffers=self._buffers(context, "drop-tail")
        )


@dataclass(frozen=True)
class RcadDefense(_BoundedDelayDefense):
    """Evaluation case 3: RCAD preemptive buffers under Exp(mu) delay."""

    name = "rcad"

    def materialize(self, context: DefenseContext) -> DefenseMaterialization:
        plan = UniformPlanner(self.mean_delay).plan(
            context.tree, context.flow_rates
        )
        return DefenseMaterialization(
            delay_plan=plan, buffers=self._buffers(context, "rcad")
        )


@dataclass(frozen=True)
class PhantomDefense(_BoundedDelayDefense):
    """Phantom routing over RCAD: a routing-layer defense entrant.

    Each packet walks ``walk_length`` random radio hops (avoiding the
    sink) before joining the convergecast tree, on top of the temporal
    defense (Exp(mu) delay, RCAD buffers).  The walk decorrelates the
    observed hop count from the true source depth, attacking the
    adversary's ``h * (tau + 1/mu)`` correction at its root.
    """

    name = "phantom"
    walk_length: int = 4

    def __post_init__(self) -> None:
        super().__post_init__()
        walk = self.walk_length
        if isinstance(walk, bool) or not isinstance(walk, numbers.Integral):
            raise ValueError(f"walk_length must be an integer, got {walk!r}")
        if walk < 1:
            raise ValueError(
                f"walk_length must be at least 1, got {walk} (0 is plain rcad)"
            )

    def materialize(self, context: DefenseContext) -> DefenseMaterialization:
        plan = UniformPlanner(self.mean_delay).plan(
            context.tree, context.flow_rates
        )
        return DefenseMaterialization(
            delay_plan=plan,
            buffers=self._buffers(context, "rcad"),
            routing_policy=PhantomRoutingPolicy(
                tree=context.tree,
                deployment=context.deployment,
                walk_length=self.walk_length,
            ),
        )


@dataclass(frozen=True)
class ProportionalDelayDefense(_BoundedDelayDefense):
    """Sink-weighted delay decomposition (Section 3.3) over RCAD.

    Deeper nodes inject proportionally more delay (depth ** exponent),
    normalized so the deepest flow keeps the uniform planner's total
    path-delay budget -- privacy preserved, near-sink congestion
    relieved.
    """

    name = "proportional-delay"
    exponent: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (math.isfinite(self.exponent) and self.exponent >= 0):
            raise ValueError(
                f"exponent must be finite and non-negative, got {self.exponent}"
            )

    def materialize(self, context: DefenseContext) -> DefenseMaterialization:
        plan = SinkWeightedPlanner(
            reference_mean_delay=self.mean_delay, exponent=self.exponent
        ).plan(context.tree, context.flow_rates)
        return DefenseMaterialization(
            delay_plan=plan, buffers=self._buffers(context, "rcad")
        )


@dataclass(frozen=True)
class JitteredDelayDefense(_BoundedDelayDefense):
    """Uniform[0, 2/mu] per-hop delay over RCAD: same mean, bounded tail.

    The low-variance buffer variant: worst-case latency is capped at
    twice the mean per hop, trading some per-hop entropy for a hard
    delay bound -- the knob a latency-sensitive deployment would turn.
    """

    name = "jittered-delay"

    def materialize(self, context: DefenseContext) -> DefenseMaterialization:
        plan = DelayPlan(
            per_node={}, default=UniformDelay.from_mean(self.mean_delay)
        )
        return DefenseMaterialization(
            delay_plan=plan, buffers=self._buffers(context, "rcad")
        )


#: The process-wide registry with every built-in entry registered.
DEFENSES = DefenseRegistry()
DEFENSES.register(
    "no-delay", NoDelayDefense,
    "no artificial delay, unbounded buffers (paper case 1)",
)
DEFENSES.register(
    "infinite", InfiniteBufferDefense,
    "Exp(mu) per-hop delay, unbounded buffers (paper case 2)",
)
DEFENSES.register(
    "drop-tail", DropTailDefense,
    "Exp(mu) per-hop delay, bounded buffers dropping when full (§4)",
)
DEFENSES.register(
    "rcad", RcadDefense,
    "Exp(mu) per-hop delay, RCAD preemptive buffers (paper case 3)",
)
DEFENSES.register(
    "phantom", PhantomDefense,
    "random-walk routing prefix over RCAD (routing-layer defense)",
)
DEFENSES.register(
    "proportional-delay", ProportionalDelayDefense,
    "sink-weighted delay decomposition over RCAD (Section 3.3)",
)
DEFENSES.register(
    "jittered-delay", JitteredDelayDefense,
    "Uniform[0, 2/mu] per-hop delay over RCAD (bounded-tail variant)",
)
