"""Adversary models: estimating packet creation times at the sink.

The adversary sits at the sink, reads cleartext headers and arrival
times, and estimates each packet's creation time.  By Kerckhoff's
principle it knows the deployment, routing, per-hop transmission delay
tau, the delay distributions (mean per-hop extra delay 1/mu) and the
buffer capacity k.  Three estimators of increasing sophistication:

* :class:`NaiveAdversary` -- ``x_hat = z - h * tau`` (Section 2.1): only
  accounts for transmission time; exact against an undefended network;
* :class:`BaselineAdversary` -- ``x_hat = z - h * (tau + 1/mu)``
  (Section 5.1): additionally subtracts the *advertised* mean privacy
  delay, "neglecting the fact that some packets may have shorter delays
  ... due to packet preemptions";
* :class:`AdaptiveAdversary` -- (Section 5.4) uses the Erlang loss
  formula on the traffic rate it *observes* at the sink to detect when
  RCAD preemption dominates, and then switches its per-hop delay
  estimate from ``1/mu`` to ``n k / lambda_tot``.

Every adversary has one estimator: :meth:`Adversary.estimate_all`
reads a run's :class:`~repro.sim.results.DeliveryLog` only through
:meth:`~repro.sim.results.DeliveryLog.observation_arrays` -- arrival
time, hop count and origin, no ground truth -- validates the arrival
order and hands the columns to the subclass's columnar
:meth:`~Adversary._estimates`.  Each estimate is a pure function of
the stream passed in.  The per-packet scalar formulas live in
``tests/oracles.py`` as the oracle these columns are checked against.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.queueing.erlang import erlang_b, erlang_b_batch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.results import DeliveryLog

__all__ = [
    "FlowKnowledge",
    "Adversary",
    "NaiveAdversary",
    "BaselineAdversary",
    "AdaptiveAdversary",
    "PathAwareAdaptiveAdversary",
    "ModelBasedAdversary",
]

#: Arrivals the adaptive adversary observes before it trusts its rate
#: estimate; until then it estimates like the baseline adversary.
WARMUP_OBSERVATIONS = 10


@dataclass(frozen=True)
class FlowKnowledge:
    """Deployment knowledge the adversary holds (Kerckhoff's principle).

    Attributes
    ----------
    transmission_delay:
        tau, the constant per-hop transmit time.
    mean_delay_per_hop:
        1/mu, the advertised mean artificial delay per hop (0 for an
        undefended network).
    buffer_capacity:
        k, per-node buffer slots (None if advertised as unbounded).
    n_sources:
        Number of sources whose flows converge before the sink; the
        adaptive adversary's ``n`` in the ``n k / lambda_tot`` rule.
    """

    transmission_delay: float = 1.0
    mean_delay_per_hop: float = 0.0
    buffer_capacity: int | None = None
    n_sources: int = 1

    def __post_init__(self) -> None:
        for name in ("transmission_delay", "mean_delay_per_hop"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value}"
                )
        if self.buffer_capacity is not None and self.buffer_capacity < 1:
            raise ValueError("buffer capacity must be at least 1")
        if self.n_sources < 1:
            raise ValueError("need at least one source")


class Adversary(abc.ABC):
    """Creation-time estimator run over an arrival-ordered sink stream."""

    def __init__(self, knowledge: FlowKnowledge) -> None:
        self.knowledge = knowledge

    def estimate_all(self, delivery: "DeliveryLog") -> list[float]:
        """Estimated creation time of every packet, in input order.

        ``delivery`` is a run's :class:`~repro.sim.results.DeliveryLog`
        (or a :meth:`~repro.sim.results.DeliveryLog.take` of it), in
        arrival order.
        """
        if not len(delivery):
            return []
        arrivals, hops, origins = delivery.observation_arrays()
        steps = np.diff(arrivals)
        if np.any(steps < 0):
            offender = int(np.argmax(steps < 0))
            raise ValueError(
                "observations must be supplied in arrival order; "
                f"{arrivals[offender + 1]:g} after {arrivals[offender]:g}"
            )
        return self._estimates(arrivals, hops, origins).tolist()

    @abc.abstractmethod
    def _estimates(
        self, arrivals: np.ndarray, hops: np.ndarray, origins: np.ndarray
    ) -> np.ndarray:
        """Estimates for a non-empty stream already checked for order."""


class NaiveAdversary(Adversary):
    """x_hat = z - h * tau: the Section 2.1 baseline estimator.

    Exact when the network adds no artificial delay; the reference
    point showing an undefended network leaks creation times perfectly.
    """

    def _estimates(self, arrivals, hops, origins):
        return arrivals - hops * self.knowledge.transmission_delay


class BaselineAdversary(Adversary):
    """x_hat = z - h * (tau + 1/mu): knows the delay distributions.

    The Section 5.1 estimator: subtracts the advertised mean artificial
    delay per hop on top of the transmission time, but keeps using the
    *original* delay distribution even when RCAD preemption has
    shortened the real delays -- the blind spot Figure 2(a) exposes.
    """

    def _estimates(self, arrivals, hops, origins):
        per_hop = (
            self.knowledge.transmission_delay + self.knowledge.mean_delay_per_hop
        )
        return arrivals - hops * per_hop


class AdaptiveAdversary(Adversary):
    """The Section 5.4 adversary: detects preemption via Erlang loss.

    Before estimating packet ``i`` it has seen ``i + 1`` arrivals and
    takes the aggregate sink rate as ``lambda_tot = i / (z_i - z_0)``.
    It computes the buffer-overflow probability ``E(lambda_tot / mu, k)``
    and compares it against ``preemption_threshold`` (0.1 in the paper):

    * below the threshold, or before it has seen
      :data:`WARMUP_OBSERVATIONS` arrivals, buffers rarely fill; it
      estimates like the baseline adversary (per-hop extra delay
      ``1/mu``);
    * above it, preemption dominates and the effective buffer drain
      time governs delays; it estimates the per-hop extra delay as
      ``n k / lambda_tot``, capped at the advertised mean ``1/mu``.
      RCAD preemption can only *shorten* realized delays, so a
      saturation estimate above the advertised mean is evidence the
      saturation model does not apply at that load; without the cap the
      raw paper formula badly overshoots at intermediate loads where
      only part of the path is saturated.

    Parameters
    ----------
    knowledge:
        Must include ``buffer_capacity`` and ``n_sources``.
    preemption_threshold:
        Erlang-loss probability above which the adversary assumes the
        preemption-dominated regime.
    """

    def __init__(
        self, knowledge: FlowKnowledge, preemption_threshold: float = 0.1
    ) -> None:
        super().__init__(knowledge)
        if knowledge.buffer_capacity is None:
            raise ValueError("adaptive adversary needs the buffer capacity k")
        if knowledge.mean_delay_per_hop <= 0:
            raise ValueError(
                "adaptive adversary needs the advertised mean delay 1/mu"
            )
        if not 0.0 < preemption_threshold < 1.0:
            raise ValueError(
                f"threshold must be in (0, 1), got {preemption_threshold}"
            )
        self.preemption_threshold = preemption_threshold

    def _estimates(self, arrivals, hops, origins):
        knowledge = self.knowledge
        mean_delay = knowledge.mean_delay_per_hop
        counts = np.arange(1, arrivals.size + 1, dtype=np.int64)
        windows = arrivals - arrivals[0]
        has_rate = windows > 0.0
        rates = np.where(
            has_rate, (counts - 1) / np.where(has_rate, windows, 1.0), np.nan
        )
        # rho = rate / mu with mu = 1/(1/mu) -- *not* rate * mean_delay,
        # which rounds differently.  NaN rates give NaN blocking, which
        # compares False below.
        blocking = erlang_b_batch(
            rates / (1.0 / mean_delay), knowledge.buffer_capacity
        )
        in_regime = (counts >= WARMUP_OBSERVATIONS) & (
            blocking > self.preemption_threshold
        )
        saturation = np.minimum(
            knowledge.n_sources
            * knowledge.buffer_capacity
            / np.where(has_rate, rates, 1.0),
            mean_delay,
        )
        extra = np.where(in_regime, saturation, mean_delay)
        return arrivals - hops * (knowledge.transmission_delay + extra)


class _PathTableAdversary(Adversary):
    """An adversary that knows every hop's aggregate rate on each path.

    ``path_rates`` maps origin node id -> aggregate arrival rates
    lambda_v at each buffering node on that origin's path, source
    first (typically from :class:`repro.queueing.tandem.QueueTreeModel`).
    Subclasses predict one hop's mean extra delay from its rate; the
    estimate subtracts the path's transmission time and the sum of
    those predictions.
    """

    _label = ""

    def __init__(
        self, knowledge: FlowKnowledge, path_rates: Mapping[int, list[float]]
    ) -> None:
        super().__init__(knowledge)
        if knowledge.buffer_capacity is None:
            raise ValueError(f"{self._label} adversary needs the buffer capacity k")
        if knowledge.mean_delay_per_hop <= 0:
            raise ValueError(f"{self._label} adversary needs the advertised mean 1/mu")
        if not path_rates:
            raise ValueError("need per-path rate knowledge for at least one origin")
        self.path_rates = {origin: list(rates) for origin, rates in path_rates.items()}
        self._path_delay = {
            origin: sum(
                (
                    self._hop_delay(rate) if rate > 0 else knowledge.mean_delay_per_hop
                    for rate in rates
                ),
                0.0,
            )
            for origin, rates in self.path_rates.items()
        }

    @abc.abstractmethod
    def _hop_delay(self, rate: float) -> float:
        """Predicted mean extra delay at a node with aggregate rate > 0."""

    def _estimates(self, arrivals, hops, origins):
        unique_origins, inverse = np.unique(origins, return_inverse=True)
        try:
            delays = np.array(
                [self._path_delay[origin] for origin in unique_origins.tolist()]
            )
        except KeyError as exc:
            raise KeyError(
                f"no path knowledge for origin {exc.args[0]}; "
                f"known origins: {sorted(self._path_delay)}"
            ) from None
        return arrivals - hops * self.knowledge.transmission_delay - delays[inverse]


class PathAwareAdaptiveAdversary(_PathTableAdversary):
    """Extension: a deployment-aware adversary modelling every hop.

    The paper's adaptive adversary treats the whole path as uniformly
    saturated.  A deployment-aware adversary can do better: it knows
    the routing tree (Kerckhoff), so it knows the *aggregate* rate
    lambda_v at every node v on a flow's path.  For each hop it
    predicts the mean extra delay as ::

        1/mu                      if E(lambda_v / mu, k) <= threshold
        min(1/mu, k / lambda_v)   otherwise

    i.e. the advertised delay where the buffer rarely fills, and the
    Little's-law drain time k/lambda_v of a saturated RCAD buffer where
    it does.  This is the strongest timing adversary in the library and
    the benchmark suite uses it to upper-bound how much of RCAD's
    privacy gain survives full deployment knowledge.

    Parameters
    ----------
    knowledge:
        Baseline flow knowledge (tau, 1/mu, k).
    path_rates:
        Mapping origin node id -> list of aggregate arrival rates
        lambda_v at each buffering node on that origin's path, source
        first.
    preemption_threshold:
        Per-node Erlang-loss switching threshold.
    """

    _label = "path-aware"

    def __init__(
        self,
        knowledge: FlowKnowledge,
        path_rates: Mapping[int, list[float]],
        preemption_threshold: float = 0.1,
    ) -> None:
        if not 0.0 < preemption_threshold < 1.0:
            raise ValueError(
                f"threshold must be in (0, 1), got {preemption_threshold}"
            )
        self.preemption_threshold = preemption_threshold
        super().__init__(knowledge, path_rates)

    def _hop_delay(self, rate: float) -> float:
        mean_delay = self.knowledge.mean_delay_per_hop
        capacity = self.knowledge.buffer_capacity
        if erlang_b(rate / (1.0 / mean_delay), capacity) > self.preemption_threshold:
            return min(mean_delay, capacity / rate)
        return mean_delay


class ModelBasedAdversary(_PathTableAdversary):
    """Extension: estimates via the closed-form RCAD node model.

    The strongest analytic adversary in the library: it predicts each
    hop's mean RCAD delay with the exact Little's-law result
    ``(1 - E(lambda_v/mu, k)) / mu`` (see
    :mod:`repro.queueing.rcad_model`), which interpolates smoothly
    between the advertised delay and the saturated drain time instead
    of switching between them at a threshold.  Against RCAD its
    creation-time estimates are nearly unbiased at every load; the MSE
    that remains is pure delay *variance* -- the irreducible privacy
    floor randomness buys.

    Parameters
    ----------
    knowledge:
        Baseline flow knowledge (tau, 1/mu, k).
    path_rates:
        Mapping origin node id -> aggregate arrival rates lambda_v at
        each buffering node on that origin's path, source first.
    """

    _label = "model-based"

    def _hop_delay(self, rate: float) -> float:
        # Imported here to keep module import costs flat for users that
        # never instantiate this adversary.
        from repro.queueing.rcad_model import RcadNodeModel

        return RcadNodeModel(
            arrival_rate=rate,
            service_rate=1.0 / self.knowledge.mean_delay_per_hop,
            capacity=self.knowledge.buffer_capacity,
        ).mean_delay
