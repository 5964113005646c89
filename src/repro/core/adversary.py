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

All adversaries consume :class:`~repro.net.packet.PacketObservation`
objects only -- the construction of that type guarantees no ground
truth can leak into the estimate.  Handed a run's
:class:`~repro.sim.results.DeliveryLog`, :meth:`Adversary.estimate_all`
reads only its tap columns (arrival time, hop count, origin), or its
observation view.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.net.packet import PacketObservation
from repro.queueing.erlang import erlang_b
from repro.runtime import kernels

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
        if self.transmission_delay < 0:
            raise ValueError("transmission delay must be non-negative")
        if self.mean_delay_per_hop < 0:
            raise ValueError("mean delay per hop must be non-negative")
        if self.buffer_capacity is not None and self.buffer_capacity < 1:
            raise ValueError("buffer capacity must be at least 1")
        if self.n_sources < 1:
            raise ValueError("need at least one source")


class Adversary(abc.ABC):
    """Creation-time estimator run over sink observations.

    Observations must be fed in arrival order; stateful adversaries
    (the adaptive one) accumulate traffic statistics as they observe.
    """

    def __init__(self, knowledge: FlowKnowledge) -> None:
        self.knowledge = knowledge

    @abc.abstractmethod
    def estimate(self, observation: PacketObservation) -> float:
        """Estimated creation time x_hat for one observed packet."""

    def estimate_all(
        self, observations: "Sequence[PacketObservation] | DeliveryLog"
    ) -> list[float]:
        """Estimate a whole arrival sequence (must be in arrival order).

        ``observations`` is a sequence of observations or a run's
        :class:`~repro.sim.results.DeliveryLog`, whose columns feed the
        batch kernel without building per-packet objects.  Dispatches
        to the adversary's numpy batch kernel (:meth:`_estimate_batch`)
        when one exists; adversaries without one fall back to the
        per-observation scalar loop.  Both paths produce identical
        estimates (``tests/oracles.py`` keeps the scalar loop as the
        oracle the equivalence tests compare against).
        """
        if not len(observations):
            return []
        arrivals, hops, origins = kernels.observation_arrays(observations)
        self._check_arrival_order(arrivals)
        batch = self._estimate_batch(arrivals, hops, origins)
        if batch is None:
            if not isinstance(observations, Sequence):
                observations = observations.observations
            return [self.estimate(observation) for observation in observations]
        return batch.tolist()

    @staticmethod
    def _check_arrival_order(arrivals: np.ndarray) -> None:
        if arrivals.size > 1:
            steps = np.diff(arrivals)
            if np.any(steps < 0):
                offender = int(np.argmax(steps < 0))
                raise ValueError(
                    "observations must be supplied in arrival order; "
                    f"{arrivals[offender + 1]:g} after {arrivals[offender]:g}"
                )

    def _estimate_batch(
        self, arrivals: np.ndarray, hops: np.ndarray, origins: np.ndarray
    ) -> np.ndarray | None:
        """Batch estimates for a validated arrival sequence, or None.

        Subclasses with a vectorized kernel override this; returning
        None selects the scalar fallback.  Stateful adversaries must
        leave themselves in the same state the scalar loop would.
        """
        return None

    def reset(self) -> None:
        """Forget accumulated observation state (no-op by default)."""


class NaiveAdversary(Adversary):
    """x_hat = z - h * tau: the Section 2.1 baseline estimator.

    Exact when the network adds no artificial delay; the reference
    point showing an undefended network leaks creation times perfectly.
    """

    def estimate(self, observation: PacketObservation) -> float:
        return observation.arrival_time - (
            observation.hop_count * self.knowledge.transmission_delay
        )

    def _estimate_batch(self, arrivals, hops, origins):
        return kernels.naive_estimates(
            arrivals, hops, self.knowledge.transmission_delay
        )


class BaselineAdversary(Adversary):
    """x_hat = z - h * (tau + 1/mu): knows the delay distributions.

    The Section 5.1 estimator: subtracts the advertised mean artificial
    delay per hop on top of the transmission time, but keeps using the
    *original* delay distribution even when RCAD preemption has
    shortened the real delays -- the blind spot Figure 2(a) exposes.
    """

    def estimate(self, observation: PacketObservation) -> float:
        per_hop = (
            self.knowledge.transmission_delay + self.knowledge.mean_delay_per_hop
        )
        return observation.arrival_time - observation.hop_count * per_hop

    def _estimate_batch(self, arrivals, hops, origins):
        return kernels.baseline_estimates(
            arrivals,
            hops,
            self.knowledge.transmission_delay,
            self.knowledge.mean_delay_per_hop,
        )


class AdaptiveAdversary(Adversary):
    """The Section 5.4 adversary: detects preemption via Erlang loss.

    It estimates the aggregate sink traffic rate ``lambda_tot`` from
    the arrival stream it observes, computes the buffer-overflow
    probability ``E(lambda_tot / mu, k)`` and compares it against
    ``preemption_threshold`` (0.1 in the paper):

    * below the threshold, buffers rarely fill; it estimates like the
      baseline adversary (per-hop extra delay ``1/mu``);
    * above it, preemption dominates and the effective buffer drain
      time governs delays; it estimates the per-hop extra delay as
      ``n k / lambda_tot``.

    Parameters
    ----------
    knowledge:
        Must include ``buffer_capacity`` and ``n_sources``.
    preemption_threshold:
        Erlang-loss probability above which the adversary assumes the
        preemption-dominated regime.
    warmup_observations:
        Arrivals to observe before trusting the rate estimate; until
        then it behaves like the baseline adversary.
    clamp_to_advertised:
        If True (default), the preemption-regime estimate
        ``n k / lambda_tot`` is capped at the advertised mean ``1/mu``.
        RCAD preemption can only *shorten* realized delays, so a
        saturation estimate exceeding the advertised mean is evidence
        the saturation model does not apply at that load; without the
        clamp the raw paper formula badly overshoots at intermediate
        loads where only part of the path is saturated.
    """

    def __init__(
        self,
        knowledge: FlowKnowledge,
        preemption_threshold: float = 0.1,
        warmup_observations: int = 10,
        clamp_to_advertised: bool = True,
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
        if warmup_observations < 2:
            raise ValueError("need at least 2 warm-up observations")
        self.preemption_threshold = preemption_threshold
        self.warmup_observations = warmup_observations
        self.clamp_to_advertised = clamp_to_advertised
        self._first_arrival: float | None = None
        self._last_arrival: float | None = None
        self._arrival_count = 0

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._first_arrival = None
        self._last_arrival = None
        self._arrival_count = 0

    @property
    def observed_rate(self) -> float | None:
        """Estimated aggregate arrival rate lambda_tot at the sink."""
        if self._arrival_count < 2 or self._last_arrival == self._first_arrival:
            return None
        return (self._arrival_count - 1) / (self._last_arrival - self._first_arrival)

    def preemption_probability(self) -> float | None:
        """Erlang-loss estimate E(lambda_tot/mu, k) from observed traffic."""
        rate = self.observed_rate
        if rate is None:
            return None
        mu = 1.0 / self.knowledge.mean_delay_per_hop
        return erlang_b(rate / mu, self.knowledge.buffer_capacity)

    def in_preemption_regime(self) -> bool:
        """True once observed traffic implies loss above the threshold."""
        if self._arrival_count < self.warmup_observations:
            return False
        probability = self.preemption_probability()
        return probability is not None and probability > self.preemption_threshold

    # ------------------------------------------------------------------
    def estimate(self, observation: PacketObservation) -> float:
        self._record(observation)
        per_hop_extra = self._per_hop_extra_delay()
        per_hop = self.knowledge.transmission_delay + per_hop_extra
        return observation.arrival_time - observation.hop_count * per_hop

    def _record(self, observation: PacketObservation) -> None:
        if self._first_arrival is None:
            self._first_arrival = observation.arrival_time
        self._last_arrival = observation.arrival_time
        self._arrival_count += 1

    def _per_hop_extra_delay(self) -> float:
        if not self.in_preemption_regime():
            return self.knowledge.mean_delay_per_hop
        rate = self.observed_rate
        assert rate is not None  # in_preemption_regime implies a rate estimate
        capacity = self.knowledge.buffer_capacity
        assert capacity is not None  # enforced in __init__
        saturation_delay = self.knowledge.n_sources * capacity / rate
        if self.clamp_to_advertised:
            return min(saturation_delay, self.knowledge.mean_delay_per_hop)
        return saturation_delay

    def _estimate_batch(self, arrivals, hops, origins):
        capacity = self.knowledge.buffer_capacity
        assert capacity is not None  # enforced in __init__
        estimates = kernels.adaptive_estimates(
            arrivals,
            hops,
            transmission_delay=self.knowledge.transmission_delay,
            mean_delay_per_hop=self.knowledge.mean_delay_per_hop,
            buffer_capacity=capacity,
            n_sources=self.knowledge.n_sources,
            preemption_threshold=self.preemption_threshold,
            warmup_observations=self.warmup_observations,
            clamp_to_advertised=self.clamp_to_advertised,
            prior_count=self._arrival_count,
            prior_first_arrival=self._first_arrival,
        )
        # Leave the adversary in the exact state the scalar loop would:
        # every batch observation has been recorded.
        if self._first_arrival is None:
            self._first_arrival = float(arrivals[0])
        self._last_arrival = float(arrivals[-1])
        self._arrival_count += int(arrivals.size)
        return estimates


class PathAwareAdaptiveAdversary(Adversary):
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
        first.  Typically computed with
        :class:`repro.queueing.tandem.QueueTreeModel`.
    preemption_threshold:
        Per-node Erlang-loss switching threshold.
    """

    def __init__(
        self,
        knowledge: FlowKnowledge,
        path_rates: dict[int, list[float]],
        preemption_threshold: float = 0.1,
    ) -> None:
        super().__init__(knowledge)
        if knowledge.buffer_capacity is None:
            raise ValueError("path-aware adversary needs the buffer capacity k")
        if knowledge.mean_delay_per_hop <= 0:
            raise ValueError("path-aware adversary needs the advertised mean 1/mu")
        if not 0.0 < preemption_threshold < 1.0:
            raise ValueError(
                f"threshold must be in (0, 1), got {preemption_threshold}"
            )
        if not path_rates:
            raise ValueError("need per-path rate knowledge for at least one origin")
        self.preemption_threshold = preemption_threshold
        self._path_delay: dict[int, float] = {
            origin: self._predict_path_delay(rates)
            for origin, rates in path_rates.items()
        }

    def _predict_path_delay(self, node_rates: list[float]) -> float:
        mu = 1.0 / self.knowledge.mean_delay_per_hop
        capacity = self.knowledge.buffer_capacity
        assert capacity is not None  # enforced in __init__
        total = 0.0
        for rate in node_rates:
            if rate <= 0:
                total += self.knowledge.mean_delay_per_hop
                continue
            blocking = erlang_b(rate / mu, capacity)
            if blocking > self.preemption_threshold:
                total += min(self.knowledge.mean_delay_per_hop, capacity / rate)
            else:
                total += self.knowledge.mean_delay_per_hop
        return total

    def estimate(self, observation: PacketObservation) -> float:
        try:
            extra = self._path_delay[observation.origin]
        except KeyError:
            raise KeyError(
                f"no path knowledge for origin {observation.origin}; "
                f"known origins: {sorted(self._path_delay)}"
            )
        transmission = observation.hop_count * self.knowledge.transmission_delay
        return observation.arrival_time - transmission - extra

    def _estimate_batch(self, arrivals, hops, origins):
        return kernels.path_table_estimates(
            arrivals, hops, origins, self._path_delay,
            self.knowledge.transmission_delay,
        )


class ModelBasedAdversary(Adversary):
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

    def __init__(
        self,
        knowledge: FlowKnowledge,
        path_rates: dict[int, list[float]],
    ) -> None:
        super().__init__(knowledge)
        if knowledge.buffer_capacity is None:
            raise ValueError("model-based adversary needs the buffer capacity k")
        if knowledge.mean_delay_per_hop <= 0:
            raise ValueError("model-based adversary needs the advertised mean 1/mu")
        if not path_rates:
            raise ValueError("need per-path rate knowledge for at least one origin")
        # Imported here to keep module import costs flat for users that
        # never instantiate this adversary.
        from repro.queueing.rcad_model import RcadNodeModel

        mu = 1.0 / knowledge.mean_delay_per_hop
        capacity = knowledge.buffer_capacity
        self._path_delay: dict[int, float] = {}
        for origin, rates in path_rates.items():
            total = 0.0
            for rate in rates:
                if rate <= 0:
                    total += knowledge.mean_delay_per_hop
                    continue
                total += RcadNodeModel(
                    arrival_rate=rate, service_rate=mu, capacity=capacity
                ).mean_delay
            self._path_delay[origin] = total

    def estimate(self, observation: PacketObservation) -> float:
        try:
            extra = self._path_delay[observation.origin]
        except KeyError:
            raise KeyError(
                f"no path knowledge for origin {observation.origin}; "
                f"known origins: {sorted(self._path_delay)}"
            )
        transmission = observation.hop_count * self.knowledge.transmission_delay
        return observation.arrival_time - transmission - extra

    def _estimate_batch(self, arrivals, hops, origins):
        return kernels.path_table_estimates(
            arrivals, hops, origins, self._path_delay,
            self.knowledge.transmission_delay,
        )
