"""Empirical-Bayes creation-time estimation (extension).

The paper's adversaries subtract a *mean* delay.  The optimal
estimator for a known prior is the posterior mean
``E[X | Z = z] = integral x f_X(x) f_Y(z - x) dx / integral ...`` --
and the prior f_X need not be given: the Agrawal-Aggarwal EM procedure
(paper ref [1], :mod:`repro.infotheory.deconvolution`) reconstructs it
from the very arrival stream under attack.  Chaining the two yields a
two-stage **empirical-Bayes attack**:

1. deconvolve the (believed) delay density out of the arrival
   histogram to learn the creation-time prior;
2. estimate every packet by its posterior mean under that prior.

Against structured traffic (bursty activity patterns) this crushes the
mean-subtracting adversaries wherever the delay model is right -- and
under RCAD it inherits the same wrong delay model, so the paper's
defence degrades this stronger attack too.  The benchmark quantifies
both halves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from repro.core.adversary import Adversary, FlowKnowledge
from repro.infotheory.deconvolution import em_deconvolve

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.results import DeliveryLog

__all__ = ["EmpiricalBayesAdversary", "erlang_path_delay_pdf"]


def erlang_path_delay_pdf(
    hop_count: int, mean_delay_per_hop: float, transmission_delay: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Density of a path's total believed delay.

    Sum of ``hop_count`` i.i.d. Exp(mean) artificial delays --
    Erlang(h, 1/mean) -- shifted by the deterministic transmission
    time ``hop_count * tau``.  This is the delay model a Kerckhoff
    adversary holds for a flow with hop count h (correct for unlimited
    buffers; optimistic under RCAD).
    """
    if hop_count < 1:
        raise ValueError(f"hop count must be >= 1, got {hop_count}")
    if mean_delay_per_hop <= 0:
        raise ValueError(f"mean delay must be positive, got {mean_delay_per_hop}")
    from scipy import stats as scipy_stats

    erlang = scipy_stats.gamma(a=hop_count, scale=mean_delay_per_hop)
    shift = hop_count * transmission_delay

    def pdf(lag: np.ndarray) -> np.ndarray:
        return erlang.pdf(np.asarray(lag, dtype=float) - shift)

    return pdf


class EmpiricalBayesAdversary(Adversary):
    """Two-stage attack: EM-learned prior + posterior-mean estimates.

    Call :meth:`fit` with the run's full
    :class:`~repro.sim.results.DeliveryLog` first (the EM stage needs
    the whole arrival histogram); :meth:`estimate_all` then produces
    the per-packet posterior means.

    Parameters
    ----------
    knowledge:
        Must carry the advertised ``mean_delay_per_hop`` (> 0).
    hop_counts:
        Mapping origin node id -> path hop count (readable from any
        one header; fixed per flow).
    grid_step:
        Resolution of the creation-time grid used by both stages.
    """

    def __init__(
        self,
        knowledge: FlowKnowledge,
        hop_counts: Mapping[int, int],
        grid_step: float = 10.0,
    ) -> None:
        super().__init__(knowledge)
        if knowledge.mean_delay_per_hop <= 0:
            raise ValueError("empirical-Bayes adversary needs the mean delay 1/mu")
        if not hop_counts:
            raise ValueError("need hop counts for at least one origin")
        if grid_step <= 0:
            raise ValueError(f"grid step must be positive, got {grid_step}")
        self.hop_counts = dict(hop_counts)
        self.grid_step = float(grid_step)
        self._posterior_mean: dict[int, Callable[[float], float]] = {}

    # ------------------------------------------------------------------
    def fit(self, delivery: "DeliveryLog") -> None:
        """Stage 1: learn each flow's creation-time prior by EM.

        Reads ``delivery`` only through
        :meth:`~repro.sim.results.DeliveryLog.observation_arrays`.
        """
        if not len(delivery):
            raise ValueError("cannot fit on zero observations")
        all_arrivals, _, origins = delivery.observation_arrays()
        self._posterior_mean.clear()
        for origin in np.unique(origins).tolist():
            hops = self._hops_for(origin)
            delay_pdf = erlang_path_delay_pdf(
                hops,
                self.knowledge.mean_delay_per_hop,
                self.knowledge.transmission_delay,
            )
            arrivals = all_arrivals[origins == origin]
            grid = np.arange(0.0, arrivals.max() + self.grid_step, self.grid_step)
            prior = em_deconvolve(arrivals, delay_pdf, grid)
            self._posterior_mean[origin] = self._make_estimator(
                prior.grid, prior.density, delay_pdf
            )

    @staticmethod
    def _make_estimator(grid, masses, delay_pdf):
        def posterior_mean(z: float) -> float:
            weights = masses * delay_pdf(z - grid)
            total = weights.sum()
            if total <= 0:
                # Unexplainable arrival (numerically): fall back to the
                # prior mean, the best constant estimate.
                return float(np.dot(grid, masses))
            return float(np.dot(grid, weights) / total)

        return posterior_mean

    def _hops_for(self, origin: int) -> int:
        try:
            return self.hop_counts[origin]
        except KeyError:
            raise KeyError(
                f"no hop count for origin {origin}; known: {sorted(self.hop_counts)}"
            )

    # ------------------------------------------------------------------
    def _estimates(self, arrivals, hops, origins):
        if not self._posterior_mean:
            raise RuntimeError(
                "EmpiricalBayesAdversary.fit must run before estimation"
            )
        estimates = np.empty(arrivals.size)
        for i, (z, origin) in enumerate(zip(arrivals.tolist(), origins.tolist())):
            try:
                estimator = self._posterior_mean[origin]
            except KeyError:
                raise KeyError(
                    f"adversary was not fitted on origin {origin}"
                ) from None
            estimates[i] = estimator(z)
        return estimates

    def reset(self) -> None:
        """Forget the fitted priors."""
        self._posterior_mean.clear()
