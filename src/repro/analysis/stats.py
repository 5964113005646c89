"""Replication statistics: summaries and confidence intervals."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["SummaryStats", "summarize", "bootstrap_ci"]


@dataclass(frozen=True)
class SummaryStats:
    """Mean with a symmetric confidence interval."""

    mean: float
    std: float
    n: int
    ci_low: float
    ci_high: float
    confidence: float

    @property
    def half_width(self) -> float:
        """Half-width of the confidence interval."""
        return (self.ci_high - self.ci_low) / 2.0


def summarize(samples: Sequence[float], confidence: float = 0.95) -> SummaryStats:
    """Student-t confidence interval for the mean of ``samples``.

    With a single sample the interval degenerates to the point itself.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        raise ValueError("cannot summarize an empty sample")
    mean = float(values.mean())
    if values.size == 1:
        return SummaryStats(mean, 0.0, 1, mean, mean, confidence)
    from scipy.special import stdtrit  # what scipy.stats.t.ppf evaluates

    std = float(values.std(ddof=1))
    sem = std / math.sqrt(values.size)
    t_crit = float(stdtrit(values.size - 1, 0.5 + confidence / 2.0))
    return SummaryStats(
        mean=mean,
        std=std,
        n=int(values.size),
        ci_low=mean - t_crit * sem,
        ci_high=mean + t_crit * sem,
        confidence=confidence,
    )


def bootstrap_ci(
    samples: Sequence[float],
    statistic: Callable[[np.ndarray], float] = np.mean,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap confidence interval for any statistic.

    Used for skewed metrics (MSE is heavy-tailed under preemption)
    where the t-interval of :func:`summarize` is unreliable.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    values = np.asarray(samples, dtype=float)
    if values.size < 2:
        raise ValueError("bootstrap needs at least 2 samples")
    rng = np.random.Generator(np.random.PCG64(seed))
    estimates = np.empty(n_resamples)
    for i in range(n_resamples):
        resample = values[rng.integers(values.size, size=values.size)]
        estimates[i] = statistic(resample)
    alpha = (1.0 - confidence) / 2.0
    return (
        float(np.quantile(estimates, alpha)),
        float(np.quantile(estimates, 1.0 - alpha)),
    )
