"""Closed-form differential entropies (natural log -> nats).

Temporal privacy trades in a handful of standard laws:

* **exponential** delays -- the paper's central choice, "the well-known
  fact that the exponential distribution yields maximal entropy for
  non-negative distributions" (of a given mean);
* **uniform** and **constant** delays -- the ablation comparators;
* **Erlang** -- the creation time of the j-th packet of a Poisson
  source is j-stage Erlangian (Section 3.2);
* **Gaussian** -- the tractable case where mutual information has a
  closed form, used to validate the empirical estimators.
"""

from __future__ import annotations

import math

__all__ = [
    "exponential_entropy",
    "uniform_entropy",
    "gaussian_entropy",
    "erlang_entropy",
    "gaussian_mutual_information",
    "max_entropy_nonnegative_is_exponential",
]


def exponential_entropy(rate: float) -> float:
    """h(Exp(rate)) = 1 - ln(rate) nats.

    For the paper's delay Y ~ Exp(mu) with mean 1/mu this is
    ``1 - ln(mu)`` -- increasing the mean delay increases entropy.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return 1.0 - math.log(rate)


def uniform_entropy(width: float) -> float:
    """h(Uniform over an interval of length ``width``) = ln(width)."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return math.log(width)


def gaussian_entropy(variance: float) -> float:
    """h(N(m, variance)) = 0.5 ln(2 pi e variance)."""
    if variance <= 0:
        raise ValueError(f"variance must be positive, got {variance}")
    return 0.5 * math.log(2.0 * math.pi * math.e * variance)


def erlang_entropy(shape: int, rate: float) -> float:
    """Entropy of the Erlang(shape, rate) distribution.

    ``h = shape - ln(rate) + ln Gamma(shape) + (1 - shape) psi(shape)``
    where psi is the digamma function.  ``shape = 1`` recovers the
    exponential entropy.
    """
    if shape < 1:
        raise ValueError(f"shape must be a positive integer, got {shape}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    from scipy.special import digamma

    return (
        shape
        - math.log(rate)
        + math.lgamma(shape)
        + (1.0 - shape) * float(digamma(shape))
    )


def gaussian_mutual_information(signal_variance: float, noise_variance: float) -> float:
    """I(X; X+Y) for independent Gaussians, in nats.

    ``0.5 ln(1 + signal/noise)`` -- the exactly solvable instance of the
    paper's channel ``Z = X + Y`` (here ``Y`` is the masking delay, so
    *more* "noise" means *less* leaked information).
    """
    if signal_variance < 0 or noise_variance <= 0:
        raise ValueError("variances must be positive (signal may be zero)")
    return 0.5 * math.log(1.0 + signal_variance / noise_variance)


def max_entropy_nonnegative_is_exponential(mean: float, candidates: dict[str, float]) -> bool:
    """Check h(Exp) >= h(candidate) for same-mean non-negative laws.

    ``candidates`` maps a label to the entropy of a non-negative
    distribution with the given mean.  Returns True when the
    exponential dominates all of them -- the paper's motivation for
    exponential delays, used as an executable sanity check in tests.
    """
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    exp_entropy = exponential_entropy(1.0 / mean)
    return all(exp_entropy >= h - 1e-12 for h in candidates.values())
