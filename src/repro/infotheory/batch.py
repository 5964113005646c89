"""Batch (numpy) forms of the closed-form information quantities.

The bounds notebooks and benchmark harness evaluate the closed-form
entropies and MMSE bounds over whole parameter grids; these kernels
compute a full array per call instead of one float per call.  Each
mirrors its scalar counterpart in :mod:`repro.infotheory.entropy` /
:mod:`repro.infotheory.mmse` -- the scalar functions remain the oracle
for the equivalence tests -- and applies the same domain checks, raised
for the first offending element.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "exponential_entropy_batch",
    "uniform_entropy_batch",
    "gaussian_entropy_batch",
    "erlang_entropy_batch",
    "gaussian_mutual_information_batch",
    "mmse_lower_bound_from_mi_batch",
]


def _positive(values: np.ndarray, name: str) -> None:
    if np.any(values <= 0):
        offender = float(values[values <= 0][0])
        raise ValueError(f"{name} must be positive, got {offender}")


def exponential_entropy_batch(rates: np.ndarray) -> np.ndarray:
    """Vector form of ``h(Exp(rate)) = 1 - ln(rate)``."""
    rates = np.asarray(rates, dtype=np.float64)
    _positive(rates, "rate")
    return 1.0 - np.log(rates)


def uniform_entropy_batch(widths: np.ndarray) -> np.ndarray:
    """Vector form of ``h(Uniform(width)) = ln(width)``."""
    widths = np.asarray(widths, dtype=np.float64)
    _positive(widths, "width")
    return np.log(widths)


def gaussian_entropy_batch(variances: np.ndarray) -> np.ndarray:
    """Vector form of ``h(N(m, v)) = 0.5 ln(2 pi e v)``."""
    variances = np.asarray(variances, dtype=np.float64)
    _positive(variances, "variance")
    return 0.5 * np.log(2.0 * math.pi * math.e * variances)


def erlang_entropy_batch(shapes: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Vector form of the Erlang(shape, rate) entropy.

    ``shapes`` and ``rates`` broadcast against each other; shapes must
    be positive integers (Erlang, not general Gamma).
    """
    from scipy.special import digamma, gammaln

    shapes = np.asarray(shapes)
    if np.any(shapes < 1):
        offender = shapes[shapes < 1].ravel()[0]
        raise ValueError(f"shape must be a positive integer, got {offender}")
    shapes = shapes.astype(np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    _positive(rates, "rate")
    return (
        shapes
        - np.log(rates)
        + gammaln(shapes)
        + (1.0 - shapes) * digamma(shapes)
    )


def gaussian_mutual_information_batch(
    signal_variances: np.ndarray, noise_variances: np.ndarray
) -> np.ndarray:
    """Vector form of ``I(X; X+Y) = 0.5 ln(1 + signal/noise)``."""
    signal = np.asarray(signal_variances, dtype=np.float64)
    noise = np.asarray(noise_variances, dtype=np.float64)
    if np.any(signal < 0) or np.any(noise <= 0):
        raise ValueError("variances must be positive (signal may be zero)")
    return 0.5 * np.log(1.0 + signal / noise)


def mmse_lower_bound_from_mi_batch(
    h_x_nats: np.ndarray, mi_nats: np.ndarray
) -> np.ndarray:
    """Vector form of the entropy-power MSE floor.

    ``(1 / 2 pi e) exp(2 (h(X) - I(X; Z)))`` elementwise, broadcasting
    the two arguments against each other.
    """
    h_x = np.asarray(h_x_nats, dtype=np.float64)
    mi = np.asarray(mi_nats, dtype=np.float64)
    if np.any(mi < 0):
        offender = float(mi[mi < 0].ravel()[0])
        raise ValueError(f"mutual information cannot be negative, got {offender}")
    return np.exp(2.0 * (h_x - mi)) / (2.0 * math.pi * math.e)
