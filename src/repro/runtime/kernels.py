"""Numpy batch kernels for the hot scoring paths.

Every figure scores thousands of packets per cell through
``Adversary.estimate_all``; at paper scale the per-observation Python
dispatch dominates scoring time.  These kernels compute whole arrival
sequences at once, performing *the same IEEE-754 operations in the
same order per element* as the scalar methods they replace, so the
vectorized estimates are bit-identical to the scalar oracle (the
equivalence tests in ``tests/test_runtime_kernels.py`` assert a 1e-9
bound and observe exact equality in practice).

The scalar implementations in :mod:`repro.core.adversary` and
:mod:`repro.queueing.erlang` remain in place as the oracle.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.packet import PacketObservation
    from repro.sim.results import DeliveryLog

__all__ = [
    "observation_arrays",
    "erlang_b_batch",
    "naive_estimates",
    "baseline_estimates",
    "adaptive_estimates",
    "path_table_estimates",
]


def observation_arrays(
    observations: "Sequence[PacketObservation] | DeliveryLog",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columnar view of an observation sequence.

    Returns ``(arrival_times, hop_counts, origins)`` -- float64,
    float64 and int64 arrays aligned with the input order.  A
    :class:`~repro.sim.results.DeliveryLog` already is columnar and
    hands over its own columns; only a sequence of
    :class:`~repro.net.packet.PacketObservation` objects is looped over.
    """
    if not isinstance(observations, Sequence):
        return observations.observation_arrays()
    n = len(observations)
    arrivals = np.empty(n, dtype=np.float64)
    hops = np.empty(n, dtype=np.float64)
    origins = np.empty(n, dtype=np.int64)
    for i, observation in enumerate(observations):
        arrivals[i] = observation.arrival_time
        hops[i] = observation.hop_count
        origins[i] = observation.origin
    return arrivals, hops, origins


def erlang_b_batch(offered_loads: np.ndarray, servers: int) -> np.ndarray:
    """Erlang-B blocking for a whole array of offered loads.

    Runs the same numerically stable recursion as
    :func:`repro.queueing.erlang.erlang_b`, iterated ``servers`` times
    over the array; identical operations per element, so identical
    results.  NaN loads propagate to NaN blocking (callers mask them).
    """
    if servers < 0:
        raise ValueError(f"server count must be non-negative, got {servers}")
    loads = np.asarray(offered_loads, dtype=np.float64)
    if np.any(loads < 0):  # NaNs compare False, as intended
        raise ValueError("offered loads must be non-negative")
    blocking = np.ones_like(loads)
    for k in range(1, servers + 1):
        blocking = loads * blocking / (k + loads * blocking)
    return blocking


def naive_estimates(
    arrivals: np.ndarray, hops: np.ndarray, transmission_delay: float
) -> np.ndarray:
    """Vector form of ``x_hat = z - h * tau``."""
    return arrivals - hops * transmission_delay


def baseline_estimates(
    arrivals: np.ndarray,
    hops: np.ndarray,
    transmission_delay: float,
    mean_delay_per_hop: float,
) -> np.ndarray:
    """Vector form of ``x_hat = z - h * (tau + 1/mu)``."""
    per_hop = transmission_delay + mean_delay_per_hop
    return arrivals - hops * per_hop


def adaptive_estimates(
    arrivals: np.ndarray,
    hops: np.ndarray,
    *,
    transmission_delay: float,
    mean_delay_per_hop: float,
    buffer_capacity: int,
    n_sources: int,
    preemption_threshold: float,
    warmup_observations: int,
    clamp_to_advertised: bool,
    prior_count: int = 0,
    prior_first_arrival: float | None = None,
) -> np.ndarray:
    """Batch replica of :class:`~repro.core.adversary.AdaptiveAdversary`.

    The adaptive adversary is stateful -- its rate estimate after
    observing packet ``i`` uses the first and the ``i``-th arrival and
    the running count -- but the state reduces to closed form over a
    batch: after observation ``i`` the count is ``prior_count + i + 1``
    and the window is ``[first_arrival, z_i]``.  ``prior_count`` /
    ``prior_first_arrival`` carry state from any scalar ``estimate``
    calls made before the batch, so mixing the two paths stays exact.
    """
    n = arrivals.size
    if n == 0:
        return np.empty(0, dtype=np.float64)
    first_arrival = (
        prior_first_arrival if prior_count > 0 else float(arrivals[0])
    )
    counts = prior_count + 1 + np.arange(n, dtype=np.int64)
    windows = arrivals - first_arrival
    has_rate = (counts >= 2) & (windows != 0.0)
    safe_windows = np.where(has_rate, windows, 1.0)
    rates = np.where(has_rate, (counts - 1) / safe_windows, np.nan)

    # Same expression shapes as the scalar path: mu = 1/(1/mu), then
    # rho = rate / mu -- *not* rate * mean_delay, which rounds
    # differently.
    mu = 1.0 / mean_delay_per_hop
    blocking = erlang_b_batch(np.where(has_rate, rates, np.nan) / mu, buffer_capacity)
    in_regime = (
        (counts >= warmup_observations)
        & has_rate
        & (blocking > preemption_threshold)
    )

    saturation = n_sources * buffer_capacity / np.where(has_rate, rates, 1.0)
    if clamp_to_advertised:
        saturation = np.minimum(saturation, mean_delay_per_hop)
    extra = np.where(in_regime, saturation, mean_delay_per_hop)
    per_hop = transmission_delay + extra
    return arrivals - hops * per_hop


def path_table_estimates(
    arrivals: np.ndarray,
    hops: np.ndarray,
    origins: np.ndarray,
    path_delay: Mapping[int, float],
    transmission_delay: float,
) -> np.ndarray:
    """Batch kernel for table-driven adversaries (path-aware, model-based).

    ``path_delay`` maps origin node id -> precomputed total extra path
    delay.  Unknown origins raise the same ``KeyError`` the scalar
    path raises.
    """
    unique_origins, inverse = np.unique(origins, return_inverse=True)
    delays = np.empty(unique_origins.size, dtype=np.float64)
    for i, origin in enumerate(unique_origins):
        try:
            delays[i] = path_delay[int(origin)]
        except KeyError:
            raise KeyError(
                f"no path knowledge for origin {int(origin)}; "
                f"known origins: {sorted(path_delay)}"
            )
    extra = delays[inverse]
    transmission = hops * transmission_delay
    return arrivals - transmission - extra
