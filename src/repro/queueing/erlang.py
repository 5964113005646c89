"""The Erlang loss (Erlang-B) formula and its inverse problems.

Equation (5) of the paper: for an M/M/k/k queue with offered load
``rho = lambda/mu`` the probability that an arriving packet finds all
``k`` buffer slots full is ::

    E(rho, k) = (rho^k / k!) / sum_{i=0..k} rho^i / i!

The paper uses this in two ways, both implemented here:

* *forward* -- given traffic rate lambda, buffer size k and delay
  parameter mu, predict the drop (or preemption) rate, which is what
  the **adaptive adversary** of Section 5.4 computes to decide whether
  preemption dominates;
* *inverse* -- given lambda, k and a target drop rate alpha, choose mu
  "so as to have a target packet drop rate alpha when using buffering
  to enhance privacy" (Section 4); nodes nearer the sink see larger
  lambda and must shrink 1/mu to hold alpha.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = [
    "erlang_b",
    "erlang_b_batch",
    "erlang_b_inverse_capacity",
    "offered_load_for_target_loss",
    "mu_for_target_loss",
]


def _check_servers(servers, minimum: int = 0) -> int:
    """Coerce ``servers`` to a plain int, rejecting non-integral types.

    Accepts anything indexable as an integer (``int``, ``numpy.int64``,
    ...) via :func:`operator.index`; rejects ``bool`` explicitly (it
    indexes as 0/1 but a boolean server count is always a bug).  Type
    errors fire *before* any range comparison, so a string argument
    raises ``TypeError`` rather than an unordered-comparison error.
    """
    if isinstance(servers, bool):
        raise TypeError("server count must be an integer, got bool")
    try:
        servers = operator.index(servers)
    except TypeError:
        raise TypeError(
            f"server count must be an integer, got {type(servers).__name__}"
        ) from None
    if servers < minimum:
        raise ValueError(
            f"server count must be at least {minimum}, got {servers}"
        )
    return servers


def erlang_b(offered_load: float, servers: int) -> float:
    """Blocking probability E(rho, k) of an M/M/k/k queue.

    Uses the standard numerically stable recursion ::

        E(rho, 0) = 1
        E(rho, k) = rho * E(rho, k-1) / (k + rho * E(rho, k-1))

    which avoids the overflowing factorials of the textbook form and is
    exact for all loads.

    Parameters
    ----------
    offered_load:
        rho = lambda / mu >= 0 (in Erlangs).
    servers:
        k >= 0, the number of buffer slots.

    Examples
    --------
    >>> round(erlang_b(2.0, 4), 6)
    0.095238
    >>> erlang_b(0.0, 3)
    0.0
    >>> import numpy as np
    >>> erlang_b(0.0, np.int64(3))
    0.0
    """
    servers = _check_servers(servers)
    if offered_load < 0:
        raise ValueError(f"offered load must be non-negative, got {offered_load}")
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = offered_load * blocking / (k + offered_load * blocking)
    return blocking


def erlang_b_batch(offered_loads: np.ndarray, servers: int) -> np.ndarray:
    """:func:`erlang_b` over a whole array of offered loads.

    The same recursion, iterated ``servers`` times over the array:
    identical operations per element, so identical results.  NaN loads
    propagate to NaN blocking (callers mask them).
    """
    servers = _check_servers(servers)
    loads = np.asarray(offered_loads, dtype=np.float64)
    if np.any(loads < 0):  # NaNs compare False, as intended
        raise ValueError("offered loads must be non-negative")
    blocking = np.ones_like(loads)
    for k in range(1, servers + 1):
        blocking = loads * blocking / (k + loads * blocking)
    return blocking


def erlang_b_inverse_capacity(offered_load: float, target_loss: float) -> int:
    """Smallest k with E(rho, k) <= target_loss.

    The buffer-provisioning question: how many slots must a node have
    to keep the drop rate at or below ``target_loss`` for a given load?
    """
    _check_target(target_loss)
    if offered_load < 0:
        raise ValueError(f"offered load must be non-negative, got {offered_load}")
    blocking = 1.0
    k = 0
    while blocking > target_loss:
        k += 1
        blocking = offered_load * blocking / (k + offered_load * blocking)
        if k > 10_000_000:  # pragma: no cover - guard against pathological targets
            raise RuntimeError("capacity search did not converge")
    return k


def offered_load_for_target_loss(servers: int, target_loss: float) -> float:
    """Largest rho with E(rho, k) <= target_loss.

    ``E(rho, k)`` is strictly increasing in rho (for k >= 1), so the
    answer is the unique root of ``E(rho, k) - target_loss``.
    """
    servers = _check_servers(servers, minimum=1)
    _check_target(target_loss)
    if erlang_b(0.0, servers) > target_loss:  # pragma: no cover - impossible: E(0,k)=0
        raise ValueError("target loss unattainable")
    # Bracket the root: blocking -> 1 as rho -> inf.
    hi = 1.0
    while erlang_b(hi, servers) < target_loss:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("load search did not converge")
    from scipy.optimize import brentq

    return float(brentq(lambda rho: erlang_b(rho, servers) - target_loss, 0.0, hi))


def mu_for_target_loss(arrival_rate: float, servers: int, target_loss: float) -> float:
    """Smallest service rate mu achieving E(lambda/mu, k) <= target_loss.

    This is the paper's Section 4 design rule: pick the delay parameter
    mu (i.e. mean extra delay 1/mu) at each node "so as to have a
    target packet drop rate alpha".  Nodes closer to the sink carry a
    larger aggregate ``arrival_rate`` and therefore get a larger mu
    (shorter delays).

    Returns the minimum admissible mu; any mu above it also meets the
    target (at the cost of privacy).
    """
    servers = _check_servers(servers, minimum=1)
    if arrival_rate <= 0:
        raise ValueError(f"arrival rate must be positive, got {arrival_rate}")
    max_load = offered_load_for_target_loss(servers, target_loss)
    return arrival_rate / max_load


def _check_target(target_loss: float) -> None:
    if not 0.0 < target_loss < 1.0:
        raise ValueError(
            f"target loss must be strictly between 0 and 1, got {target_loss}"
        )
