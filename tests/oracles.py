"""Reference implementations that the optimized library code must match.

Each function here is the plain, obviously-correct form of something
``src/`` computes faster: the O(k) victim scans RCAD preemption started
from, the per-packet adversary formulas, the textbook Erlang-B sum, and
the per-point KSG neighbour count.  They live with the tests because
only the tests run them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.adversary import (
    WARMUP_OBSERVATIONS,
    AdaptiveAdversary,
    BaselineAdversary,
    ModelBasedAdversary,
    NaiveAdversary,
    PathAwareAdaptiveAdversary,
)
from repro.core.buffers import BufferedEntry
from repro.queueing.erlang import _check_servers, erlang_b

# ----------------------------------------------------------------------
# RCAD victim selection: one linear scan per policy name.

_SCANS = {
    "shortest-remaining": lambda entries, rng: min(
        entries, key=lambda e: (e.release_time, e.entry_id)
    ),
    "longest-remaining": lambda entries, rng: max(
        entries, key=lambda e: (e.release_time, -e.entry_id)
    ),
    "oldest-arrival": lambda entries, rng: min(
        entries, key=lambda e: (e.arrival_time, e.entry_id)
    ),
    "newest-arrival": lambda entries, rng: max(
        entries, key=lambda e: (e.arrival_time, e.entry_id)
    ),
    "random": lambda entries, rng: entries[int(rng.integers(len(entries)))],
}


def select_victim(policy, entries, now, rng) -> BufferedEntry:
    """The entry ``policy`` preempts from ``entries`` (insertion order).

    ``entries`` is not mutated; an empty list raises ``ValueError``.
    """
    if not entries:
        raise ValueError("cannot select a victim from an empty buffer")
    return _SCANS[policy.name](entries, rng)


@dataclass
class NodeReplay:
    """What :func:`replay_node` saw: the fields :class:`Replay` reports."""

    departures: list = field(default_factory=list)  # (time, index)
    victims: list = field(default_factory=list)  # (preemptor, victim)
    drops: list = field(default_factory=list)
    admitted: int = 0
    preemptions: int = 0
    peak_occupancy: int = 0
    occupancy_time_integral: float = 0.0


def replay_node(capacity, policy, arrival_times, release_times, rng=None):
    """One node's buffer, replayed with a list and :func:`select_victim`.

    ``policy`` None means drop-tail.  Before each arrival every entry
    due by then leaves in ``(release_time, entry_id)`` order; the
    occupancy integral is summed at every change, as the event engine
    does.
    """
    out = NodeReplay()
    buffered: list[BufferedEntry] = []
    last = 0.0

    def track(now):
        nonlocal last
        if now > last:
            out.occupancy_time_integral += len(buffered) * (now - last)
        last = now

    def release_due(now):
        while True:
            due = [e for e in buffered if e.release_time <= now]
            if not due:
                return
            first = min(due, key=lambda e: (e.release_time, e.entry_id))
            track(first.release_time)
            buffered.remove(first)
            out.departures.append((first.release_time, first.payload))

    next_id = 0
    for i, (t, release) in enumerate(zip(arrival_times, release_times)):
        release_due(t)
        track(t)
        if len(buffered) >= capacity:
            if policy is None:
                out.drops.append(i)
                continue
            victim = select_victim(policy, buffered, t, rng)
            buffered.remove(victim)
            out.departures.append((t, victim.payload))
            out.victims.append((i, victim.payload))
            out.preemptions += 1
        buffered.append(BufferedEntry(next_id, i, t, release))
        next_id += 1
        out.admitted += 1
        out.peak_occupancy = max(out.peak_occupancy, len(buffered))
    release_due(math.inf)
    return out


# ----------------------------------------------------------------------
# Adversary scoring and KSG neighbour counts.


def estimate_all_scalar(adversary, delivery) -> list[float]:
    """``adversary.estimate_all(delivery)``, one packet at a time.

    Re-derives every estimate from the adversary's public parameters
    and the ``arrival_time``, ``hop_count`` and ``origin`` columns of
    the :class:`~repro.sim.results.DeliveryLog`, with the paper's
    per-packet formulas and scalar :func:`erlang_b`; it calls none of
    the adversary's own code.  The adaptive adversary's rate after the
    ``count``-th arrival is ``(count - 1) / (z - z_first)``.
    """
    knowledge = adversary.knowledge
    tau = knowledge.transmission_delay
    mean = knowledge.mean_delay_per_hop
    capacity = knowledge.buffer_capacity
    kind = type(adversary)

    def hop_delay(rate):
        if rate <= 0:
            return mean
        blocking = erlang_b(rate / (1.0 / mean), capacity)
        if kind is ModelBasedAdversary:
            return (1.0 - blocking) / (1.0 / mean)
        if blocking > adversary.preemption_threshold:
            return min(mean, capacity / rate)
        return mean

    path_extra = {}
    if kind in (PathAwareAdaptiveAdversary, ModelBasedAdversary):
        for origin, rates in adversary.path_rates.items():
            total = 0.0
            for rate in rates:
                total += hop_delay(rate)
            path_extra[origin] = total

    previous = -math.inf
    first = None
    estimates = []
    rows = zip(
        delivery.arrival_time.tolist(),
        delivery.hop_count.tolist(),
        delivery.origin.tolist(),
    )
    for count, (z, h, origin) in enumerate(rows, start=1):
        if z < previous:
            raise ValueError(
                "observations must be supplied in arrival order; "
                f"{z:g} after {previous:g}"
            )
        previous = z
        if first is None:
            first = z
        if kind is NaiveAdversary:
            estimates.append(z - h * tau)
        elif kind is BaselineAdversary:
            estimates.append(z - h * (tau + mean))
        elif kind is AdaptiveAdversary:
            extra = mean
            if count >= WARMUP_OBSERVATIONS and z != first:
                rate = (count - 1) / (z - first)
                blocking = erlang_b(rate / (1.0 / mean), capacity)
                if blocking > adversary.preemption_threshold:
                    extra = min(knowledge.n_sources * capacity / rate, mean)
            estimates.append(z - h * (tau + extra))
        elif path_extra:
            if origin not in path_extra:
                raise KeyError(f"no path knowledge for origin {origin}")
            estimates.append(z - h * tau - path_extra[origin])
        else:
            raise TypeError(f"no scalar oracle for {kind.__name__}")
    return estimates


def erlang_b_direct(offered_load: float, servers: int) -> float:
    """Textbook form of the Erlang-B formula (Equation (5) verbatim).

    Computed in log space so it remains usable for moderate k; the
    cross-check for the recursion in :func:`erlang_b`.
    """
    servers = _check_servers(servers)
    if offered_load < 0:
        raise ValueError(f"offered load must be non-negative, got {offered_load}")
    if offered_load == 0:
        return 1.0 if servers == 0 else 0.0
    log_rho = math.log(offered_load)
    log_terms = [i * log_rho - math.lgamma(i + 1) for i in range(servers + 1)]
    top = log_terms[servers]
    peak = max(log_terms)
    denominator = sum(math.exp(term - peak) for term in log_terms)
    return math.exp(top - peak) / denominator


def marginal_neighbor_counts_scalar(tree, points, radii) -> np.ndarray:
    """Per-point loop form of ``estimators._marginal_neighbor_counts``."""
    return np.array(
        [
            len(tree.query_ball_point([point], radius)) - 1
            for point, radius in zip(points, radii)
        ]
    )
