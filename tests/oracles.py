"""Reference implementations that the optimized library code must match.

Each function here is the plain, obviously-correct form of something
``src/`` computes faster: the O(k) victim scans RCAD preemption started
from, the per-observation adversary loop, and the per-point KSG
neighbour count.  They live with the tests because only the tests run
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.buffers import BufferedEntry

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


def estimate_all_scalar(adversary, observations) -> list[float]:
    """The per-observation loop :meth:`Adversary.estimate_all` batches."""
    previous = -float("inf")
    estimates = []
    for observation in observations:
        if observation.arrival_time < previous:
            raise ValueError(
                "observations must be supplied in arrival order; "
                f"{observation.arrival_time:g} after {previous:g}"
            )
        previous = observation.arrival_time
        estimates.append(adversary.estimate(observation))
    return estimates


def marginal_neighbor_counts_scalar(tree, points, radii) -> np.ndarray:
    """Per-point loop form of ``estimators._marginal_neighbor_counts``."""
    return np.array(
        [
            len(tree.query_ball_point([point], radius)) - 1
            for point, radius in zip(points, radii)
        ]
    )
