"""Victim-selection policies for RCAD preemption.

When an RCAD buffer is full and a new packet arrives, one buffered
packet -- the *victim* -- is transmitted immediately to make room.
The paper chooses "the packet that has the shortest remaining delay
time.  In this way, the resulting delay times for that node are the
closest to the original distribution" (Section 5).  The alternative
policies here exist for the ablation benchmark that substantiates that
design choice.

A policy is a named key, not an algorithm: the rule each name stands
for is implemented once, on the buffer's own release heap and
insertion-ordered entry table, in :mod:`repro.core.buffers`.

**Determinism contract.**  Every non-random policy breaks ties on its
primary criterion by ``entry_id``: :class:`ShortestRemainingDelay`,
:class:`LongestRemainingDelay` and :class:`OldestArrival` pick the
*lowest* id (earliest admission) among the tied entries, while
:class:`NewestArrival` picks the highest (latest admission, matching
its LIFO semantics).  Entry ids ascend in admission order, so the
choice is independent of dict iteration order, and -- because snapshot
restore re-numbers entries in their original admission order --
preemption decisions replay identically after a service crash/restore
cycle.  The streaming service's zero-loss guarantee relies on this.
"""

from __future__ import annotations

__all__ = [
    "VictimPolicy",
    "ShortestRemainingDelay",
    "LongestRemainingDelay",
    "RandomVictim",
    "OldestArrival",
    "NewestArrival",
]


class VictimPolicy:
    """Which buffered packet an RCAD buffer preempts, by name."""

    #: short name used in experiment tables and by the buffer's rule table
    name: str = "abstract"
    #: True if choosing a victim draws from a random stream
    stochastic: bool = False


class ShortestRemainingDelay(VictimPolicy):
    """The paper's policy: preempt the packet closest to release.

    Truncating the delay that is already nearly over perturbs the
    realized delay distribution the least, keeping the adversary's
    model of the delays maximally wrong-footed per unit of disruption.

    When several entries share the shortest remaining release time the
    one with the lowest ``entry_id`` (earliest admission) is chosen;
    see the module determinism contract.
    """

    name = "shortest-remaining"


class LongestRemainingDelay(VictimPolicy):
    """Anti-policy: preempt the packet furthest from release.

    Maximally distorts the realized delays (long delays become short);
    included to show the cost of choosing the victim badly.
    """

    name = "longest-remaining"


class RandomVictim(VictimPolicy):
    """Uniformly random victim: the no-information baseline."""

    name = "random"
    stochastic = True


class OldestArrival(VictimPolicy):
    """FIFO-style: preempt the packet buffered the longest."""

    name = "oldest-arrival"


class NewestArrival(VictimPolicy):
    """LIFO-style: preempt the packet buffered most recently."""

    name = "newest-arrival"
