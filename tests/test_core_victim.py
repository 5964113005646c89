"""Unit tests for RCAD victim selection.

Each policy's reference O(k) scan (``tests/oracles.select_victim``) is
pinned here; ``tests/test_buffer_differential.py`` checks that the
buffer's keyed rules choose the same victims.
"""

import numpy as np
import pytest

from repro.core.buffers import BufferedEntry
from repro.core.victim import (
    LongestRemainingDelay,
    NewestArrival,
    OldestArrival,
    RandomVictim,
    ShortestRemainingDelay,
)

from .oracles import select_victim


def _entry(entry_id, arrival, release):
    return BufferedEntry(
        entry_id=entry_id, payload=f"p{entry_id}", arrival_time=arrival,
        release_time=release,
    )


ENTRIES = [
    _entry(0, arrival=1.0, release=20.0),
    _entry(1, arrival=3.0, release=5.0),   # shortest remaining
    _entry(2, arrival=2.0, release=40.0),  # longest remaining
    _entry(3, arrival=0.5, release=30.0),  # oldest arrival
    _entry(4, arrival=4.0, release=25.0),  # newest arrival
]

RNG = np.random.Generator(np.random.PCG64(0))


class TestDeterministicPolicies:
    def test_shortest_remaining(self):
        assert select_victim(ShortestRemainingDelay(), ENTRIES, now=4.0, rng=RNG).entry_id == 1

    def test_longest_remaining(self):
        assert select_victim(LongestRemainingDelay(), ENTRIES, now=4.0, rng=RNG).entry_id == 2

    def test_oldest_arrival(self):
        assert select_victim(OldestArrival(), ENTRIES, now=4.0, rng=RNG).entry_id == 3

    def test_newest_arrival(self):
        assert select_victim(NewestArrival(), ENTRIES, now=4.0, rng=RNG).entry_id == 4

    def test_single_entry(self):
        only = [ENTRIES[0]]
        for policy in (
            ShortestRemainingDelay(),
            LongestRemainingDelay(),
            OldestArrival(),
            NewestArrival(),
            RandomVictim(),
        ):
            assert select_victim(policy, only, now=1.0, rng=RNG) is ENTRIES[0]

    def test_tie_broken_by_entry_id(self):
        tied = [_entry(7, 0.0, 10.0), _entry(3, 0.0, 10.0)]
        assert select_victim(ShortestRemainingDelay(), tied, now=0.0, rng=RNG).entry_id == 3
        assert select_victim(OldestArrival(), tied, now=0.0, rng=RNG).entry_id == 3

    def test_policies_do_not_mutate_entries(self):
        snapshot = [(e.entry_id, e.release_time) for e in ENTRIES]
        select_victim(ShortestRemainingDelay(), ENTRIES, now=4.0, rng=RNG)
        assert [(e.entry_id, e.release_time) for e in ENTRIES] == snapshot

    def test_names(self):
        assert ShortestRemainingDelay().name == "shortest-remaining"
        assert LongestRemainingDelay().name == "longest-remaining"
        assert RandomVictim().name == "random"
        assert OldestArrival().name == "oldest-arrival"
        assert NewestArrival().name == "newest-arrival"


class TestRandomVictim:
    def test_selects_among_entries(self):
        rng = np.random.Generator(np.random.PCG64(1))
        chosen = {select_victim(RandomVictim(), ENTRIES, 4.0, rng).entry_id for _ in range(200)}
        assert chosen == {0, 1, 2, 3, 4}

    def test_reproducible_with_seed(self):
        a = np.random.Generator(np.random.PCG64(5))
        b = np.random.Generator(np.random.PCG64(5))
        policy = RandomVictim()
        seq_a = [select_victim(policy, ENTRIES, 4.0, a).entry_id for _ in range(20)]
        seq_b = [select_victim(policy, ENTRIES, 4.0, b).entry_id for _ in range(20)]
        assert seq_a == seq_b


class TestEmptyBuffer:
    @pytest.mark.parametrize(
        "policy",
        [
            ShortestRemainingDelay(),
            LongestRemainingDelay(),
            RandomVictim(),
            OldestArrival(),
            NewestArrival(),
        ],
        ids=lambda p: p.name,
    )
    def test_empty_selection_rejected(self, policy):
        with pytest.raises(ValueError):
            select_victim(policy, [], now=0.0, rng=RNG)


class TestRemainingDelayHelper:
    def test_remaining_delay(self):
        entry = _entry(0, arrival=1.0, release=20.0)
        assert entry.remaining_delay(now=5.0) == 15.0
        assert entry.remaining_delay(now=25.0) == 0.0


class TestTieBreaking:
    """Determinism contract: ties resolve to the lowest entry_id.

    The streaming service's snapshot/restore path replays preemption
    decisions, so a tie must never depend on dict order or entry
    identity -- only on the admission-ordered entry_id.
    """

    TIED = [
        _entry(7, arrival=0.0, release=10.0),
        _entry(3, arrival=1.0, release=10.0),
        _entry(5, arrival=2.0, release=10.0),
    ]

    def test_shortest_remaining_tie_picks_lowest_id(self):
        assert select_victim(ShortestRemainingDelay(), self.TIED, 4.0, RNG).entry_id == 3

    def test_longest_remaining_tie_picks_lowest_id(self):
        assert select_victim(LongestRemainingDelay(), self.TIED, 4.0, RNG).entry_id == 3

    def test_arrival_policy_ties_resolve_by_admission_order(self):
        tied_arrivals = [
            _entry(9, arrival=5.0, release=10.0),
            _entry(2, arrival=5.0, release=30.0),
            _entry(6, arrival=5.0, release=20.0),
        ]
        # Oldest-arrival ties go to the earliest admission (lowest id);
        # newest-arrival ties to the latest (highest id, LIFO).
        assert select_victim(OldestArrival(), tied_arrivals, 6.0, RNG).entry_id == 2
        assert select_victim(NewestArrival(), tied_arrivals, 6.0, RNG).entry_id == 9

    def test_tie_break_independent_of_list_order(self):
        import itertools

        for perm in itertools.permutations(self.TIED):
            assert select_victim(ShortestRemainingDelay(), list(perm), 4.0, RNG).entry_id == 3

    def test_rcad_buffer_preemption_tie_is_replay_stable(self):
        """Equal release times in a full RcadBuffer always evict the
        earliest-admitted entry, before and after a restore cycle."""
        from repro.core.buffers import RcadBuffer

        def build(restored: bool) -> RcadBuffer:
            buf = RcadBuffer(capacity=3)
            items = [("a", 0.0, 50.0), ("b", 1.0, 50.0), ("c", 2.0, 50.0)]
            if restored:
                for payload, arrival, release in items:
                    buf.restore_entry(payload, arrival, release)
            else:
                for payload, arrival, release in items:
                    buf.offer(payload, arrival_time=arrival, release_time=release)
            return buf

        for restored in (False, True):
            buf = build(restored)
            result = buf.offer("d", arrival_time=3.0, release_time=60.0)
            assert result.victim is not None
            assert result.victim.payload == "a"

    @pytest.mark.parametrize(
        "policy",
        [
            ShortestRemainingDelay(),
            LongestRemainingDelay(),
            RandomVictim(),
            OldestArrival(),
            NewestArrival(),
        ],
        ids=lambda p: p.name,
    )
    def test_buffer_rule_breaks_ties_like_the_scan(self, policy):
        """The buffer's keyed rule and the reference scan pick the same
        victim when every entry ties on arrival and release time."""
        from repro.core.buffers import RcadBuffer

        buf = RcadBuffer(capacity=4, victim_policy=policy)
        for payload in "abcd":
            buf.offer(payload, arrival_time=1.0, release_time=50.0)
        expected = select_victim(
            policy, buf.entries(), 1.0, np.random.Generator(np.random.PCG64(2))
        )
        result = buf.offer(
            "e", arrival_time=1.0, release_time=50.0,
            rng=np.random.Generator(np.random.PCG64(2)),
        )
        assert result.victim is expected
