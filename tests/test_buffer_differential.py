"""One node's buffer, three ways: batch replay, privacy core, O(k) oracle.

The fast path replays a node's arrivals through
:func:`repro.core.buffers.replay`; the event engine and the service
drive :class:`~repro.core.privacy_core.TemporalPrivacyCore` one packet
at a time with ``offer`` and ``poll_due``; ``tests/oracles.py`` keeps
the list-and-scan buffer both started from.  For drop-tail and every
victim policy the three must agree on departure times and order,
victims, drops and the node counters -- the occupancy integral bit for
bit.  The golden digests pin no ``random`` or ``longest-remaining``
cell, so this is the only cell-level check of those two rules.  Tied
arrival and release times, zero delays and long saturated batches get
their own cases: the batch replay of shortest-remaining RCAD is an
order-statistic kernel, not the buffer's heap, and orders ties only by
arrival index.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffers import DropTailBuffer, RcadBuffer, replay
from repro.core.privacy_core import CoreAction, TemporalPrivacyCore
from repro.core.victim import (
    LongestRemainingDelay,
    NewestArrival,
    OldestArrival,
    RandomVictim,
    ShortestRemainingDelay,
)

from .oracles import NodeReplay, replay_node

POLICIES = [
    None,  # drop-tail
    ShortestRemainingDelay(),
    LongestRemainingDelay(),
    OldestArrival(),
    NewestArrival(),
    RandomVictim(),
]

ARRIVALS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=4.0),  # gap to the previous arrival
        st.floats(min_value=1e-3, max_value=40.0),  # sampled delay
    ),
    min_size=1,
    max_size=60,
)

#: Gaps and delays on a coarse grid that includes 0: equal arrival
#: times, equal release times and zero delays.  Half the batches are
#: no longer than the largest capacity; the rest are long enough
#: (offered load ~12) to overflow every capacity many times over.
TIED_ARRIVALS = st.one_of(st.integers(1, 12), st.integers(13, 200)).flatmap(
    lambda n: st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.25, 0.5]),
            st.sampled_from([0.0, 1.0, 2.0, 4.0, 8.0]),
        ),
        min_size=n,
        max_size=n,
    )
)


def _buffer(capacity, policy):
    if policy is None:
        return DropTailBuffer(capacity)
    return RcadBuffer(capacity, victim_policy=policy)


def _via_batch(capacity, policy, times, delays, seed) -> NodeReplay:
    rep = replay(
        _buffer(capacity, policy), times, times + delays,
        rng=np.random.default_rng(seed),
    )
    return NodeReplay(
        departures=list(zip(rep.departure_times.tolist(), rep.departures.tolist())),
        victims=list(zip(rep.preemptors.tolist(), rep.victims.tolist())),
        drops=rep.drops.tolist(),
        admitted=rep.admitted,
        preemptions=rep.preemptions,
        peak_occupancy=rep.peak_occupancy,
        occupancy_time_integral=rep.occupancy_time_integral,
    )


def _via_core(capacity, policy, times, delays, seed) -> NodeReplay:
    """Drive the core as the event engine does, integral included."""
    core = TemporalPrivacyCore(
        _buffer(capacity, policy), victim_rng=np.random.default_rng(seed)
    )
    out = NodeReplay()
    last = 0.0

    def track(now, occupancy_before):
        nonlocal last
        if now > last:
            out.occupancy_time_integral += occupancy_before * (now - last)
        last = now

    def leave(now):
        due = core.poll_due(now)
        left = core.buffer.occupancy
        for k, entry in enumerate(due):
            track(entry.release_time, left + len(due) - k)
            out.departures.append((entry.release_time, entry.payload))

    for i, (t, delay) in enumerate(zip(times.tolist(), delays.tolist())):
        leave(t)
        track(t, core.buffer.occupancy)
        decision = core.offer(i, now=t, delay=delay)
        if decision.action is CoreAction.SHED:
            out.drops.append(i)
        elif decision.victim is not None:
            out.departures.append((t, decision.victim.payload))
            out.victims.append((i, decision.victim.payload))
    leave(np.inf)
    out.admitted = core.buffer.admitted_count
    out.preemptions = core.buffer.preemption_count
    out.peak_occupancy = core.buffer.peak_occupancy
    assert core.buffer.dropped_count == len(out.drops)
    return out


def _assert_agree(policy, arrivals, capacity, seed):
    gaps, delays = (np.array(column, dtype=np.float64) for column in zip(*arrivals))
    times = np.cumsum(gaps)
    oracle = replay_node(
        capacity, policy, times.tolist(), (times + delays).tolist(),
        rng=np.random.default_rng(seed),
    )
    assert _via_batch(capacity, policy, times, delays, seed) == oracle
    assert _via_core(capacity, policy, times, delays, seed) == oracle


def _policy_id(policy):
    return "drop-tail" if policy is None else policy.name


@pytest.mark.parametrize("policy", POLICIES, ids=_policy_id)
@settings(max_examples=100, deadline=None)
@given(
    arrivals=ARRIVALS,
    capacity=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batch_core_and_oracle_agree(policy, arrivals, capacity, seed):
    _assert_agree(policy, arrivals, capacity, seed)


@pytest.mark.parametrize("policy", POLICIES, ids=_policy_id)
@settings(max_examples=60, deadline=None)
@given(
    arrivals=TIED_ARRIVALS,
    capacity=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batch_core_and_oracle_agree_on_ties(policy, arrivals, capacity, seed):
    _assert_agree(policy, arrivals, capacity, seed)


def test_saturated_shortest_remaining_replay_matches_oracle():
    """20,000 arrivals at offered load 30 into k = 10: preemption almost
    every arrival, far past any batch the property tests draw."""
    rng = np.random.default_rng(30)
    times = np.cumsum(rng.exponential(1.0, 20_000))
    delays = rng.exponential(30.0, 20_000)
    policy = ShortestRemainingDelay()
    got = _via_batch(10, policy, times, delays, seed=0)
    assert got.preemptions > 15_000
    assert got == replay_node(10, policy, times.tolist(), (times + delays).tolist())
