"""Unit tests for buffer disciplines, including the RCAD buffer."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.buffers import (
    AdmissionOutcome,
    DropTailBuffer,
    InfiniteBuffer,
    RcadBuffer,
    replay,
)
from repro.core.delays import ConstantDelay
from repro.core.privacy_core import TemporalPrivacyCore
from repro.core.victim import LongestRemainingDelay, RandomVictim

RNG = np.random.Generator(np.random.PCG64(0))


class TestInfiniteBuffer:
    def test_admits_everything(self):
        buffer = InfiniteBuffer()
        for i in range(100):
            result = buffer.offer(f"p{i}", arrival_time=float(i), release_time=1e6)
            assert result.outcome is AdmissionOutcome.ADMITTED
        assert buffer.occupancy == 100
        assert buffer.dropped_count == 0
        assert not buffer.is_full

    def test_capacity_is_none(self):
        assert InfiniteBuffer().capacity is None

    def test_release_removes_entry(self):
        buffer = InfiniteBuffer()
        entry = buffer.offer("a", 0.0, 5.0).entry
        released = buffer.release(entry.entry_id)
        assert released.payload == "a"
        assert buffer.occupancy == 0

    def test_release_unknown_raises(self):
        with pytest.raises(KeyError):
            InfiniteBuffer().release(42)

    def test_peak_occupancy_tracked(self):
        buffer = InfiniteBuffer()
        entries = [buffer.offer(i, 0.0, 10.0).entry for i in range(5)]
        for entry in entries:
            buffer.release(entry.entry_id)
        assert buffer.peak_occupancy == 5
        assert buffer.occupancy == 0

    def test_shortest_remaining_release_time(self):
        buffer = InfiniteBuffer()
        buffer.offer("a", 0.0, 9.0)
        buffer.offer("b", 0.0, 4.0)
        assert buffer.shortest_remaining_release_time() == 4.0
        assert InfiniteBuffer().shortest_remaining_release_time() is None

    def test_release_out_of_release_order(self):
        # The event engine may release any entry by id (crash recovery
        # reschedules overdue releases); the next release and the poll
        # order must skip it.
        buffer = InfiniteBuffer()
        ids = [buffer.offer(p, 0.0, r).entry.entry_id for p, r in (("a", 3.0), ("b", 1.0), ("c", 2.0))]
        buffer.release(ids[1])
        assert buffer.shortest_remaining_release_time() == 2.0
        buffer.release(ids[0])
        assert [e.payload for e in buffer.poll_due(10.0)] == ["c"]
        assert buffer.shortest_remaining_release_time() is None

    def test_release_before_arrival_rejected(self):
        with pytest.raises(ValueError):
            InfiniteBuffer().offer("a", arrival_time=5.0, release_time=4.0)


class TestDropTailBuffer:
    def test_drops_when_full(self):
        buffer = DropTailBuffer(capacity=2)
        assert buffer.offer("a", 0.0, 10.0).outcome is AdmissionOutcome.ADMITTED
        assert buffer.offer("b", 0.0, 10.0).outcome is AdmissionOutcome.ADMITTED
        result = buffer.offer("c", 0.0, 10.0)
        assert result.outcome is AdmissionOutcome.DROPPED
        assert result.entry is None and result.victim is None
        assert buffer.occupancy == 2
        assert buffer.dropped_count == 1

    def test_slot_freed_by_release(self):
        buffer = DropTailBuffer(capacity=1)
        entry = buffer.offer("a", 0.0, 5.0).entry
        buffer.release(entry.entry_id)
        assert buffer.offer("b", 6.0, 9.0).outcome is AdmissionOutcome.ADMITTED

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DropTailBuffer(capacity=0)

    def test_counters(self):
        buffer = DropTailBuffer(capacity=1)
        buffer.offer("a", 0.0, 10.0)
        buffer.offer("b", 0.0, 10.0)
        assert buffer.admitted_count == 1
        assert buffer.dropped_count == 1
        assert buffer.preemption_count == 0


class TestRcadBuffer:
    def test_preempts_shortest_remaining_by_default(self):
        buffer = RcadBuffer(capacity=3)
        buffer.offer("slow", 0.0, 50.0)
        buffer.offer("fast", 0.0, 5.0)
        buffer.offer("mid", 0.0, 25.0)
        result = buffer.offer("new", 1.0, 40.0)
        assert result.outcome is AdmissionOutcome.PREEMPTED_VICTIM
        assert result.victim.payload == "fast"
        assert buffer.occupancy == 3  # victim out, new packet in
        assert buffer.preemption_count == 1
        assert buffer.dropped_count == 0

    def test_never_drops(self):
        buffer = RcadBuffer(capacity=1)
        for i in range(50):
            outcome = buffer.offer(i, float(i), float(i) + 30.0).outcome
            assert outcome is not AdmissionOutcome.DROPPED
        assert buffer.dropped_count == 0
        assert buffer.preemption_count == 49

    def test_victim_removed_from_entries(self):
        buffer = RcadBuffer(capacity=1)
        first = buffer.offer("a", 0.0, 30.0)
        second = buffer.offer("b", 1.0, 31.0)
        assert second.victim.entry_id == first.entry.entry_id
        remaining = buffer.entries()
        assert len(remaining) == 1 and remaining[0].payload == "b"
        with pytest.raises(KeyError):
            buffer.release(first.entry.entry_id)

    def test_no_preemption_below_capacity(self):
        buffer = RcadBuffer(capacity=3)
        assert buffer.offer("a", 0.0, 10.0).victim is None
        assert buffer.offer("b", 0.0, 10.0).victim is None
        assert buffer.preemption_count == 0

    def test_custom_victim_policy(self):
        buffer = RcadBuffer(capacity=2, victim_policy=LongestRemainingDelay())
        buffer.offer("short", 0.0, 5.0)
        buffer.offer("long", 0.0, 50.0)
        result = buffer.offer("new", 1.0, 20.0)
        assert result.victim.payload == "long"

    def test_random_victim_uses_supplied_rng(self):
        buffer = RcadBuffer(capacity=2, victim_policy=RandomVictim())
        buffer.offer("a", 0.0, 10.0)
        buffer.offer("b", 0.0, 20.0)
        rng = np.random.Generator(np.random.PCG64(3))
        result = buffer.offer("c", 1.0, 30.0, rng=rng)
        assert result.victim.payload in ("a", "b")

    def test_random_victim_without_a_stream_is_refused(self):
        # No process-wide fallback generator: a stochastic policy that
        # must draw and was given no stream fails, naming the stream.
        buffer = RcadBuffer(capacity=2, victim_policy=RandomVictim())
        buffer.offer("a", 0.0, 10.0)
        buffer.offer("b", 0.0, 20.0)
        with pytest.raises(ValueError, match="victim stream"):
            buffer.offer("c", 1.0, 30.0)

    def test_core_without_victim_rng_is_refused(self):
        core = TemporalPrivacyCore(RcadBuffer(capacity=1, victim_policy=RandomVictim()))
        core.offer("a", now=0.0, delay=5.0)
        with pytest.raises(ValueError, match="victim_rng"):
            core.offer("b", now=1.0, delay=5.0)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            RcadBuffer(capacity=0)

    def test_effective_delay_shortened(self):
        """Preempted packets leave before their scheduled release: the
        mechanism by which RCAD adapts the effective mu."""
        buffer = RcadBuffer(capacity=1)
        buffer.offer("victim-to-be", arrival_time=0.0, release_time=30.0)
        result = buffer.offer("new", arrival_time=2.0, release_time=32.0)
        victim = result.victim
        assert victim.release_time == 30.0
        assert victim.remaining_delay(now=2.0) == 28.0  # delay cut short by 28


NAN = float("nan")
_KINDS = [InfiniteBuffer, lambda: DropTailBuffer(2), lambda: RcadBuffer(2)]


class TestNanTimesRejected:
    """NaN compares false against everything: a ``release < arrival``
    guard lets it through to the head of the release heap."""

    @pytest.mark.parametrize("make", _KINDS)
    @pytest.mark.parametrize("arrival, release", [(0.0, NAN), (NAN, 1.0), (NAN, NAN)])
    def test_offer(self, make, arrival, release):
        buffer = make()
        with pytest.raises(ValueError, match="NaN"):
            buffer.offer("x", arrival, release)
        assert buffer.occupancy == 0
        assert buffer.admitted_count == 0
        assert buffer.shortest_remaining_release_time() is None

    @pytest.mark.parametrize("arrival, release", [(0.0, NAN), (NAN, 1.0)])
    def test_restore_entry(self, arrival, release):
        buffer = RcadBuffer(2)
        with pytest.raises(ValueError, match="NaN"):
            buffer.restore_entry("x", arrival, release)
        assert buffer.occupancy == 0

    def test_core_offer_at_nan_time(self):
        core = TemporalPrivacyCore(
            RcadBuffer(2), ConstantDelay(5.0), delay_rng=np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="NaN"):
            core.offer("p", NAN)
        with pytest.raises(ValueError, match="NaN"):
            core.offer("p", 0.0, delay=NAN)
        assert core.next_release_time() is None

    @pytest.mark.parametrize("make", _KINDS)
    @pytest.mark.parametrize(
        "arrivals, releases",
        [([0.0, 1.0, 2.0], [3.0, NAN, 4.0]), ([0.0, NAN], [1.0, 2.0]),
         ([0.0, 5.0], [1.0, 4.0])],
    )
    def test_replay_checks_its_arrays(self, make, arrivals, releases):
        with pytest.raises(ValueError, match="NaN"):
            replay(make(), np.array(arrivals), np.array(releases))


class TestBufferInvariants:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.floats(min_value=0.0, max_value=60.0),
            ),
            min_size=1,
            max_size=200,
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_rcad_occupancy_never_exceeds_capacity(self, offers, capacity):
        buffer = RcadBuffer(capacity=capacity)
        now = 0.0
        for gap, delay in offers:
            now += gap
            result = buffer.offer("p", now, now + delay)
            assert result.outcome is not AdmissionOutcome.DROPPED
            assert buffer.occupancy <= capacity
        assert buffer.admitted_count == len(offers)
        assert buffer.peak_occupancy <= capacity

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=100
        ),
        st.integers(min_value=1, max_value=5),
    )
    def test_droptail_conservation(self, gaps, capacity):
        """admitted + dropped == offered, occupancy <= capacity."""
        buffer = DropTailBuffer(capacity=capacity)
        now = 0.0
        for gap in gaps:
            now += gap
            buffer.offer("p", now, now + 30.0)
        assert buffer.admitted_count + buffer.dropped_count == len(gaps)
        assert buffer.occupancy <= capacity

    @given(st.integers(min_value=1, max_value=6))
    def test_rcad_preemptions_equal_overflow_offers(self, capacity):
        buffer = RcadBuffer(capacity=capacity)
        total = 4 * capacity
        for i in range(total):
            buffer.offer(i, float(i), float(i) + 1000.0)
        assert buffer.preemption_count == total - capacity
