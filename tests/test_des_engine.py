"""Unit tests for the discrete-event scheduler."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.des import SchedulingInPastError, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.0, seen.append, "c")
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(2.0, seen.append, "b")
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_simultaneous_events_run_fifo(self):
        sim = Simulator()
        seen = []
        for tag in range(8):
            sim.schedule(5.0, seen.append, tag)
        sim.run()
        assert seen == list(range(8))

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(4.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [4.5]
        assert sim.now == 4.5

    def test_schedule_in_past_raises(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SchedulingInPastError):
            sim.schedule(9.0, lambda: None)

    def test_schedule_at_now_is_allowed(self):
        sim = Simulator(start_time=10.0)
        fired = []
        sim.schedule(10.0, fired.append, True)
        sim.run()
        assert fired == [True]

    def test_schedule_nan_raises(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(float("nan"), lambda: None)

    def test_schedule_after_negative_raises(self):
        sim = Simulator()
        with pytest.raises(SchedulingInPastError):
            sim.schedule_after(-1.0, lambda: None)

    def test_schedule_after_is_relative(self):
        sim = Simulator()
        hit = []
        sim.schedule(5.0, lambda: sim.schedule_after(2.5, lambda: hit.append(sim.now)))
        sim.run()
        assert hit == [7.5]

    def test_events_scheduled_during_execution_run(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append("first")
            sim.schedule_after(0.0, seen.append, "second")

        sim.schedule(1.0, first)
        sim.run()
        assert seen == ["first", "second"]

    def test_zero_delay_event_runs_after_queued_simultaneous_events(self):
        """An event scheduled at ``now`` from a callback joins the back of
        the same-instant queue: FIFO is by scheduling order."""
        sim = Simulator()
        seen = []

        def first():
            seen.append("first")
            sim.schedule_after(0.0, seen.append, "rescheduled")

        sim.schedule(1.0, first)
        sim.schedule(1.0, seen.append, "queued")
        sim.run()
        assert seen == ["first", "queued", "rescheduled"]
        assert sim.now == 1.0

    def test_two_callback_chains_interleave(self):
        """A producer and a consumer built from callbacks alone.  At the
        shared instants (t = 2, 4, 6) the producer's event was scheduled
        first, so the consumer polling then already sees the item."""
        sim = Simulator()
        queue = []
        delivered = []

        def produce(i):
            queue.append(i)
            if i < 2:
                sim.schedule_after(2.0, produce, i + 1)

        def consume():
            while queue:
                delivered.append((sim.now, queue.pop(0)))
            if len(delivered) < 3:
                sim.schedule_after(1.0, consume)

        sim.schedule(2.0, produce, 0)
        sim.schedule(1.0, consume)
        assert sim.run(max_events=100) == 9
        assert delivered == [(2.0, 0), (4.0, 1), (6.0, 2)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        assert handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_returns_false_after_firing(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        assert handle.fired
        assert not handle.cancel()

    def test_double_cancel_returns_false(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert handle.cancel()
        assert not handle.cancel()

    def test_pending_transitions(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert handle.pending
        sim.run()
        assert not handle.pending
        assert handle.fired and not handle.cancelled

    def test_cancelled_event_does_not_advance_clock(self):
        sim = Simulator()
        handle = sim.schedule(100.0, lambda: None)
        handle.cancel()
        assert sim.run() == 0
        assert sim.now == 0.0
        assert sim.events_skipped == 1

    def test_cancel_mid_run(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(2.0, fired.append, "later")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []


class TestRunModes:
    def test_run_returns_event_count(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        assert sim.run() == 3
        assert sim.events_processed == 3

    def test_run_max_events_stops_early(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        assert sim.run(max_events=2) == 2
        assert sim.pending_count == 1

    def test_run_until_executes_only_due_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(5.0, seen.append, "b")
        executed = sim.run_until(3.0)
        assert executed == 1
        assert seen == ["a"]
        assert sim.now == 3.0

    def test_run_until_includes_boundary(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.0, seen.append, "edge")
        sim.run_until(3.0)
        assert seen == ["edge"]

    def test_run_until_never_moves_clock_backwards(self):
        sim = Simulator(start_time=10.0)
        sim.run_until(5.0)
        assert sim.now == 10.0

    def test_step_on_empty_returns_false(self):
        assert Simulator().step() is False

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek() == 2.0

    def test_peek_empty_is_inf(self):
        assert Simulator().peek() == math.inf

    def test_pending_count_excludes_cancelled(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending_count == 1

    def test_last_event_time_does_not_jump_to_horizon(self):
        """run_until consumes the horizon on the clock, but the last
        event time marks when activity really ended -- time-averaged
        statistics must divide by the latter."""
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        sim.run_until(1_000_000.0)
        assert sim.now == 1_000_000.0
        assert sim.last_event_time == 3.0

    def test_last_event_time_initial(self):
        assert Simulator(start_time=5.0).last_event_time == 5.0


class TestProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
    def test_execution_order_is_sorted_stable(self, times):
        sim = Simulator()
        order = []
        for index, t in enumerate(times):
            sim.schedule(t, order.append, (t, index))
        sim.run()
        # Sorted by time; equal times keep submission order.
        assert order == sorted(order, key=lambda pair: (pair[0], pair[1]))

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=40),
        st.data(),
    )
    def test_cancelled_subset_never_fires(self, times, data):
        sim = Simulator()
        fired = []
        handles = [sim.schedule(t, fired.append, i) for i, t in enumerate(times)]
        to_cancel = data.draw(
            st.sets(st.integers(min_value=0, max_value=len(times) - 1))
        )
        for index in to_cancel:
            handles[index].cancel()
        sim.run()
        assert set(fired) == set(range(len(times))) - to_cancel
