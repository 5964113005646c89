"""Event-heap engine regressions: NaN guard, O(1) counters, compaction.

:mod:`repro.des.engine` keeps one ``(when, seq, handle)`` heap with lazy
cancellation.  Beyond raw speed it makes three behavioural commitments,
each pinned here:

* ``schedule`` rejects NaN instead of treating it as an in-the-past
  time -- NaN compares false against everything, so a plain past check
  would let it slip into the heap and corrupt event ordering far from
  the bug;
* ``pending_count`` is maintained incrementally (O(1)), never by
  scanning the heap, so ``__repr__`` and monitoring loops stay cheap on
  million-event calendars;
* cancellation tombstones are compacted out of the heap, bounding
  memory under sustained RCAD preemption churn while keeping
  ``events_skipped`` equal to the total number of cancellations once
  the calendar drains -- also when the compaction happens inside a
  callback that :meth:`~repro.des.engine.Simulator.run_until` is running.
"""

from __future__ import annotations

import math

import pytest

from repro.des.engine import Simulator
from repro.des.errors import SchedulingInPastError


class TestNanRejectedBeforePastCheck:
    def test_nan_raises_value_error_not_in_past(self):
        # start_time > 0 makes the in-the-past branch reachable: NaN
        # compares false to now, so a past-check-first ordering would
        # accept the event instead of raising.
        sim = Simulator(start_time=100.0)
        with pytest.raises(ValueError, match="NaN") as excinfo:
            sim.schedule(float("nan"), lambda: None)
        assert not isinstance(excinfo.value, SchedulingInPastError)
        assert sim.pending_count == 0
        assert sim.peek() == math.inf

    def test_nan_delay_via_schedule_after(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(ValueError, match="NaN"):
            sim.schedule_after(float("nan"), lambda: None)

    def test_past_events_still_rejected(self):
        sim = Simulator(start_time=100.0)
        with pytest.raises(SchedulingInPastError):
            sim.schedule(99.0, lambda: None)


class TestLivePendingCounter:
    def test_counts_schedule_cancel_and_fire(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending_count == 10
        handles[3].cancel()
        handles[7].cancel()
        assert sim.pending_count == 8
        handles[3].cancel()  # double-cancel is a no-op
        assert sim.pending_count == 8
        sim.step()
        assert sim.pending_count == 7
        sim.run()
        assert sim.pending_count == 0

    def test_counter_is_not_derived_from_heap_scans(self):
        """Tombstones sit in the heap; the live counter must not
        see them.  ``heap_size`` (which deliberately *does* include
        tombstones) differing from ``pending_count`` proves the count
        is maintained incrementally rather than recomputed."""
        sim = Simulator()
        handles = [
            sim.schedule(float(i + 1), lambda: None) for i in range(8)
        ]
        for handle in handles[:4]:
            handle.cancel()
        assert sim.pending_count == 4
        assert sim.heap_size > sim.pending_count  # garbage still enqueued

    def test_repr_reports_live_count(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        handle = sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert "pending=1" in repr(sim)


class TestLaneCompaction:
    def test_heap_stays_bounded_under_cancel_churn(self):
        """Schedule/cancel cycles (the RCAD preemption pattern) must
        not grow the heap without bound."""
        sim = Simulator()
        cancelled = 0
        live = []
        for i in range(5000):
            handle = sim.schedule(float(i + 1), lambda: None)
            if i % 10 == 9:
                live.append(handle)
            else:
                handle.cancel()
                cancelled += 1
        # 4500 tombstones were created; compaction must have discarded
        # almost all of them (threshold: dead <= max(64, live entries)).
        assert sim.pending_count == len(live) == 500
        assert sim.heap_size <= 2 * sim.pending_count + Simulator.COMPACT_MIN_DEAD
        sim.run()
        assert sim.events_skipped == cancelled
        assert sim.events_processed == len(live)

    def test_compaction_preserves_firing_order(self):
        sim = Simulator()
        fired = []
        handles = []
        for i in range(1000):
            when = float(1 + (i * 37) % 1000)  # scrambled insertion order
            handles.append(sim.schedule(when, fired.append, when))
        for i, handle in enumerate(handles):
            if i % 5 != 0:
                handle.cancel()
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == sum(1 for i in range(1000) if i % 5 == 0)

    def test_compaction_inside_run_until_callback(self):
        """A callback that cancels enough events to compact the heap
        while ``run_until`` is mid-loop: the loop must keep draining the
        compacted heap, including events scheduled after the compaction,
        in ``(when, seq)`` order, and count every cancellation once."""
        sim = Simulator()
        fired = []
        handles = []
        for i in range(300):
            when = float(1 + i // 3)  # three events per instant: seq breaks ties
            handles.append(sim.schedule(when, lambda w, s: fired.append((w, s)), when, i))
        doomed = [h for i, h in enumerate(handles) if i % 4 != 0]
        assert len(doomed) >= Simulator.COMPACT_MIN_DEAD
        sizes = {}

        def purge():
            sizes["before"] = sim.heap_size
            for handle in doomed:
                handle.cancel()
            sizes["after"] = sim.heap_size
            for k in range(5):  # scheduled after the compaction
                when = 50.5 + k
                sim.schedule(when, lambda w, s: fired.append((w, s)), when, 1000 + k)

        sim.schedule(0.5, purge)
        sim.run_until(1000.0)
        assert sizes["after"] < sizes["before"]  # compaction happened mid-run
        survivors = [(float(1 + i // 3), i) for i in range(300) if i % 4 == 0]
        late = [(50.5 + k, 1000 + k) for k in range(5)]
        assert fired == sorted(survivors + late)
        assert sim.events_skipped == len(doomed)
        assert sim.pending_count == 0
        assert sim.heap_size == 0
        assert sim.events_processed == 1 + len(survivors) + len(late)

    def test_skipped_ratio_bounded_under_rcad_preemption(self):
        """End-to-end churn check: a heavily loaded RCAD run cancels a
        release for every preemption; at drain, skipped == preemptions
        and the calendar ends empty."""
        from repro.sim.config import SimulationConfig
        from repro.sim.simulator import SensorNetworkSimulator

        config = SimulationConfig.paper_baseline(
            interarrival=2.0, case="rcad", n_packets=200
        )
        sim = SensorNetworkSimulator(config)
        # Drive the event-driven engine directly (the vectorized fast
        # path has no calendar to inspect).
        sim._ran = True
        sim._schedule_creations()
        sim._sim.run_until(config.max_sim_time)
        sim._finalize()
        engine = sim._sim
        preemptions = sim._result.total_preemptions()
        assert preemptions > 0  # the workload must actually churn
        assert engine.events_skipped == preemptions
        assert engine.pending_count == 0
        assert engine.heap_size == 0
        assert (
            engine.events_processed
            == engine.events_scheduled - engine.events_skipped
        )
