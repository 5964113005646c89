"""The event scheduler at the heart of the simulation engine.

The design is **one binary heap** of ``(when, seq, handle)`` entries
behind the classic event-list interface:

* the monotonically increasing sequence number breaks ties, giving
  *stable FIFO order for simultaneous events* -- essential so that,
  e.g., a packet arrival and a buffer-timer expiry at the same instant
  resolve deterministically;
* cancellation is **O(1) and lazy**: a cancelled event stays in the
  heap as a tombstone and is discarded (and counted in
  :attr:`Simulator.events_skipped`) when it surfaces.  RCAD preempts
  buffered packets constantly, so cancellation must never touch the
  heap;
* once the tombstones reach :attr:`Simulator.COMPACT_MIN_DEAD` *and*
  outnumber the live entries, the whole heap is **compacted** in place
  (each dropped tombstone counted as skipped, preserving the invariant
  that at drain time ``events_skipped`` equals the total number of
  cancellations).  This bounds memory under sustained preemption
  churn: garbage never exceeds ``max(COMPACT_MIN_DEAD, live entries)``;
* the clock is a float in abstract "time units" matching the paper
  (per-hop transmission delay tau = 1 time unit).
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Any, Callable

from repro.des.errors import SchedulingInPastError

__all__ = ["Simulator", "EventHandle"]


class EventHandle:
    """Handle to a scheduled event, usable to cancel or inspect it.

    Handles are returned by :meth:`Simulator.schedule`.  They expose the
    scheduled time (``when``) and cancellation state; RCAD uses the
    scheduled release time of every buffered packet to pick the victim
    with the shortest remaining delay.
    """

    __slots__ = ("when", "callback", "args", "_cancelled", "_fired", "seq", "_owner")

    def __init__(
        self,
        when: float,
        callback: Callable[..., None],
        args: tuple[Any, ...],
        seq: int,
        owner: "Simulator | None" = None,
    ) -> None:
        self.when = when
        self.callback = callback
        self.args = args
        self.seq = seq
        self._cancelled = False
        self._fired = False
        self._owner = owner

    @property
    def cancelled(self) -> bool:
        """True if :meth:`cancel` was called before the event fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """True once the event's callback has run."""
        return self._fired

    @property
    def pending(self) -> bool:
        """True while the event is still scheduled to fire."""
        return not (self._cancelled or self._fired)

    def cancel(self) -> bool:
        """Cancel the event.  Returns True if it was still pending."""
        if self._cancelled or self._fired:
            return False
        self._cancelled = True
        owner = self._owner
        if owner is not None:
            owner._note_cancel()
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        return f"EventHandle(when={self.when:g}, seq={self.seq}, {state})"


class Simulator:
    """A deterministic discrete-event simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> seen = []
    >>> _ = sim.schedule(2.0, seen.append, "b")
    >>> _ = sim.schedule(1.0, seen.append, "a")
    >>> sim.run()
    2
    >>> seen
    ['a', 'b']
    >>> sim.now
    2.0
    """

    #: The heap is compacted when at least this many tombstones have
    #: accumulated *and* they outnumber the live entries (see
    #: :meth:`_compact`).  64 keeps small calendars from churning
    #: rebuilds while bounding garbage to ``max(64, live entries)``.
    COMPACT_MIN_DEAD = 64

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._dead = 0  # cancelled entries still sitting in ``_heap``
        self._next_seq = 0
        self._live = 0
        self._events_processed = 0
        self._events_scheduled = 0
        self._events_skipped = 0
        self._last_event_time = float(start_time)
        self._running = False

    # ------------------------------------------------------------------
    # clock & introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of event callbacks executed so far."""
        return self._events_processed

    @property
    def events_scheduled(self) -> int:
        """Number of events ever scheduled."""
        return self._events_scheduled

    @property
    def events_skipped(self) -> int:
        """Cancelled events discarded (lazily at pop, or by compaction).

        ``events_skipped / events_scheduled`` is the cancellation ratio;
        under RCAD it measures how often preemption outran the release
        timers -- a direct view of the effective-mu adaptation.  Once
        the event list drains, every cancellation has been counted.
        """
        return self._events_skipped

    @property
    def last_event_time(self) -> float:
        """Time of the most recently executed event.

        Unlike :attr:`now`, this does not jump to the horizon after a
        :meth:`run_until` call -- it marks when activity actually
        ended, which is what time-averaged statistics should divide by.
        """
        return self._last_event_time

    @property
    def pending_count(self) -> int:
        """Number of events that are scheduled and not cancelled.

        O(1): maintained on every schedule / cancel / fire.
        """
        return self._live

    @property
    def heap_size(self) -> int:
        """Entries in the event heap, *including* tombstones.

        ``heap_size - pending_count`` is the garbage currently awaiting
        lazy discard; compaction keeps it bounded (tests rely on this).
        """
        return len(self._heap)

    def peek(self) -> float:
        """Time of the next pending event, or ``math.inf`` if none.

        Cancelled events surfacing at the head are discarded (and
        counted as skipped) on the way.
        """
        heap = self._heap
        while heap:
            if not heap[0][2]._cancelled:
                return heap[0][0]
            heappop(heap)
            self._dead -= 1
            self._events_skipped += 1
        return math.inf

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, when: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``when``.

        Raises
        ------
        ValueError
            If ``when`` is NaN (NaN compares false against everything,
            so accepting it would surface much later as a confusing
            heap-order corruption).
        SchedulingInPastError
            If ``when`` is before the current simulation time.  Events
            at exactly :attr:`now` are allowed and run in FIFO order
            after the currently executing event returns.
        """
        when = float(when)
        if not when >= self._now:
            if math.isnan(when):
                raise ValueError("cannot schedule an event at time NaN")
            raise SchedulingInPastError(
                f"cannot schedule at t={when:g}; clock is already at t={self._now:g}"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        handle = EventHandle(when, callback, args, seq, self)
        heappush(self._heap, (when, seq, handle))
        self._events_scheduled += 1
        self._live += 1
        return handle

    def schedule_after(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` ``delay`` time units from now."""
        if delay < 0:
            raise SchedulingInPastError(f"negative delay {delay:g}")
        return self.schedule(self._now + delay, callback, *args)

    # ------------------------------------------------------------------
    # cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """O(1) cancel accounting; compacts the heap past the threshold."""
        self._live -= 1
        self._dead += 1
        if self._dead >= self.COMPACT_MIN_DEAD and self._dead * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap, in place, without its cancelled entries.

        Every dropped tombstone counts as skipped -- exactly what lazy
        discard would eventually have reported -- so the
        scheduled/processed/skipped ledger is identical whether an
        event dies here or at pop time.  The list object is kept, so a
        loop holding a reference to it (:meth:`run_until`) stays valid.
        """
        heap = self._heap
        size = len(heap)
        heap[:] = [item for item in heap if not item[2]._cancelled]
        heapify(heap)
        self._events_skipped += size - len(heap)
        self._dead = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single next pending event.

        Returns True if an event ran, False if the event list is empty.
        """
        heap = self._heap
        while heap:
            when, _, handle = heappop(heap)
            if handle._cancelled:
                self._dead -= 1
                self._events_skipped += 1
                continue
            self._live -= 1
            self._now = self._last_event_time = when
            handle._fired = True
            handle.callback(*handle.args)
            self._events_processed += 1
            return True
        return False

    def run(self, max_events: int | None = None) -> int:
        """Run until the event list drains (or ``max_events`` fire).

        Returns the number of events executed by this call.
        """
        executed = 0
        self._running = True
        try:
            while max_events is None or executed < max_events:
                if not self.step():
                    break
                executed += 1
        finally:
            self._running = False
        return executed

    def run_until(self, until: float) -> int:
        """Run all events scheduled at or before ``until``.

        The clock is left at ``until`` (or its current value if that is
        later), matching the convention that a horizon-bounded run
        "consumes" the full horizon.  Returns the number of events
        executed by this call.
        """
        until = float(until)
        heap = self._heap
        executed = 0
        self._running = True
        try:
            while heap:
                entry = heappop(heap)
                handle = entry[2]
                if handle._cancelled:
                    self._dead -= 1
                    self._events_skipped += 1
                    continue
                when = entry[0]
                if when > until:
                    heappush(heap, entry)
                    break
                self._live -= 1
                self._now = self._last_event_time = when
                handle._fired = True
                handle.callback(*handle.args)
                self._events_processed += 1
                executed += 1
        finally:
            self._running = False
        if until > self._now:
            self._now = until
        return executed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now:g}, pending={self.pending_count})"
