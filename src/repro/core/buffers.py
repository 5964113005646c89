"""Buffer disciplines: infinite, drop-tail, and RCAD's preemptive buffer.

A node's buffer holds packets that are waiting out their artificial
delay.  Three disciplines, matching the paper's three evaluation cases:

* :class:`InfiniteBuffer` -- never full; realizes the M/M/infinity
  idealization of Section 4 (evaluation case 2, "unlimited buffers");
* :class:`DropTailBuffer` -- k slots, arrivals to a full buffer are
  dropped; realizes M/M/k/k with loss (the non-RCAD alternative the
  paper mentions: "either the packet is dropped or ... a preemption
  strategy");
* :class:`RcadBuffer` -- k slots; an arrival to a full buffer preempts
  a victim (default: shortest remaining delay), which is transmitted
  immediately, and the new packet takes its slot (evaluation case 3).
  Victim selection is fully deterministic: when several entries tie on
  the policy's criterion the lowest ``entry_id`` wins (see
  :mod:`repro.core.victim`), which is what makes preemption order
  replay-stable across a snapshot/restore cycle.

This module is the only code that orders releases and chooses victims.
A buffer keeps its live entries in admission order plus a
``(release_time, entry_id)`` heap; releases leave from the heap head
and each victim policy is a key on the two (:data:`_VICTIM_RULES`).
The event engine and the service drive a buffer packet by packet; the
fast path hands a node's whole arrival batch to :func:`replay`, which
replays drop-tail with one heap loop and the paper's
shortest-remaining RCAD with array order statistics
(:func:`_shortest_remaining`): that buffer's contents after each
arrival have a closed form, so its victims need no loop.

The buffers are pure decision structures: they track occupancy and
decide admissions, but event scheduling stays in the simulator, which
keeps this module independently unit-testable.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from typing import Any, Callable

import numpy as np

from repro.core.victim import ShortestRemainingDelay, VictimPolicy

__all__ = [
    "AdmissionOutcome",
    "BufferedEntry",
    "AdmissionResult",
    "PacketBuffer",
    "InfiniteBuffer",
    "DropTailBuffer",
    "RcadBuffer",
    "Replay",
    "replay",
]


def _validated_capacity(capacity: Any) -> int:
    """Capacity as an exact integer; mirrors the erlang.py convention.

    ``operator.index`` admits any integral type (python ints, numpy
    integers) while rejecting floats -- ``DropTailBuffer(2.9)`` used to
    silently truncate to 2 slots -- and bools, which are technically
    ints but always a caller bug here.
    """
    if isinstance(capacity, bool):
        raise TypeError("capacity must be an integer, not a bool")
    try:
        value = operator.index(capacity)
    except TypeError:
        raise TypeError(
            f"capacity must be an integer, got {type(capacity).__name__} "
            f"({capacity!r})"
        )
    if value < 1:
        raise ValueError(f"capacity must be at least 1, got {value}")
    return value


def _bad_times(arrival_time: float, release_time: float) -> ValueError:
    return ValueError(
        f"release time {release_time:g} must be a number no earlier than "
        f"arrival {arrival_time:g} (NaN is rejected)"
    )


class AdmissionOutcome(Enum):
    """What happened when a packet arrived at the buffer."""

    ADMITTED = "admitted"
    DROPPED = "dropped"
    PREEMPTED_VICTIM = "preempted-victim"


@dataclass(slots=True)
class BufferedEntry:
    """A packet sitting in a buffer, waiting for its release time.

    ``payload`` is opaque to the buffer (the simulator stores the
    in-flight :class:`~repro.net.packet.Packet`); tests may store
    anything.  ``context`` carries the scheduler handle the simulator
    needs to cancel the pending release when the entry is preempted.
    """

    entry_id: int
    payload: Any
    arrival_time: float
    release_time: float
    context: Any = None

    def remaining_delay(self, now: float) -> float:
        """Time left until the scheduled release (>= 0)."""
        return max(self.release_time - now, 0.0)


@dataclass(slots=True)
class AdmissionResult:
    """Outcome of offering a packet to a buffer.

    Attributes
    ----------
    outcome:
        What happened to the *arriving* packet
        (``PREEMPTED_VICTIM`` means it was admitted by evicting one).
    entry:
        The buffered entry created for the arriving packet, or None if
        it was dropped.
    victim:
        The evicted entry that must now be transmitted immediately, or
        None.
    """

    outcome: AdmissionOutcome
    entry: BufferedEntry | None
    victim: BufferedEntry | None


#: Buffer outcome -> telemetry probe event name.  A preemption's probe
#: fires once, after the victim is out and the newcomer is in, so the
#: reported occupancy is the (unchanged) post-swap value.
_PROBE_EVENTS = {
    AdmissionOutcome.ADMITTED: "admit",
    AdmissionOutcome.DROPPED: "drop",
    AdmissionOutcome.PREEMPTED_VICTIM: "preempt",
}


class PacketBuffer:
    """Occupancy, release order and admission shared by all disciplines.

    A buffer whose ``capacity`` is None never fills.  A full bounded
    buffer asks :meth:`_choose_victim` which entry to evict for the
    arrival; the default answer, None, drops the arrival instead.
    """

    def __init__(self, capacity: int | None = None) -> None:
        self._capacity = None if capacity is None else _validated_capacity(capacity)
        #: live entries by id, in admission order
        self._entries: dict[int, BufferedEntry] = {}
        #: ``(release_time, entry_id)`` of the live entries, plus ids that
        #: left out of heap order (victims, event-engine releases after
        #: crash recovery), discarded as they surface: the head is live.
        self._heap: list[tuple[float, int]] = []
        self._next_id = 0
        self.admitted_count = 0
        self.dropped_count = 0
        self.preemption_count = 0
        self.peak_occupancy = 0
        #: Optional telemetry hook ``(event, occupancy) -> None`` called
        #: after every state change with the post-event occupancy, where
        #: ``event`` is ``"admit" | "drop" | "preempt" | "release"``.
        #: None (the default) keeps the hot path at one identity check.
        self.telemetry_probe = None

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int | None:
        """Buffer slots, or None for an unbounded buffer."""
        return self._capacity

    @property
    def occupancy(self) -> int:
        """Number of packets currently buffered."""
        return len(self._entries)

    def entries(self) -> list[BufferedEntry]:
        """Snapshot of the buffered entries (insertion order)."""
        return list(self._entries.values())

    @property
    def is_full(self) -> bool:
        """True if no free slot remains."""
        return self._capacity is not None and len(self._entries) >= self._capacity

    # ------------------------------------------------------------------
    def offer(
        self,
        payload: Any,
        arrival_time: float,
        release_time: float,
        rng: np.random.Generator | None = None,
    ) -> AdmissionResult:
        """Offer an arriving packet to the buffer.

        Parameters
        ----------
        payload:
            Opaque packet object.
        arrival_time:
            Current simulation time.  The event engine, the service and
            the fast path all offer packets in time order, so admission
            order is arrival order.
        release_time:
            When the packet's artificial delay would expire
            (``arrival_time + sampled delay``).
        rng:
            The victim stream; stochastic victim policies need it.
        """
        if not arrival_time <= release_time:  # also false for NaN
            raise _bad_times(arrival_time, release_time)
        capacity = self._capacity
        if capacity is None or len(self._entries) < capacity:
            victim = None
            outcome = AdmissionOutcome.ADMITTED
        else:
            victim_id = self._choose_victim(rng)
            if victim_id is None:
                self.dropped_count += 1
                return self._report(AdmissionResult(AdmissionOutcome.DROPPED, None, None))
            victim = self._remove(victim_id)
            self.preemption_count += 1
            outcome = AdmissionOutcome.PREEMPTED_VICTIM
        entry = self._store(payload, arrival_time, release_time)
        self.admitted_count += 1
        occupancy = len(self._entries)
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy
        return self._report(AdmissionResult(outcome, entry, victim))

    def release(self, entry_id: int) -> BufferedEntry:
        """Remove and return the entry whose delay expired (or victim)."""
        try:
            entry = self._remove(entry_id)
        except KeyError:
            raise KeyError(f"no buffered entry with id {entry_id}")
        if self.telemetry_probe is not None:
            self.telemetry_probe("release", self.occupancy)
        return entry

    def poll_due(self, now: float) -> list[BufferedEntry]:
        """Release and return every entry due at or before ``now``.

        Entries come back ordered by ``(release_time, entry_id)``, so a
        polling caller emits releases in exactly the order an
        event-driven simulation would have.
        """
        heap = self._heap
        due = []
        while heap and heap[0][0] <= now:
            due.append(self.release(heap[0][1]))
        return due

    def shortest_remaining_release_time(self) -> float | None:
        """Earliest scheduled release among buffered packets, if any."""
        return self._heap[0][0] if self._heap else None

    def restore_entry(
        self, payload: Any, arrival_time: float, release_time: float
    ) -> BufferedEntry:
        """Reinsert an already-admitted entry (snapshot/restore seam).

        Bypasses the admission decision and its counters: the entry was
        admitted -- and counted -- by the process that wrote the
        snapshot.  Raises ``ValueError`` instead of preempting or
        dropping when the buffer has no free slot, because a restore
        into a same-capacity buffer can never legitimately overflow.
        Entries restored in their original admission order receive
        ascending ``entry_id``\\ s, which keeps victim-policy
        tie-breaking replay-stable across the restore.
        """
        if not arrival_time <= release_time:  # also false for NaN
            raise _bad_times(arrival_time, release_time)
        if self.is_full:
            raise ValueError(
                f"cannot restore into a full buffer (capacity {self.capacity})"
            )
        entry = self._store(payload, arrival_time, release_time)
        self.peak_occupancy = max(self.peak_occupancy, self.occupancy)
        return entry

    # ------------------------------------------------------------------
    def _choose_victim(self, rng: np.random.Generator | None) -> int | None:
        """Entry id to evict from the full buffer, or None to drop."""
        return None

    def _report(self, result: AdmissionResult) -> AdmissionResult:
        if self.telemetry_probe is not None:
            self.telemetry_probe(_PROBE_EVENTS[result.outcome], len(self._entries))
        return result

    def _store(self, payload: Any, arrival_time: float, release_time: float) -> BufferedEntry:
        entry_id = self._next_id
        self._next_id = entry_id + 1
        entry = BufferedEntry(entry_id, payload, arrival_time, release_time)
        self._entries[entry_id] = entry
        heappush(self._heap, (release_time, entry_id))
        return entry

    def _remove(self, entry_id: int) -> BufferedEntry:
        entries, heap = self._entries, self._heap
        entry = entries.pop(entry_id)
        while heap and heap[0][1] not in entries:
            heappop(heap)
        return entry


class InfiniteBuffer(PacketBuffer):
    """Unbounded buffer: every packet gets its full sampled delay.

    Evaluation case 2 ("Delay & Unlimited Buffers"); analytically an
    M/M/infinity queue when arrivals are Poisson and delays exponential.
    """

    def __init__(self) -> None:
        super().__init__(capacity=None)


class DropTailBuffer(PacketBuffer):
    """Bounded buffer that drops arrivals when full (M/M/k/k loss)."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)


#: Victim policy name -> rule ``(entries, heap, rng) -> entry_id`` over a
#: full buffer's admission-ordered live entries and release heap (whose
#: head is live).  Admission order is arrival order, so the oldest and
#: newest arrivals are the first and last live ids; ``random`` draws one
#: index over the live entries in admission order.
_VICTIM_RULES: dict[str, Callable[..., int]] = {
    "shortest-remaining": lambda entries, heap, rng: heap[0][1],
    "longest-remaining": lambda entries, heap, rng: max(
        entries.values(), key=lambda e: (e.release_time, -e.entry_id)
    ).entry_id,
    "oldest-arrival": lambda entries, heap, rng: next(iter(entries)),
    "newest-arrival": lambda entries, heap, rng: next(reversed(entries)),
    "random": lambda entries, heap, rng: next(
        itertools.islice(entries, int(rng.integers(len(entries))), None)
    ),
}


class RcadBuffer(PacketBuffer):
    """RCAD: Rate-Controlled Adaptive Delaying via buffer preemption.

    "If the buffer is full, a node should select an appropriate
    buffered packet, called the victim packet, and transmit it
    immediately rather than drop packets.  Consequently, preemption
    automatically adjusts the effective mu based on buffer state."
    (Section 5.)

    Parameters
    ----------
    capacity:
        k buffer slots (the paper uses k = 10 to approximate Mica-2
        motes).
    victim_policy:
        How to choose the packet to transmit early; defaults to the
        paper's shortest-remaining-delay rule.  A stochastic policy
        needs a victim stream: an :meth:`offer` that preempts must pass
        ``rng``.

    Examples
    --------
    >>> buf = RcadBuffer(capacity=1)
    >>> first = buf.offer("a", arrival_time=0.0, release_time=10.0)
    >>> second = buf.offer("b", arrival_time=1.0, release_time=12.0)
    >>> second.outcome
    <AdmissionOutcome.PREEMPTED_VICTIM: 'preempted-victim'>
    >>> second.victim.payload
    'a'
    """

    def __init__(
        self, capacity: int, victim_policy: VictimPolicy | None = None
    ) -> None:
        super().__init__(capacity)
        self.victim_policy = victim_policy or ShortestRemainingDelay()
        try:
            self._victim_rule = _VICTIM_RULES[self.victim_policy.name]
        except KeyError:
            raise ValueError(
                f"unknown victim policy {self.victim_policy.name!r}; "
                f"available: {sorted(_VICTIM_RULES)}"
            ) from None

    def _choose_victim(self, rng):
        if rng is None and self.victim_policy.stochastic:
            raise ValueError(
                f"victim policy {self.victim_policy.name!r} draws from the "
                "victim stream, but none was given: pass rng= to offer() "
                "(TemporalPrivacyCore: victim_rng=)"
            )
        return self._victim_rule(self._entries, self._heap, rng)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Replay:
    """What a buffer did with one arrival batch (see :func:`replay`).

    Packets are named by their index in the batch.  ``departures`` lists
    every packet that left (releases and victims) in leaving order;
    ``victims[k]`` was evicted by the arrival of ``preemptors[k]``; and
    ``occupancy`` is the occupancy after each arrival and release, at
    ``event_times``.  The rest are the node's counters.
    """

    departure_times: np.ndarray
    departures: np.ndarray
    victims: np.ndarray
    preemptors: np.ndarray
    drops: np.ndarray
    event_times: np.ndarray
    occupancy: np.ndarray
    admitted: int
    dropped: int
    preemptions: int
    peak_occupancy: int
    occupancy_time_integral: float


def replay(
    buffer: PacketBuffer,
    arrival_times: np.ndarray,
    release_times: np.ndarray,
    rng: np.random.Generator | None = None,
) -> Replay:
    """Run an empty ``buffer`` over a whole time-ordered arrival batch.

    The fast path's batch entry point.  Packet ``i`` arrives at
    ``arrival_times[i]`` asking for release at ``release_times[i]``;
    the releases due by then leave first, as :meth:`~PacketBuffer.poll_due`
    before :meth:`~PacketBuffer.offer` would, and the buffer drains
    after the last arrival.  A buffer that cannot fill (unbounded, or
    no fewer slots than arrivals) and shortest-remaining RCAD are array
    arithmetic (:func:`_shortest_remaining`); drop-tail runs one heap
    loop that builds no entry and makes no call per arrival; other
    victim policies drive ``buffer`` itself.  Like
    :meth:`~PacketBuffer.offer`, it raises ``ValueError`` for a release
    before its arrival or a NaN time.
    """
    times = np.asarray(arrival_times, dtype=np.float64)
    releases = np.asarray(release_times, dtype=np.float64)
    bad = ~(times <= releases)  # also true where either is NaN
    if bad.any():
        i = int(bad.argmax())
        raise _bad_times(float(times[i]), float(releases[i]))
    if buffer.occupancy or buffer.admitted_count or buffer.dropped_count:
        raise ValueError("replay needs a fresh, empty buffer")
    capacity = buffer.capacity
    if capacity is None or capacity >= len(times):
        order = np.argsort(releases, kind="stable")  # (release, index) order
        return _fold(times, releases[order], order, [], [], [])
    rcad = isinstance(buffer, RcadBuffer)
    if rcad and buffer.victim_policy.name == ShortestRemainingDelay.name:
        return _fold(times, *_shortest_remaining(times, releases, capacity))
    victims: list[int] = []
    preemptors: list[int] = []
    drops: list[int] = []
    arrivals = enumerate(zip(times.tolist(), releases.tolist()))
    if not rcad:
        # Arrival indices ascend like entry ids, so ``(release, index)``
        # orders this heap exactly like the buffer's own.
        heap: list[tuple[float, int]] = []
        rel_t: list[float] = []  # scheduled releases, in leaving order
        rel_i: list[int] = []
        for i, (t, release) in arrivals:
            while heap and heap[0][0] <= t:
                due, j = heappop(heap)
                rel_t.append(due)
                rel_i.append(j)
            if len(heap) < capacity:
                heappush(heap, (release, i))
            else:
                drops.append(i)
        for due, j in sorted(heap):
            rel_t.append(due)
            rel_i.append(j)
    else:
        released = []
        for i, (t, release) in arrivals:
            released += buffer.poll_due(t)
            result = buffer.offer(i, t, release, rng)
            if result.victim is not None:
                victims.append(result.victim.payload)
                preemptors.append(i)
            elif result.entry is None:
                drops.append(i)
        released += buffer.poll_due(math.inf)
        rel_t = [entry.release_time for entry in released]
        rel_i = [entry.payload for entry in released]
    return _fold(times, rel_t, rel_i, victims, preemptors, drops)


def _shortest_remaining(times, releases, capacity):
    """Shortest-remaining RCAD over a batch, by order statistics.

    Key packet ``j`` by ``(releases[j], j)``, the order the release heap
    pops.  After arrival ``i`` the buffer holds ``i`` plus the
    ``capacity - 1`` largest keys among the earlier packets still
    pending at ``times[i]``: each arrival releases the keys due by then
    and, if full, evicts the smallest live key, and releasing every key
    below a threshold commutes with keeping the largest
    ``capacity - 1``, so evicted packets never need tracking.  Hence
    packet ``j`` leaves at arrival ``max(j, full[j]) + 1``, where
    ``full[j]`` ends the first prefix holding ``capacity - 1`` larger
    keys: as that arrival's victim if its release is still pending
    then, at its release time otherwise.  Released packets leave in key
    order.  Returns :func:`_fold`'s arguments after ``times``.
    """
    n = len(times)
    order = np.argsort(releases, kind="stable")  # ascending key
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n - 1, -1, -1)  # 0: the largest key
    index = np.arange(n)
    # full[j]: the first prefix end holding capacity - 1 keys larger
    # than packet j's (-1: the empty prefix; n: none).
    full = -1
    if capacity > 1:
        # kth[i]: the l-th smallest rank among packets 0..i (n while
        # fewer than l), for l = 1 .. capacity - 1 in turn.
        kth = np.minimum.accumulate(rank)
        candidate = np.empty(n, dtype=np.int64)
        candidate[0] = n
        for _ in range(capacity - 2):
            np.maximum(kth[:-1], rank[1:], out=candidate[1:])
            np.minimum.accumulate(candidate, out=kth)
        full = np.searchsorted(-kth, -rank, side="right")
    evictor = np.maximum(full, index) + 1
    evicted = evictor < n
    evicted[evicted] = times[evictor[evicted]] < releases[evicted]
    victim_of = np.full(n, -1, dtype=np.int64)  # each arrival evicts <= 1
    victim_of[evictor[evicted]] = index[evicted]
    preemptors = np.flatnonzero(victim_of >= 0)
    released = order[~evicted[order]]
    return releases[released], released, victim_of[preemptors], preemptors, []


def _fold(times, rel_t, rel_i, victims, preemptors, drops) -> Replay:
    """Interleave a replay's releases with its arrivals; fold the stats."""
    n = len(times)
    rel_t = np.asarray(rel_t, dtype=np.float64)
    rel_i = np.asarray(rel_i, dtype=np.int64)
    victims = np.asarray(victims, dtype=np.int64)
    preemptors = np.asarray(preemptors, dtype=np.int64)
    drops = np.asarray(drops, dtype=np.int64)
    # A release leaves just before the first later arrival due at or
    # after it (slot n: the final drain); slots ascend in leaving order,
    # so release k is event k + slots[k] and the arrivals fill the rest.
    slots = np.maximum(rel_i + 1, np.searchsorted(times, rel_t, side="left"))
    is_arrival = np.ones(n + len(rel_t), dtype=bool)
    is_arrival[np.arange(len(slots)) + slots] = False
    # A victim leaves at its preemptor's arrival, after every release
    # slotted there or earlier.
    is_victim = np.zeros(len(preemptors) + len(rel_t), dtype=bool)
    is_victim[
        np.arange(len(preemptors)) + np.searchsorted(slots, preemptors, side="right")
    ] = True

    def interleave(is_first, firsts, releases):
        merged = np.empty(len(is_first), dtype=releases.dtype)
        merged[is_first] = firsts
        merged[~is_first] = releases
        return merged

    steps = np.ones(n, dtype=np.int64)  # admitted without preemption
    steps[drops] = 0
    steps[preemptors] = 0
    event_times = interleave(is_arrival, times, rel_t)
    deltas = interleave(is_arrival, steps, np.full(len(rel_t), -1, dtype=np.int64))
    occupancy = np.cumsum(deltas)
    # Left fold of occupancy-before x elapsed in event order: the event
    # engine's running float accumulation, operation for operation.
    elapsed = np.diff(event_times, prepend=event_times[:1])
    integral = np.cumsum((occupancy - deltas) * elapsed)
    return Replay(
        departure_times=interleave(is_victim, times[preemptors], rel_t),
        departures=interleave(is_victim, victims, rel_i),
        victims=victims,
        preemptors=preemptors,
        drops=drops,
        event_times=event_times,
        occupancy=occupancy,
        admitted=n - len(drops),
        dropped=len(drops),
        preemptions=len(preemptors),
        peak_occupancy=int(occupancy.max()) if n else 0,
        occupancy_time_integral=float(integral[-1]) if n else 0.0,
    )
