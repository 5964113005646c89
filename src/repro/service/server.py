"""The asyncio streaming anonymization service.

:class:`TemporalPrivacyService` applies the paper's temporal-privacy
mechanism -- exponential artificial delay with RCAD preemption under
buffer pressure -- to a *live* event stream instead of a simulated one.
Each of its shards owns a :class:`~repro.core.privacy_core.TemporalPrivacyCore`
(the exact state machine the DES simulator drives), polled by an
asyncio pump against the wall clock.

Robustness machinery, which is the point of this layer:

* a **degradation ladder** (:mod:`repro.service.ladder`): normal
  delaying -> RCAD preemption backpressure when a shard fills ->
  admission-control shedding when the global memory bound is hit, every
  transition published through telemetry;
* a **watchdog** that restarts shard pumps that died or stopped
  heartbeating;
* **crash-safe snapshots** (:mod:`repro.service.snapshot`): SIGTERM
  mid-stream persists every admitted-but-unreleased event atomically,
  and a restart restores them with original release times and
  replay-stable preemption order -- zero admitted-event loss;
* **clean drain**: shutdown stops intake (readiness flips) and lets
  every buffered event release at its scheduled time before exiting.
"""

from __future__ import annotations

import asyncio
import os
import time
import zlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

import numpy as np

from repro.core.buffers import RcadBuffer
from repro.core.delays import ExponentialDelay
from repro.core.privacy_core import CoreAction, TemporalPrivacyCore
from repro.core.victim import ShortestRemainingDelay
from repro.service.config import ServiceConfig
from repro.service.ladder import DegradationLadder, Tier
from repro.service.snapshot import SnapshotEntry, load_snapshot, write_snapshot
from repro.telemetry import MetricsRegistry

__all__ = [
    "StreamEvent",
    "SubmitOutcome",
    "ReleaseRecord",
    "TemporalPrivacyService",
]


@dataclass(frozen=True)
class StreamEvent:
    """One event offered to the service by a client."""

    flow_id: int
    seq: int
    payload: Any = None


class SubmitOutcome(Enum):
    """What the service did with a submitted event."""

    ADMITTED = "admitted"
    ADMITTED_PREEMPT = "admitted-preempt"  # admitted by evicting a victim
    SHED = "shed"  # tier-3 admission control refused it
    REJECTED = "rejected"  # service not accepting (draining / stopped)


@dataclass(frozen=True)
class ReleaseRecord:
    """One event leaving the service (delay served, or preempted)."""

    event: StreamEvent
    shard: int
    admitted_at: float
    release_time: float
    released_at: float
    early: bool  # True for preemption victims released ahead of schedule


@dataclass
class _Admitted:
    """Buffer payload: the client event plus service bookkeeping."""

    event: StreamEvent
    admit_seq: int


@dataclass
class _Shard:
    """One shard: a privacy core plus its pump's runtime state."""

    index: int
    core: TemporalPrivacyCore
    wake: asyncio.Event = field(default_factory=asyncio.Event)
    task: asyncio.Task | None = None
    heartbeat: float = 0.0
    restarts: int = 0


class TemporalPrivacyService:
    """Long-running temporal-privacy delay service.

    Parameters
    ----------
    config:
        Static sizing/timing parameters.
    clock:
        Time source; ``time.time`` by default.  The wall clock (not the
        monotonic clock) is deliberate: scheduled release times must
        stay meaningful across a crash/restart cycle.
    on_release:
        Optional callback invoked synchronously with every
        :class:`ReleaseRecord` as it leaves the service.
    """

    def __init__(
        self,
        config: ServiceConfig,
        clock: Callable[[], float] = time.time,
        on_release: Callable[[ReleaseRecord], None] | None = None,
    ) -> None:
        self.config = config
        self._clock = clock
        self._on_release = on_release
        self.registry = MetricsRegistry()
        self.ladder = DegradationLadder(self.registry, clock)
        edges = tuple(
            config.mean_delay * f for f in (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
        )
        self._delay_hist = self.registry.histogram("service/added-delay", edges=edges)
        self._shards = [
            _Shard(
                index=i,
                core=TemporalPrivacyCore(
                    buffer=RcadBuffer(
                        capacity=config.shard_capacity,
                        victim_policy=ShortestRemainingDelay(),
                    ),
                    delay=ExponentialDelay.from_mean(config.mean_delay),
                    delay_rng=np.random.default_rng(
                        np.random.SeedSequence(
                            entropy=config.seed, spawn_key=(i,)
                        )
                    ),
                ),
            )
            for i in range(config.shards)
        ]
        self._buffered = 0
        self._admit_seq = 0
        self._accepting = False
        self._ready = False
        self._started = False
        self._stopping = False
        self._stopped = False
        self._watchdog_task: asyncio.Task | None = None
        #: events re-admitted from the snapshot on the last start().
        self.restored_events: list[StreamEvent] = []

    # ------------------------------------------------------------------
    # state probes (health/readiness endpoints read these)
    # ------------------------------------------------------------------
    def set_on_release(self, callback: Callable[[ReleaseRecord], None] | None) -> None:
        """Install (or clear) the release callback after construction --
        lets a load generator wire itself to a service built first."""
        self._on_release = callback

    @property
    def ready(self) -> bool:
        """True while the service accepts new events."""
        return self._ready

    @property
    def healthy(self) -> bool:
        """Liveness: started and not yet stopped (draining is healthy)."""
        return self._started and not self._stopped

    @property
    def buffered_total(self) -> int:
        """Events currently delayed across all shards."""
        return self._buffered

    @property
    def shards(self) -> tuple[_Shard, ...]:
        return tuple(self._shards)

    def _shard_index(self, flow_id: int) -> int:
        # crc32, not hash(): stable across processes (PYTHONHASHSEED)
        # so a restored event lands on the shard its snapshot came from.
        return zlib.crc32(str(flow_id).encode("utf-8")) % len(self._shards)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> int:
        """Restore any snapshot, start pumps and watchdog; returns the
        number of restored events."""
        if self._started:
            raise RuntimeError("service instances are single-use; build a new one")
        self._started = True
        restored = self._restore_snapshot()
        for shard in self._shards:
            shard.heartbeat = self._clock()
            shard.task = asyncio.create_task(self._pump(shard))
        self._watchdog_task = asyncio.create_task(self._watchdog())
        self._accepting = True
        self._ready = True
        self.registry.gauge("service/ready").set(1.0)
        return restored

    def _restore_snapshot(self) -> int:
        path = self.config.snapshot_path
        if path is None:
            return 0
        entries, corrupt = load_snapshot(path)
        if corrupt:
            self.registry.counter("service/snapshot-corrupt-lines").inc(corrupt)
        if not entries:
            return 0
        for snap in entries:  # already sorted by admit_seq
            event = StreamEvent(
                flow_id=snap.flow_id, seq=snap.seq, payload=snap.payload
            )
            shard = self._shards[self._shard_index(snap.flow_id)]
            shard.core.buffer.restore_entry(
                _Admitted(event, snap.admit_seq), snap.arrival_time, snap.release_time
            )
            self._buffered += 1
            self._admit_seq = max(self._admit_seq, snap.admit_seq + 1)
            self.restored_events.append(event)
        self.registry.counter("service/snapshot-restored").inc(len(entries))
        self.registry.gauge("service/buffered").set(self._buffered)
        # The snapshot is now live state again; a stale file must never
        # be restored twice.
        os.unlink(path)
        return len(entries)

    async def drain(self, timeout: float | None = None) -> bool:
        """Stop intake (readiness flips) and wait for every buffered
        event to release at its scheduled time; then stop.

        Returns True if the buffers emptied, False on timeout (the
        service still stops; remaining entries are snapshot on request
        via :meth:`shutdown`).
        """
        self._accepting = False
        self._ready = False
        self.registry.gauge("service/ready").set(0.0)
        deadline = None if timeout is None else self._clock() + timeout
        drained = True
        while self._buffered > 0:
            if deadline is not None and self._clock() > deadline:
                drained = False
                break
            await asyncio.sleep(self.config.drain_poll)
        await self.stop()
        return drained

    async def shutdown(self) -> int:
        """SIGTERM path: stop immediately and snapshot every buffered
        entry.  Returns the number of entries persisted."""
        self._accepting = False
        self._ready = False
        self.registry.gauge("service/ready").set(0.0)
        await self.stop()
        if self.config.snapshot_path is None:
            return 0
        return self.snapshot_now()

    def snapshot_now(self) -> int:
        """Write the crash snapshot synchronously (idempotent)."""
        entries: list[SnapshotEntry] = []
        for shard in self._shards:
            for entry in shard.core.entries():
                admitted: _Admitted = entry.payload
                entries.append(
                    SnapshotEntry(
                        flow_id=admitted.event.flow_id,
                        seq=admitted.event.seq,
                        payload=admitted.event.payload,
                        arrival_time=entry.arrival_time,
                        release_time=entry.release_time,
                        admit_seq=admitted.admit_seq,
                    )
                )
        entries.sort(key=lambda e: e.admit_seq)
        write_snapshot(self.config.snapshot_path, entries)
        self.registry.counter("service/snapshot-written").inc()
        return len(entries)

    async def stop(self) -> None:
        """Cancel pumps and watchdog; buffered entries stay in place."""
        if self._stopped:
            return
        self._stopping = True
        tasks = [s.task for s in self._shards if s.task is not None]
        if self._watchdog_task is not None:
            tasks.append(self._watchdog_task)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._stopped = True
        self._ready = False
        self.registry.gauge("service/ready").set(0.0)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def submit(self, event: StreamEvent) -> SubmitOutcome:
        """Offer one event; returns what happened to it."""
        registry = self.registry
        registry.counter("service/submitted").inc()
        if not self._accepting:
            registry.counter("service/rejected").inc()
            return SubmitOutcome.REJECTED
        shard = self._shards[self._shard_index(event.flow_id)]
        tier = self.ladder.classify(
            shard_full=shard.core.is_full,
            global_full=self._buffered >= self.config.max_buffered_total,
        )
        self.ladder.note(tier)
        if tier is Tier.SHED:
            registry.counter("service/shed").inc()
            return SubmitOutcome.SHED
        now = self._clock()
        decision = shard.core.offer(_Admitted(event, self._admit_seq), now)
        self._admit_seq += 1
        self._buffered += 1
        registry.counter("service/admitted").inc()
        outcome = SubmitOutcome.ADMITTED
        if decision.action is CoreAction.PREEMPT:
            registry.counter("service/preempt-admits").inc()
            outcome = SubmitOutcome.ADMITTED_PREEMPT
            self._emit_release(shard, decision.victim, early=True)
        registry.gauge("service/buffered").set(self._buffered)
        shard.wake.set()
        return outcome

    def _emit_release(self, shard: _Shard, entry, early: bool) -> None:
        now = self._clock()
        admitted: _Admitted = entry.payload
        self._buffered -= 1
        self.registry.counter("service/released").inc()
        if early:
            self.registry.counter("service/released-early").inc()
        self._delay_hist.observe(now - entry.arrival_time)
        self.registry.gauge("service/buffered").set(self._buffered)
        record = ReleaseRecord(
            event=admitted.event,
            shard=shard.index,
            admitted_at=entry.arrival_time,
            release_time=entry.release_time,
            released_at=now,
            early=early,
        )
        if self._on_release is not None:
            self._on_release(record)

    # ------------------------------------------------------------------
    # pumps & watchdog
    # ------------------------------------------------------------------
    async def _pump(self, shard: _Shard) -> None:
        """Release loop of one shard: emit due entries, sleep until the
        next release or a new arrival, heartbeat every iteration.

        The loop condition (not just task cancellation) ends the pump:
        ``wait_for`` swallows a cancellation that races with a
        ``wake.set()`` from a concurrent submit, so a pump relying on
        cancellation alone can survive ``stop()`` and hang the gather.
        """
        while not self._stopping:
            shard.heartbeat = self._clock()
            for entry in shard.core.poll_due(self._clock()):
                self._emit_release(shard, entry, early=False)
            next_due = shard.core.next_release_time()
            timeout = self.config.watchdog_interval
            if next_due is not None:
                timeout = min(timeout, max(0.0, next_due - self._clock()))
            try:
                await asyncio.wait_for(shard.wake.wait(), timeout=timeout)
            except asyncio.TimeoutError:
                pass
            shard.wake.clear()

    async def _watchdog(self) -> None:
        """Restart shard pumps that died or stopped heartbeating."""
        while not self._stopping:
            await asyncio.sleep(self.config.watchdog_interval)
            if self._stopping:
                break
            now = self._clock()
            for shard in self._shards:
                task = shard.task
                died = task is None or task.done()
                stalled = (now - shard.heartbeat) > self.config.stall_timeout
                if died or stalled:
                    if task is not None and not task.done():
                        task.cancel()
                    shard.heartbeat = now  # fresh grace period
                    shard.task = asyncio.create_task(self._pump(shard))
                    shard.restarts += 1
                    self.registry.counter("service/watchdog-restarts").inc()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counter snapshot for reports and the CLI summary."""
        snapshot = self.registry.snapshot()
        return {
            "counters": snapshot["counters"],
            "buffered": self._buffered,
            "tier": int(self.ladder.tier),
            "tier_transitions": len(self.ladder.transitions),
            "shard_restarts": [s.restarts for s in self._shards],
        }
