"""The streaming service's shard agrees with the batch RCAD replay.

One shard of :class:`~repro.service.TemporalPrivacyService` is driven by
a fake clock over a drawn arrival stream, with the global bound above
the shard capacity so nothing is shed.  Feeding the ``(admitted_at,
release_time)`` pair of every :class:`~repro.service.ReleaseRecord`, in
admission order, to ``buffers.replay(RcadBuffer(capacity), ...)`` must
reproduce what the service did: the same departure order, the same
preemption victims, and the same preemptor for each victim.  The second
test cuts the stream with a snapshot/restore at a drawn point, which
checks the service's claim that preemption order is replay-stable
across a restore.

The clock only moves between ``await`` points the test controls: before
each submission it is set to the arrival time and every pump is woken
until the releases due by then have left, as :func:`replay` lets them
leave before the arrival.
"""

import asyncio
import tempfile
from itertools import accumulate
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffers import RcadBuffer, replay
from repro.service import (
    ReleaseRecord,
    ServiceConfig,
    StreamEvent,
    SubmitOutcome,
    TemporalPrivacyService,
)

#: far past every release: the final drain empties the shard
_END_OF_TIME = 1e12


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


async def _settle(service: TemporalPrivacyService, now: float) -> None:
    """Wake every pump until nothing due at ``now`` is still buffered."""
    for _ in range(1000):
        due = [
            t for shard in service.shards
            if (t := shard.core.next_release_time()) is not None and t <= now
        ]
        if not due:
            return
        for shard in service.shards:
            shard.wake.set()
        await asyncio.sleep(0)
    raise AssertionError(f"the pumps did not release the entries due at {now}")


def _run_service(arrivals, capacity, mean_delay, seed, cut, snapshot_path):
    """Submit ``arrivals`` to a one-shard service; with ``cut`` set,
    snapshot and restore into a fresh service before arrival ``cut``
    (after the last one when ``cut == len(arrivals)``).  Returns each
    :class:`ReleaseRecord` in release order with the index of the
    arrival whose submission preempted it (None for a due release)."""
    clock = _FakeClock()
    released = []
    submitting = [None]  # index of the arrival being submitted

    def on_release(record: ReleaseRecord) -> None:
        released.append((record, submitting[0] if record.early else None))

    config = ServiceConfig(
        shards=1,
        shard_capacity=capacity,
        max_buffered_total=capacity + 1,
        mean_delay=mean_delay,
        seed=seed,
        snapshot_path=snapshot_path,
        # Neither the watchdog nor a pump's own timeout may act on the
        # fake clock between the test's steps.
        watchdog_interval=3600.0,
        stall_timeout=7200.0,
    )

    async def started() -> TemporalPrivacyService:
        service = TemporalPrivacyService(config, clock=clock, on_release=on_release)
        await service.start()
        return service

    async def scenario() -> None:
        service = await started()
        for i, t in enumerate(arrivals):
            if i == cut:
                await service.shutdown()
                service = await started()
            clock.now = t
            await _settle(service, t)
            submitting[0] = i
            outcome = service.submit(StreamEvent(flow_id=0, seq=i))
            submitting[0] = None
            assert outcome in (SubmitOutcome.ADMITTED, SubmitOutcome.ADMITTED_PREEMPT)
        if cut == len(arrivals):
            await service.shutdown()
            service = await started()
        clock.now = _END_OF_TIME
        await _settle(service, _END_OF_TIME)
        assert service.buffered_total == 0
        await service.stop()

    asyncio.run(scenario())
    return released


def _assert_replay_agrees(arrivals, capacity, released) -> None:
    records = [record for record, _ in released]
    assert sorted(r.event.seq for r in records) == list(range(len(arrivals)))
    admitted = sorted(records, key=lambda r: r.event.seq)
    assert [r.admitted_at for r in admitted] == arrivals
    got = replay(
        RcadBuffer(capacity),
        [r.admitted_at for r in admitted],
        [r.release_time for r in admitted],
    )
    assert got.departures.tolist() == [r.event.seq for r in records]
    # A victim leaves when its preemptor arrives, a release when due.
    assert got.departure_times.tolist() == [
        r.released_at if r.early else r.release_time for r in records
    ]
    early = [(r, preemptor) for r, preemptor in released if r.early]
    assert got.victims.tolist() == [r.event.seq for r, _ in early]
    assert got.preemptors.tolist() == [preemptor for _, preemptor in early]


_arrivals = st.lists(
    st.integers(min_value=0, max_value=8), min_size=1, max_size=60
).map(lambda gaps: [0.25 * t for t in accumulate(gaps)])
_capacities = st.integers(min_value=1, max_value=6)
_mean_delays = st.sampled_from([0.5, 2.0, 8.0])
_seeds = st.integers(min_value=0, max_value=2**16)


@settings(max_examples=60, deadline=None)
@given(_arrivals, _capacities, _mean_delays, _seeds)
def test_service_shard_matches_replay(arrivals, capacity, mean_delay, seed):
    released = _run_service(arrivals, capacity, mean_delay, seed, None, None)
    _assert_replay_agrees(arrivals, capacity, released)


@settings(max_examples=60, deadline=None)
@given(_arrivals, _capacities, _mean_delays, _seeds, st.data())
def test_snapshot_restore_keeps_replay_order(
    arrivals, capacity, mean_delay, seed, data
):
    cut = data.draw(st.integers(min_value=0, max_value=len(arrivals)), label="cut")
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "shard.snapshot"
        released = _run_service(arrivals, capacity, mean_delay, seed, cut, snapshot)
    _assert_replay_agrees(arrivals, capacity, released)
