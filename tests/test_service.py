"""Unit tests for the streaming service (repro.service).

The container has no pytest-asyncio, so each test is a sync function
driving its own event loop via ``asyncio.run``.
"""

import asyncio
import time

import pytest

from repro.service import (
    DegradationLadder,
    MetricsServer,
    ServiceConfig,
    ServiceLoadGenerator,
    SnapshotEntry,
    StreamEvent,
    SubmitOutcome,
    TemporalPrivacyService,
    Tier,
    load_snapshot,
    render_prometheus,
    write_snapshot,
)
from repro.telemetry import MetricsRegistry
from repro.traffic import PoissonTraffic


def _config(**overrides):
    defaults = dict(
        shards=2,
        shard_capacity=8,
        max_buffered_total=32,
        mean_delay=0.02,
        watchdog_interval=0.05,
        stall_timeout=0.3,
        drain_poll=0.01,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestServiceConfig:
    def test_defaults_valid(self):
        ServiceConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"shard_capacity": 0},
            {"max_buffered_total": 0},
            {"mean_delay": 0.0},
            {"watchdog_interval": 0.0},
            {"stall_timeout": 0.0},
            {"drain_poll": 0.0},
            {"watchdog_interval": 1.0, "stall_timeout": 0.5},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)

    @pytest.mark.parametrize(
        "field", ["mean_delay", "watchdog_interval", "stall_timeout", "drain_poll"]
    )
    def test_nan_rejected(self, field):
        # NaN fails every comparison, so a ``<= 0`` check lets it through.
        with pytest.raises(ValueError, match=f"{field}.*NaN"):
            ServiceConfig(**{field: float("nan")})


class TestDegradationLadder:
    def test_classification(self):
        classify = DegradationLadder.classify
        assert classify(shard_full=False, global_full=False) is Tier.NORMAL
        assert classify(shard_full=True, global_full=False) is Tier.PREEMPT
        # The global bound dominates: shed even if the shard had room.
        assert classify(shard_full=False, global_full=True) is Tier.SHED
        assert classify(shard_full=True, global_full=True) is Tier.SHED

    def test_transitions_recorded_and_published(self):
        registry = MetricsRegistry()
        fake_now = [0.0]
        ladder = DegradationLadder(registry, clock=lambda: fake_now[0])
        ladder.note(Tier.NORMAL)
        ladder.note(Tier.NORMAL)
        fake_now[0] = 1.0
        ladder.note(Tier.PREEMPT)
        ladder.note(Tier.SHED)
        ladder.note(Tier.NORMAL)
        assert [(t, a.name, b.name) for t, a, b in ladder.transitions] == [
            (1.0, "NORMAL", "PREEMPT"),
            (1.0, "PREEMPT", "SHED"),
            (1.0, "SHED", "NORMAL"),
        ]
        counters = registry.snapshot()["counters"]
        assert counters["service/tier-transitions"] == 3
        assert counters["service/tier-normal-events"] == 3
        assert counters["service/tier-enter-shed"] == 1
        assert registry.snapshot()["gauges"]["service/tier"] == 1.0


class TestSnapshotFile:
    ENTRIES = [
        SnapshotEntry(
            flow_id=f, seq=s, payload=None, arrival_time=1.0 + s,
            release_time=9.0 + s, admit_seq=s,
        )
        for s, f in enumerate([3, 1, 2])
    ]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "svc.snap"
        write_snapshot(path, self.ENTRIES)
        loaded, corrupt = load_snapshot(path)
        assert corrupt == 0
        assert loaded == self.ENTRIES

    def test_missing_file(self, tmp_path):
        assert load_snapshot(tmp_path / "nope.snap") == ([], 0)

    def test_sorted_by_admit_seq(self, tmp_path):
        path = tmp_path / "svc.snap"
        write_snapshot(path, list(reversed(self.ENTRIES)))
        loaded, _ = load_snapshot(path)
        assert [e.admit_seq for e in loaded] == [0, 1, 2]

    def test_corrupt_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "svc.snap"
        write_snapshot(path, self.ENTRIES)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace('"sha": "', '"sha": "0000')
        lines.append("not json at all")
        path.write_text("\n".join(lines) + "\n")
        loaded, corrupt = load_snapshot(path)
        assert corrupt == 2
        assert len(loaded) == 2

    def test_atomic_replace_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "svc.snap"
        write_snapshot(path, self.ENTRIES)
        assert not (tmp_path / "svc.snap.tmp").exists()


class TestServiceDataPath:
    def test_submit_release_conservation(self):
        async def main():
            service = TemporalPrivacyService(_config())
            gen = ServiceLoadGenerator(service, PoissonTraffic(rate=400.0), flows=4)
            service.set_on_release(gen.on_release)
            await service.start()
            report = await gen.drive(120)
            drained = await service.drain(timeout=10.0)
            return service, report, drained

        service, report, drained = asyncio.run(main())
        assert drained
        assert service.buffered_total == 0
        assert report.admitted + report.shed == report.submitted
        assert len(report.releases) == report.admitted
        counters = service.registry.snapshot()["counters"]
        assert counters["service/released"] == report.admitted

    def test_rejected_when_not_started(self):
        service = TemporalPrivacyService(_config())
        assert service.submit(StreamEvent(0, 0)) is SubmitOutcome.REJECTED
        assert service.registry.snapshot()["counters"]["service/rejected"] == 1

    def test_flow_ordering_preserved_within_flow(self):
        """A flow's events release in seq order: same shard, and the
        exponential delays are sampled per-admission while poll_due
        orders by release time -- so we only assert per-flow release
        completeness, plus that no event is lost or duplicated."""

        async def main():
            service = TemporalPrivacyService(_config(mean_delay=0.005))
            gen = ServiceLoadGenerator(service, PoissonTraffic(rate=2000.0), flows=3)
            service.set_on_release(gen.on_release)
            await service.start()
            report = await gen.drive(90)
            await service.drain(timeout=10.0)
            return report

        report = asyncio.run(main())
        seen = [(r.event.flow_id, r.event.seq) for r in report.releases]
        assert len(seen) == len(set(seen)) == report.admitted

    def test_preemption_backpressure_tier2(self):
        async def main():
            service = TemporalPrivacyService(
                _config(shards=1, shard_capacity=4, max_buffered_total=100,
                        mean_delay=30.0)
            )
            releases = []
            service.set_on_release(releases.append)
            await service.start()
            outcomes = [service.submit(StreamEvent(0, i)) for i in range(6)]
            await service.stop()
            return outcomes, releases, service

        outcomes, releases, service = asyncio.run(main())
        assert outcomes[:4] == [SubmitOutcome.ADMITTED] * 4
        assert outcomes[4:] == [SubmitOutcome.ADMITTED_PREEMPT] * 2
        # Victims left immediately, flagged early, before release_time.
        assert len(releases) == 2
        assert all(r.early and r.released_at < r.release_time for r in releases)
        assert service.ladder.tier is Tier.PREEMPT
        assert service.registry.snapshot()["counters"]["service/released-early"] == 2

    def test_admission_control_tier3(self):
        async def main():
            service = TemporalPrivacyService(
                _config(shards=2, shard_capacity=8, max_buffered_total=10,
                        mean_delay=30.0)
            )
            await service.start()
            outcomes = [service.submit(StreamEvent(i, 0)) for i in range(14)]
            await service.stop()
            return outcomes, service

        outcomes, service = asyncio.run(main())
        assert outcomes.count(SubmitOutcome.SHED) == 4
        assert service.buffered_total == 10
        counters = service.registry.snapshot()["counters"]
        assert counters["service/shed"] == 4
        assert counters["service/tier-shed-events"] == 4
        assert service.ladder.tier is Tier.SHED

    def test_stats_shape(self):
        async def main():
            service = TemporalPrivacyService(_config())
            await service.start()
            service.submit(StreamEvent(0, 0))
            await service.stop()
            return service.stats()

        stats = asyncio.run(main())
        assert stats["buffered"] == 1
        assert stats["tier"] == 1
        assert stats["shard_restarts"] == [0, 0]
        assert stats["counters"]["service/admitted"] == 1


class TestWatchdog:
    def test_dead_pump_restarted(self):
        async def main():
            service = TemporalPrivacyService(
                _config(watchdog_interval=0.02, stall_timeout=0.1, mean_delay=0.05)
            )
            releases = []
            service.set_on_release(releases.append)
            await service.start()
            # Kill one pump behind the watchdog's back.
            victim_shard = service.shards[0]
            victim_shard.task.cancel()
            await asyncio.sleep(0.1)
            assert victim_shard.restarts >= 1
            # The restarted pump still releases traffic for its shard.
            flow = next(
                f for f in range(64)
                if service._shard_index(f) == victim_shard.index
            )
            service.submit(StreamEvent(flow, 0))
            await service.drain(timeout=5.0)
            return service, releases

        service, releases = asyncio.run(main())
        assert len(releases) == 1
        assert (
            service.registry.snapshot()["counters"]["service/watchdog-restarts"] >= 1
        )


class TestSnapshotRestore:
    def test_shutdown_then_restart_loses_nothing(self, tmp_path):
        snap = tmp_path / "svc.snap"

        async def first():
            service = TemporalPrivacyService(
                _config(mean_delay=30.0, snapshot_path=snap, shard_capacity=16)
            )
            await service.start()
            for i in range(9):
                service.submit(StreamEvent(i % 3, i))
            entries_before = {
                (e.payload.event.flow_id, e.payload.event.seq): e.release_time
                for shard in service.shards
                for e in shard.core.entries()
            }
            persisted = await service.shutdown()
            return persisted, entries_before

        persisted, before = asyncio.run(first())
        assert persisted == 9
        assert snap.exists()

        async def second():
            service = TemporalPrivacyService(
                _config(mean_delay=30.0, snapshot_path=snap, shard_capacity=16)
            )
            restored = await service.start()
            entries_after = {
                (e.payload.event.flow_id, e.payload.event.seq): e.release_time
                for shard in service.shards
                for e in shard.core.entries()
            }
            await service.stop()
            return restored, entries_after

        restored, after = asyncio.run(second())
        assert restored == 9
        # Zero loss, and every event keeps its scheduled release time.
        assert after == before
        assert not snap.exists()

    def test_restore_renumbers_in_admission_order(self, tmp_path):
        """After a restore, preemption ties must pick the event that was
        admitted first in the ORIGINAL process (replay stability)."""
        snap = tmp_path / "svc.snap"
        entries = [
            SnapshotEntry(
                flow_id=0, seq=s, payload=None, arrival_time=float(s),
                release_time=100.0, admit_seq=s,
            )
            for s in (2, 0, 1)
        ]
        write_snapshot(snap, entries)

        async def main():
            service = TemporalPrivacyService(
                _config(shards=1, shard_capacity=3, mean_delay=30.0,
                        snapshot_path=snap)
            )
            releases = []
            service.set_on_release(releases.append)
            await service.start()
            assert service.submit(StreamEvent(0, 99)) is SubmitOutcome.ADMITTED_PREEMPT
            await service.stop()
            return releases

        releases = asyncio.run(main())
        assert len(releases) == 1
        assert releases[0].event.seq == 0  # lowest admit_seq wins the tie

    def test_single_use_instances(self):
        async def main():
            service = TemporalPrivacyService(_config())
            await service.start()
            await service.stop()
            with pytest.raises(RuntimeError):
                await service.start()

        asyncio.run(main())


async def _scrape(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.decode().partition("\r\n\r\n")
    status = int(head.split()[1])
    return status, body


class TestHttpEndpoints:
    def test_probes_and_metrics(self):
        async def main():
            service = TemporalPrivacyService(_config(mean_delay=0.01))
            await service.start()
            server = MetricsServer(service)
            await server.start()
            port = server.port

            out = {}
            out["healthz_live"] = await _scrape(port, "/healthz")
            out["readyz_live"] = await _scrape(port, "/readyz")
            out["missing"] = (await _scrape(port, "/nope"))[0]
            service.submit(StreamEvent(0, 0))
            out["metrics"] = await _scrape(port, "/metrics")

            drain_task = asyncio.create_task(service.drain(timeout=10.0))
            await asyncio.sleep(0)  # drain flips readiness synchronously
            out["readyz_draining"] = (await _scrape(port, "/readyz"))[0]
            out["healthz_draining"] = (await _scrape(port, "/healthz"))[0]
            await drain_task
            out["healthz_stopped"] = (await _scrape(port, "/healthz"))[0]
            await server.stop()
            return out

        out = asyncio.run(main())
        assert out["healthz_live"][0] == 200
        assert out["readyz_live"][0] == 200
        assert out["missing"] == 404
        status, body = out["metrics"]
        assert status == 200
        assert "repro_service_submitted_total 1" in body
        assert "repro_service_tier 1" in body
        assert 'repro_service_added_delay_bucket{le="+Inf"}' in body
        assert out["readyz_draining"] == 503
        assert out["healthz_draining"] == 200  # draining is alive
        assert out["healthz_stopped"] == 503

    def test_render_prometheus_histogram_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("service/added-delay", edges=(1.0, 2.0))
        for v in (0.5, 1.5, 1.7, 5.0):
            hist.observe(v)
        text = render_prometheus(registry)
        assert 'repro_service_added_delay_bucket{le="1"} 1' in text
        assert 'repro_service_added_delay_bucket{le="2"} 3' in text
        assert 'repro_service_added_delay_bucket{le="+Inf"} 4' in text
        assert "repro_service_added_delay_count 4" in text


class TestLoadGenerator:
    def test_validation(self):
        service = TemporalPrivacyService(_config())
        with pytest.raises(ValueError):
            ServiceLoadGenerator(service, PoissonTraffic(rate=1.0), flows=0)
        with pytest.raises(ValueError):
            ServiceLoadGenerator(service, PoissonTraffic(rate=1.0), speedup=0.0)

    def test_report_added_delays_split_by_early(self):
        async def main():
            service = TemporalPrivacyService(
                _config(shards=1, shard_capacity=2, max_buffered_total=50,
                        mean_delay=30.0)
            )
            gen = ServiceLoadGenerator(
                service, PoissonTraffic(rate=10000.0), flows=1
            )
            service.set_on_release(gen.on_release)
            await service.start()
            await gen.drive(6)
            await service.stop()
            return gen.report

        report = asyncio.run(main())
        assert report.outcomes[SubmitOutcome.ADMITTED_PREEMPT] == 4
        early = report.added_delays(early=True)
        assert len(early) == 4
        assert all(d < 30.0 for d in early)
        assert report.added_delays(early=False) == []

    def test_wall_time_tracks_pacing(self):
        async def main():
            service = TemporalPrivacyService(_config(mean_delay=0.005))
            gen = ServiceLoadGenerator(
                service, PoissonTraffic(rate=100.0), flows=2, speedup=10.0
            )
            service.set_on_release(gen.on_release)
            await service.start()
            start = time.perf_counter()
            report = await gen.drive(30)
            elapsed = time.perf_counter() - start
            await service.drain(timeout=5.0)
            return report, elapsed

        report, elapsed = asyncio.run(main())
        assert report.submitted == 30
        assert report.wall_time <= elapsed + 0.001
