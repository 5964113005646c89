"""Distributed sweep fabric: the supervisor's TCP worker pool.

The crash matrix, run through ``use_runtime(listen=...)`` exactly as the
CLI's ``--listen`` does: a SIGKILLed worker's cell is stolen and rerun,
a restarted coordinator resumes from the journal, closures reach forked
workers, failing, hanging and worker-killing cells go through the
supervisor's retry/quarantine rules, and every run is bit-identical to
the serial executor.
"""

import os
import signal
import threading
import time

import pytest

from repro.runtime import (
    RetryPolicy,
    WorkerError,
    executors,
    supervised_map,
    transport,
    use_runtime,
)
from repro.runtime.fabric import FabricError, function_ref, resolve_function_ref
from repro.runtime.transport import (
    FabricEndpoint,
    TransportClient,
    TransportError,
    pack_blob,
    unpack_blob,
)

LOOPBACK = "127.0.0.1:0"
GRID = {"fn_ref": None, "items": None, "telemetry": False}


def _square(x):
    return x * x


@pytest.fixture()
def fast_ttl(monkeypatch):
    """A short lease TTL so steals and orphan detection take < 1 s."""
    monkeypatch.setattr(transport, "LEASE_TTL", 0.5)


class TestFunctionRef:
    def test_importable_function_round_trips(self):
        ref = function_ref(_square)
        assert ref is not None and ref.endswith(":_square")
        assert resolve_function_ref(ref) is _square

    def test_closure_has_no_ref(self):
        def local(x):
            return x

        assert function_ref(local) is None
        assert function_ref(lambda x: x) is None

    def test_malformed_ref_raises(self):
        with pytest.raises(FabricError):
            resolve_function_ref("no-colon")


class TestGrid:
    """The grid a remote worker loads: items as a checksummed pickle."""

    def test_round_trip(self):
        items = [(i, "x" * i) for i in range(5)]
        assert unpack_blob(pack_blob(items)) == items

    def test_corrupt_item_checksum_is_fatal(self):
        blob = pack_blob([1, 2])
        blob["sha"] = "0" * 64
        with pytest.raises(TransportError, match="checksum"):
            unpack_blob(blob)


class TestLeaseBoard:
    """Leases live in the endpoint's memory, judged in server time."""

    @pytest.fixture()
    def board(self):
        endpoint = FabricEndpoint()
        port = endpoint.start()
        endpoint.arm("s", GRID)
        futures = [endpoint.submit(index) for index in range(3)]
        clients = []

        def client(worker):
            clients.append(TransportClient(("127.0.0.1", port), worker))
            return clients[-1]

        yield endpoint, client, futures
        for one in clients:
            one.close()
        endpoint.stop(grace=0)

    @staticmethod
    def _acquire(client):
        return client.call("acquire", sweep="s")["index"]

    def test_first_claim_wins_second_loses(self, board):
        _, client, _ = board
        a, b = client("a"), client("b")
        first = self._acquire(a)
        assert self._acquire(b) != first

    def test_same_worker_reclaim_is_idempotent(self, board):
        """At-least-once RPC delivery may replay an acquire whose
        response was lost; the owner gets its own lease back."""
        _, client, _ = board
        a = client("a")
        assert self._acquire(a) == self._acquire(a)

    def test_live_heartbeat_blocks_steal(self, fast_ttl, board):
        endpoint, client, _ = board
        a, b = client("a"), client("b")
        held = self._acquire(a)
        for _ in range(4):  # 0.8 s: longer than one TTL, heartbeating
            time.sleep(0.2)
            a.call("heartbeat")
        assert self._acquire(b) != held
        assert endpoint.stats.steals == 0

    @staticmethod
    def _outlive(worker, seconds):
        # Heartbeat through ``seconds`` so ``worker`` stays a live
        # runner (a sweep with none left would fail its futures).
        for _ in range(int(seconds / 0.1)):
            time.sleep(0.1)
            worker.call("heartbeat")

    def test_expired_lease_is_stolen(self, fast_ttl, board):
        endpoint, client, _ = board
        a, b = client("a"), client("b")
        held = self._acquire(a)  # then "a" goes silent
        mine = self._acquire(b)
        self._outlive(b, 0.6)
        b.call("upload", sweep="s", index=mine, **pack_blob(mine))
        stolen = set()
        for _ in range(2):
            index = self._acquire(b)
            stolen.add(index)
            b.call("upload", sweep="s", index=index, **pack_blob(index))
        assert held in stolen
        assert endpoint.stats.steals == 1

    def test_departed_worker_lease_is_released(self, board):
        endpoint, client, _ = board
        a, b = client("a"), client("b")
        held = self._acquire(a)
        a.call("bye")
        assert self._acquire(b) == held  # at once, no TTL wait
        assert endpoint.stats.steals == 0

    def test_stats_count_claims_and_steals(self, fast_ttl, board):
        endpoint, client, _ = board
        a, b = client("a"), client("b")
        held = self._acquire(a)
        mine = self._acquire(b)
        self._outlive(b, 0.6)
        b.call("upload", sweep="s", index=mine, **pack_blob(mine))
        assert self._acquire(b) == held
        assert endpoint.stats.leases == 3
        assert endpoint.stats.steals == 1


class TestRunFabric:
    def test_matches_serial_executor(self):
        items = list(range(12))
        with use_runtime(jobs=2, listen=LOOPBACK) as ctx:
            results = supervised_map(_square, items, ctx)
        assert results == [_square(item) for item in items]
        stats = ctx.fabric.endpoint.stats
        assert stats.uploads == 12
        assert sum(ctx.fabric.endpoint.cells_by.values()) == 12

    def test_closure_runs_via_fork_inheritance(self):
        offset = 17

        def cell(x):
            return x + offset

        with use_runtime(jobs=2, listen=LOOPBACK) as ctx:
            assert supervised_map(cell, [1, 2, 3], ctx) == [18, 19, 20]
        # A closure has no importable name, so remote workers are never
        # offered it: only the forked (inheriting) workers ran it.
        assert function_ref(cell) is None
        assert all(w.startswith("local-") for w in ctx.fabric.endpoint.cells_by)

    def test_coordinator_restart_recomputes_nothing(self, tmp_path):
        marks = tmp_path / "marks"
        marks.mkdir()

        def cell(x):
            (marks / f"{x}-{os.getpid()}").touch()
            return x * 3

        runtime = dict(jobs=2, listen=LOOPBACK, journal_dir=tmp_path / "journal")
        with use_runtime(**runtime) as ctx:
            first = supervised_map(cell, [1, 2, 3, 4], ctx, label="re")
        n_marks = len(list(marks.iterdir()))
        assert n_marks >= 4

        with use_runtime(resume=True, **runtime) as ctx:
            second = supervised_map(cell, [1, 2, 3, 4], ctx, label="re")
        assert second == first == [3, 6, 9, 12]
        assert ctx.journal_stats.resumed == 4
        assert ctx.fabric.endpoint.stats.leases == 0  # no pool at all
        assert len(list(marks.iterdir())) == n_marks  # zero recompute

    def test_failed_cell_is_reported_not_lost(self, tmp_path):
        """A failing cell is retried by RetryPolicy, then quarantined
        (or raised) exactly as under --jobs."""

        def cell(x):
            if x == 2:
                (tmp_path / f"attempt-{time.monotonic_ns()}").touch()
                raise ValueError("doomed cell")
            return x

        policy = RetryPolicy(max_attempts=2, backoff=0.01, on_failure="quarantine")
        with use_runtime(jobs=2, listen=LOOPBACK, retry=policy) as ctx:
            results = supervised_map(cell, [1, 2, 3], ctx)
        assert results == [1, None, 3]
        (record,) = ctx.failure_reports[0].failures
        assert (record.index, record.kind, record.attempts) == (1, "error", 2)
        assert "doomed cell" in record.message
        assert len(list(tmp_path.glob("attempt-*"))) == 2

        with use_runtime(jobs=2, listen=LOOPBACK) as ctx:
            with pytest.raises(WorkerError, match="doomed cell"):
                supervised_map(cell, [1, 2, 3], ctx)

    def test_item_timeout_keeps_supervisor_semantics(self):
        """--item-timeout under --listen: the hung worker is killed with
        the pool, the cell charged a timeout, its co-flight cells rerun."""

        def cell(x):
            if x == 2:
                time.sleep(60)
            return x

        policy = RetryPolicy(timeout=1.0, on_failure="quarantine")
        started = time.monotonic()
        with use_runtime(jobs=2, listen=LOOPBACK, retry=policy) as ctx:
            results = supervised_map(cell, [1, 2, 3, 4], ctx)
        assert time.monotonic() - started < 30
        assert results == [1, None, 3, 4]
        (record,) = ctx.failure_reports[0].failures
        assert (record.index, record.kind) == (1, "timeout")

    def test_cell_killing_every_worker_is_charged_as_a_crash(self, fast_ttl):
        """With no worker left alive the sweep's futures fail, and the
        supervisor charges the cell a crash instead of hanging."""

        def cell(x):
            os.kill(os.getpid(), signal.SIGKILL)

        policy = RetryPolicy(on_failure="quarantine")
        with use_runtime(jobs=1, listen=LOOPBACK, retry=policy) as ctx:
            results = supervised_map(cell, [1, 2], ctx)
        assert results == [None, None]
        kinds = [record.kind for record in ctx.failure_reports[0].failures]
        assert kinds == ["crash", "crash"]

    def test_empty_sweep_rejected(self):
        from repro.analysis.sweep import sweep

        with use_runtime(jobs=2, listen=LOOPBACK):
            with pytest.raises(ValueError, match="at least one"):
                sweep([], _square)

    def test_telemetry_publishes_fabric_counters(self):
        with use_runtime(jobs=2, listen=LOOPBACK, telemetry=True) as ctx:
            supervised_map(_square, [1, 2, 3], ctx)
        (fabric,) = [run for key, run in ctx.telemetry.runs if key == "fabric"]
        snapshot = fabric.registry.snapshot()
        assert snapshot["counters"]["fabric/uploads"] == 3
        assert snapshot["counters"]["fabric/leases"] == 3
        assert snapshot["gauges"]["fabric/local-workers"] == 2.0
        per_worker = [
            value for name, value in snapshot["counters"].items()
            if name.startswith("fabric/cells-by/")
        ]
        assert sum(per_worker) == 3


class TestSigkillRecovery:
    """The headline acceptance test: kill a worker mid-cell, nothing lost."""

    def test_sigkilled_worker_cell_is_stolen_and_rerun(self, tmp_path, fast_ttl):
        flag = tmp_path / "block.flag"
        marker = tmp_path / "victim.pid"
        flag.touch()

        def cell(x):
            if x == 99 and not marker.exists():
                # The first runner of this cell announces itself and
                # blocks until the test SIGKILLs it; the thief finds the
                # marker and completes at once.
                (tmp_path / "pid.tmp").write_text(str(os.getpid()))
                os.replace(tmp_path / "pid.tmp", marker)
                while flag.exists():
                    time.sleep(0.02)
            return x * 2

        def kill_victim():
            deadline = time.monotonic() + 30
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.02)
            os.kill(int(marker.read_text()), signal.SIGKILL)
            flag.unlink()

        killer = threading.Thread(target=kill_victim)
        killer.start()
        items = [1, 2, 99, 3, 4, 5]
        try:
            with use_runtime(jobs=2, listen=LOOPBACK) as ctx:
                results = supervised_map(cell, items, ctx)
        finally:
            killer.join(timeout=60)
        assert not killer.is_alive()
        assert results == [x * 2 for x in items]  # bit-identical, zero lost
        assert ctx.fabric.endpoint.stats.steals >= 1
        assert not ctx.failure_reports  # a steal is not a charged failure


class TestExternalWorker:
    def test_worker_joins_and_completes_grid(self, monkeypatch):
        from repro.runtime.fabric import FabricWorker

        # The in-thread worker sets the executors' fork-side globals.
        monkeypatch.setattr(executors, "_IN_WORKER", False)
        monkeypatch.setattr(executors, "_ACTIVE", None)
        endpoint = FabricEndpoint()
        port = endpoint.start()
        outcome = {}
        try:
            endpoint.arm(
                "ext",
                {"fn_ref": function_ref(_square), "items": pack_blob([3, 4, 5]),
                 "telemetry": False},
            )
            futures = [endpoint.submit(index) for index in range(3)]
            worker = FabricWorker(TransportClient(("127.0.0.1", port), "ext-1"))
            thread = threading.Thread(target=lambda: outcome.update(n=worker.run()))
            thread.start()
            payloads = [future.result(timeout=30)[0] for future in futures]
        finally:
            endpoint.stop()
        thread.join(timeout=30)
        assert payloads == [("ok", 9), ("ok", 16), ("ok", 25)]
        assert outcome["n"] == 3
        assert endpoint.cells_by == {"ext-1": 3}
