"""Networked fabric end-to-end: TCP workers, chaos, endpoint loss.

A remote worker over TCP -- direct or through the chaos proxy with
drops, duplicates, resets and a partition -- returns results that merge
bit-identical to the serial executor, and losing the endpoint mid-run
ends the worker with a clear error instead of a hang.
"""

import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.runtime import executors, supervised_map, transport, use_runtime
from repro.runtime.fabric import FabricError, FabricWorker, function_ref
from repro.runtime.transport import (
    Backoff,
    FabricEndpoint,
    TransportClient,
    TransportDown,
    pack_blob,
)

from .chaosnet import ChaosProxy, NetFaultPlan, PartitionWindow

REPO = Path(__file__).resolve().parents[1]


def _cube(x):
    return x**3


def _slow_cube(x):
    time.sleep(0.2)
    return x**3


def _simulate(seed):
    from repro.runtime.context import run_simulation
    from repro.sim.config import SimulationConfig

    config = SimulationConfig.paper_baseline(
        interarrival=4.0, case="rcad", n_packets=40, seed=seed
    )
    return run_simulation(config).mean_latency()


@pytest.fixture(autouse=True)
def _restore_fork_globals(monkeypatch):
    # In-thread workers set the executors' fork-side globals.
    monkeypatch.setattr(executors, "_IN_WORKER", False)
    monkeypatch.setattr(executors, "_ACTIVE", None)


_THREADS: list[threading.Thread] = []


@pytest.fixture()
def served():
    """An endpoint armed with a sweep of ``fn`` over ``items``; yields
    ``(endpoint, arm)`` where ``arm(fn, items)`` returns the futures.
    Teardown stops the endpoint -- workers are told to leave -- and
    joins every worker thread, so none outlives its test."""
    endpoint = FabricEndpoint()
    endpoint.start()

    def arm(fn, items):
        endpoint.arm(
            "net",
            {"fn_ref": function_ref(fn), "items": pack_blob(items), "telemetry": False},
        )
        return [endpoint.submit(index) for index in range(len(items))]

    yield endpoint, arm
    endpoint.stop()
    while _THREADS:
        thread = _THREADS.pop()
        thread.join(timeout=30)
        assert not thread.is_alive(), "a fabric worker outlived its test"


def _run_worker(worker):
    outcome = {}

    def target():
        try:
            outcome["computed"] = worker.run()
        except Exception as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    _THREADS.append(thread)
    return thread, outcome


def _values(futures):
    return [future.result(timeout=60)[0][1] for future in futures]


class TestNetworkedWorker:
    def test_tcp_worker_matches_serial_bit_for_bit(self, served):
        endpoint, arm = served
        items = list(range(8))
        futures = arm(_cube, items)
        worker = FabricWorker(TransportClient(("127.0.0.1", endpoint.port), "net0"))
        _run_worker(worker)
        assert _values(futures) == [_cube(item) for item in items]
        assert endpoint.cells_by == {"net0": len(items)}

    def test_worker_heartbeats_count_as_external_liveness(self, served, monkeypatch):
        """A remote worker running the sweep raises the pool's capacity
        for as long as it is heard from."""
        monkeypatch.setattr(transport, "LEASE_TTL", 0.5)
        endpoint, arm = served
        arm(_cube, [1, 2])
        client = TransportClient(("127.0.0.1", endpoint.port), "nethb")
        try:
            client.call("acquire", sweep="net")
            client.call("heartbeat", stats=client.stats.to_json())
            assert endpoint.live_runners() == 1
            assert endpoint.client_stats["nethb"]["rpcs"] >= 1
            time.sleep(0.6)
            assert endpoint.live_runners() == 0
        finally:
            client.close(bye=True)

    def test_chaos_run_matches_serial_bit_for_bit(self, served):
        """Drops + duplicates + mid-frame resets + one full partition:
        the results are still byte-identical to serial."""
        endpoint, arm = served
        items = list(range(9))
        futures = arm(_cube, items)
        proxy = ChaosProxy(
            "127.0.0.1",
            endpoint.port,
            NetFaultPlan(
                drop_probability=0.10,
                duplicate_probability=0.10,
                reset_probability=0.05,
                partitions=(PartitionWindow(start=0.5, duration=0.8),),
                seed=3,
            ),
        )
        chaos_port = proxy.start()
        client = TransportClient(
            ("127.0.0.1", chaos_port),
            "net0",
            call_timeout=0.5,
            max_retry_elapsed=60.0,
            backoff=Backoff(base=0.01, cap=0.1),
        )
        try:
            _run_worker(FabricWorker(client))
            assert _values(futures) == [_cube(item) for item in items]
            # The chaos plan actually fired.
            assert (
                proxy.stats.frames_dropped
                + proxy.stats.frames_duplicated
                + proxy.stats.resets
            ) > 0
            assert client.stats.retransmitted_frames > 0
        finally:
            endpoint.stop()  # the worker hears "shutdown" through the proxy
            proxy.stop()

    def test_remote_worker_mirrors_coordinator_telemetry(self, served):
        """A remote worker runs cells with the coordinator's telemetry
        setting, so its uploaded per-cell runs equal a serial capture."""
        import json

        from repro.runtime import use_runtime

        endpoint, _ = served
        seeds = [0, 1]
        endpoint.arm(
            "tele",
            {"fn_ref": function_ref(_simulate), "items": pack_blob(seeds), "telemetry": True},
        )
        futures = [endpoint.submit(index) for index in range(len(seeds))]
        _run_worker(FabricWorker(TransportClient(("127.0.0.1", endpoint.port), "net0")))
        uploaded = [future.result(timeout=60) for future in futures]

        with use_runtime(telemetry=True) as ctx:
            serial = [_simulate(seed) for seed in seeds]

        def runs(pairs):
            return [(key, json.dumps(run.snapshot(), sort_keys=True)) for key, run in pairs]

        assert [payload[1] for payload, *_ in uploaded] == serial
        assert runs(r for *_, telemetry_runs in uploaded for r in telemetry_runs) == runs(
            ctx.telemetry.runs
        )

    def test_duplicate_uploads_replayed_twice_merge_identically(self, served):
        """Every upload delivered twice end-to-end: the second copy is
        counted as a duplicate and the results stay serial-identical."""
        endpoint, arm = served
        items = list(range(6))
        futures = arm(_cube, items)
        client = TransportClient(("127.0.0.1", endpoint.port), "net0")
        original_call = client.call

        def duplicating_call(op, **kwargs):
            response = original_call(op, **kwargs)
            if op == "upload":
                assert original_call(op, **kwargs)["deduped"] is True
            return response

        client.call = duplicating_call
        _run_worker(FabricWorker(client))
        assert _values(futures) == [_cube(item) for item in items]
        deadline = time.monotonic() + 10  # the last replay trails its future
        while endpoint.stats.uploads_deduped < len(items) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert endpoint.stats.uploads == len(items)
        assert endpoint.stats.uploads_deduped == len(items)


class TestDegradationLadder:
    def test_endpoint_loss_without_directory_abandons_clearly(self, served):
        """Kill the endpoint while a worker is mid-cell: its upload
        exhausts the retry budget and the worker ends with
        TransportDown instead of hanging."""
        endpoint, arm = served
        arm(_slow_cube, list(range(6)))
        client = TransportClient(
            ("127.0.0.1", endpoint.port),
            "net0",
            call_timeout=0.5,
            max_retry_elapsed=1.0,
            backoff=Backoff(base=0.01, cap=0.05),
        )
        thread, outcome = _run_worker(FabricWorker(client))
        deadline = time.monotonic() + 30
        while endpoint.stats.leases < 2 and time.monotonic() < deadline:
            time.sleep(0.01)  # second lease taken: the worker is mid-cell
        endpoint.stop(grace=0)
        thread.join(timeout=30)
        assert isinstance(outcome.get("error"), TransportDown)

    def test_version_mismatch_is_rejected_at_hello(self, served):
        endpoint, _ = served
        client = TransportClient(("127.0.0.1", endpoint.port), "net0")
        original_call = client.call

        def skewed_call(op, **kwargs):
            response = original_call(op, **kwargs)
            if op == "hello":
                response["version"] = 999
            return response

        client.call = skewed_call
        with pytest.raises(FabricError, match="version"):
            FabricWorker(client).run()
        client.close()


class TestCoordinatorEndpoint:
    def test_listen_serves_tcp_workers(self, tmp_path):
        """A ``repro worker --connect`` process joins a --listen sweep
        and takes a share of its cells."""
        items = list(range(10))
        with use_runtime(jobs=1, listen="127.0.0.1:0") as ctx:
            remote = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "worker",
                    "--connect", ctx.fabric.address, "--worker-id", "ext0",
                    "--cache-dir", str(tmp_path / "cache"),
                ],
                env={**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(REPO)])},
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            endpoint = ctx.fabric.endpoint
            deadline = time.monotonic() + 60
            while not endpoint.stats.connections and time.monotonic() < deadline:
                time.sleep(0.05)  # the remote is in before the sweep starts
            results = supervised_map(_slow_cube, items, ctx)
        out, err = remote.communicate(timeout=60)
        assert results == [_cube(item) for item in items]
        assert remote.returncode == 0, err
        assert endpoint.cells_by.get("ext0", 0) >= 1
        assert f"computed {endpoint.cells_by['ext0']} cells" in out
        assert "ext0" in ctx.fabric.render()

    def test_listen_port_conflict_is_a_fabric_error(self):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(FabricError, match="cannot listen"):
                with use_runtime(jobs=1, listen=f"127.0.0.1:{port}"):
                    pass
        finally:
            blocker.close()

    def test_config_validates_listen_endpoint_eagerly(self):
        with pytest.raises(ValueError, match="host:port"):
            with use_runtime(listen="not-an-endpoint"):
                pass
