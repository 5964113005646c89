"""The distributed sweep fabric: a TCP worker pool behind the supervisor.

``--listen HOST:PORT`` swaps the supervisor's local fork pool for a
:class:`FabricPool`; everything else about a sweep stays the
supervisor's -- retries, quarantine, timeouts, the resume journal and
item-order telemetry replay.  The pieces:

* :class:`FabricExecutor` -- the runtime context's ``fabric`` under
  ``--listen``.  It owns one :class:`~repro.runtime.transport.
  FabricEndpoint` for the whole command and hands the supervisor a
  fresh pool per sweep (and per rebuild);
* :class:`FabricPool` -- one sweep on that endpoint.  It arms the sweep,
  forks ``--jobs`` local workers that dial the endpoint over loopback,
  and returns one future per submitted cell, which is the surface the
  supervisor uses on the fork pool (``submit``/``shutdown``);
* :class:`FabricWorker` -- the worker loop, the same for local and
  remote (``repro worker --connect HOST:PORT``) workers: acquire a
  lease, run :func:`~repro.runtime.executors._worker_invoke` -- the fork
  pool's own per-cell contract -- and upload its ``(payload,
  cache_delta, stats_delta, telemetry_runs)`` tuple.

Local workers inherit the sweep function and items through ``fork``,
closures included.  Remote workers load the *grid* over TCP: the items,
pickled, and the function as an importable ``module:qualname``; a sweep
whose function has no such name (a closure) is left to the local
workers.  Results are merged by the supervisor in item order, so a
fabric run is bit-identical to a serial one
(``tests/test_runtime_determinism.py``).
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import threading
import time
import uuid
from dataclasses import asdict
from typing import Callable

from repro.runtime import executors as _executors
from repro.runtime import transport as _transport
from repro.runtime.cache import ResultCache
from repro.runtime.context import current_runtime, use_runtime
from repro.runtime.transport import (
    TRANSPORT_VERSION,
    FabricEndpoint,
    TransportClient,
    TransportError,
    format_endpoint,
    pack_blob,
    parse_endpoint,
    unpack_blob,
)
from repro.telemetry import RunTelemetry

__all__ = [
    "FabricError",
    "FabricExecutor",
    "FabricPool",
    "FabricWorker",
    "function_ref",
    "resolve_function_ref",
]

#: Seconds an idle worker waits before asking for work again.
POLL_INTERVAL = 0.05


class FabricError(RuntimeError):
    """The fabric cannot run (bind failure, incompatible endpoint)."""


def function_ref(fn: Callable) -> str | None:
    """``module:qualname`` if ``fn`` is importable by that name, else None.

    Closures and lambdas return None: local workers inherit them through
    ``fork``, but remote workers cannot run such a sweep.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", "")
    if not module or not qualname or "<" in qualname:
        return None
    try:
        if resolve_function_ref(f"{module}:{qualname}") is not fn:
            return None
    except Exception:
        return None
    return f"{module}:{qualname}"


def resolve_function_ref(ref: str) -> Callable:
    """Import the callable named by a ``module:qualname`` reference."""
    module_name, _, qualname = ref.partition(":")
    if not module_name or not qualname:
        raise FabricError(f"malformed function reference {ref!r}")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise FabricError(f"function reference {ref!r} is not callable")
    return obj


# ----------------------------------------------------------------------
# Coordinator side.


class FabricExecutor:
    """Run every sweep of a command on a :class:`FabricPool`.

    Starting it binds ``listen`` (port 0 picks an ephemeral port, read
    it back from :attr:`address`), so a bad or busy address fails
    before any work starts.  ``jobs`` is the number of local workers
    each pool forks.
    """

    def __init__(self, jobs: int, listen: str) -> None:
        host, port = parse_endpoint(listen, allow_port_zero=True)
        self.jobs = max(1, int(jobs))
        self.endpoint = FabricEndpoint(host, port)
        try:
            port = self.endpoint.start()
        except TransportError as exc:
            raise FabricError(str(exc)) from exc
        self.address = format_endpoint(host, port)
        # Local workers dial a wildcard listener over loopback.
        self.dial = ({"0.0.0.0": "127.0.0.1", "::": "::1"}.get(host, host), port)

    def new_pool(self) -> "FabricPool":
        return FabricPool(self)

    def close(self) -> None:
        """Stop the endpoint (remote workers are told to leave) and
        publish the ``fabric/...`` counters into the context telemetry."""
        self.endpoint.stop()
        telemetry = current_runtime().telemetry
        if telemetry is None:
            return
        run = RunTelemetry()
        registry = run.registry
        for name, value in asdict(self.endpoint.stats).items():
            registry.counter(f"fabric/{name.replace('_', '-')}").inc(value)
        for worker, cells in sorted(self.endpoint.cells_by.items()):
            registry.counter(f"fabric/cells-by/{worker}").inc(cells)
        for stats in self.endpoint.client_stats.values():
            for name, value in stats.items():
                if isinstance(value, int):
                    registry.counter(f"fabric/client-{name.replace('_', '-')}").inc(value)
        registry.gauge("fabric/local-workers").set(float(self.jobs))
        telemetry.add_run("fabric", run)

    def render(self) -> str:
        """The CLI's trailer line."""
        stats = self.endpoint.stats
        by_worker = ", ".join(
            f"{worker} {cells}" for worker, cells in sorted(self.endpoint.cells_by.items())
        )
        return (
            f"fabric {self.address}: {stats.leases} leases, {stats.steals} steals, "
            f"{stats.uploads} uploads ({stats.uploads_deduped} duplicates), "
            f"{stats.connections} connections; cells by worker: {by_worker or 'none'}"
        )


class FabricPool:
    """One sweep armed on the endpoint, plus its forked local workers.

    Created by the supervisor after it armed ``executors._ACTIVE`` with
    the sweep's function and items, which the forked workers inherit.
    """

    def __init__(self, executor: FabricExecutor) -> None:
        active = _executors._ACTIVE
        assert active is not None  # armed by the supervisor
        self.endpoint = executor.endpoint
        self.jobs = executor.jobs
        self.sweep = uuid.uuid4().hex[:12]
        fn_ref = function_ref(active["fn"])
        try:
            items = pack_blob(active["items"]) if fn_ref else None
        except Exception:
            items = None  # unpicklable items: local workers only
        self.endpoint.arm(
            self.sweep,
            {
                "fn_ref": fn_ref if items else None,
                "items": items,
                "telemetry": current_runtime().telemetry is not None,
            },
        )
        context = multiprocessing.get_context("fork")
        self.processes = []
        try:
            for _ in range(self.jobs):
                process = context.Process(
                    target=_local_worker_main, args=(executor.dial, self.sweep), daemon=True
                )
                process.start()
                self.processes.append(process)
        except BaseException:
            self.shutdown()
            raise

    @property
    def capacity(self) -> int:
        """How many cells the supervisor should keep in flight: one per
        live worker, and never fewer than the local ones."""
        return max(self.jobs, self.endpoint.live_runners())

    def submit(self, fn: Callable, index: int):
        assert fn is _executors._worker_invoke  # the only per-cell contract
        return self.endpoint.submit(index)

    def shutdown(self, wait: bool = True, cancel_futures: bool = True) -> None:
        for process in self.processes:
            process.kill()
        for process in self.processes:
            process.join(timeout=10.0)
        self.endpoint.disarm([_local_worker_id(p.pid) for p in self.processes])


def _local_worker_id(pid: int | None) -> str:
    return f"local-{pid}"


def _local_worker_main(dial: tuple[str, int], sweep: str) -> None:
    """Entry point of a pool-forked worker (the pool kills it)."""
    client = TransportClient(dial, _local_worker_id(os.getpid()))
    FabricWorker(client, sweep=sweep).run()


# ----------------------------------------------------------------------
# Worker side.


class FabricWorker:
    """Acquire a lease, run the cell, upload the result; repeat.

    ``sweep`` is given for pool-forked workers, which inherited the
    sweep's function and items and the coordinator's runtime context.
    A remote worker starts with none: it loads each new sweep's grid
    over TCP and runs the cells in a runtime context of its own, with
    ``cache_dir`` as the result cache and the coordinator's telemetry
    setting (which is part of every cached result's identity).
    """

    def __init__(
        self,
        client: TransportClient,
        sweep: str | None = None,
        cache_dir: str | None = None,
    ) -> None:
        self.client = client
        self.sweep = sweep
        self.remote = sweep is None
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.telemetry = False
        self.computed = 0
        self._unrunnable: set[str] = set()

    def run(self) -> int:
        """Work until the endpoint says the command is over; returns
        the number of cells this worker computed."""
        hello = self.client.call("hello")
        if hello.get("version") != TRANSPORT_VERSION:
            raise FabricError(
                f"endpoint {self.client.endpoint} speaks transport version "
                f"{hello.get('version')!r}, not {TRANSPORT_VERSION}"
            )
        stop = threading.Event()
        heartbeat = threading.Thread(target=self._heartbeat, args=(stop,), daemon=True)
        heartbeat.start()
        try:
            while True:
                lease = self.client.call("acquire", sweep=self.sweep)
                if lease.get("shutdown"):
                    return self.computed
                index = lease.get("index")
                if index is None:
                    armed = lease.get("sweep")
                    if not (armed and armed != self.sweep and self._load(armed)):
                        time.sleep(POLL_INTERVAL)
                    continue
                outcome = self._invoke(index)
                self.client.call(
                    "upload", sweep=self.sweep, index=index, **pack_blob(outcome)
                )
                self.computed += 1
        finally:
            stop.set()
            heartbeat.join(timeout=5.0)
            self.client.close(bye=True)

    def _heartbeat(self, stop: threading.Event) -> None:
        # Keeps this worker's leases alive while a long cell runs.
        interval = _transport.LEASE_TTL / 3.0
        while not stop.wait(interval):
            try:
                self.client.call(
                    "heartbeat", stats=self.client.stats.to_json(), max_elapsed=interval
                )
            except TransportError:
                pass  # the worker loop sees a lost endpoint on its own calls

    def _load(self, sweep: str) -> bool:
        """Load a remote sweep's grid; False if this worker cannot run it."""
        if not self.remote or sweep in self._unrunnable:
            return False
        try:
            grid = self.client.call("grid", sweep=sweep)
        except TransportError:
            return False  # disarmed meanwhile
        if grid.get("fn_ref") is None:
            self._unrunnable.add(sweep)
            return False
        _executors._ACTIVE = {
            "fn": resolve_function_ref(grid["fn_ref"]),
            "items": unpack_blob(grid["items"]),
        }
        self.telemetry = bool(grid.get("telemetry"))
        self.sweep = sweep
        return True

    def _invoke(self, index: int):
        if not self.remote:
            return _executors._worker_invoke(index)
        with use_runtime(cache=self.cache, telemetry=self.telemetry):
            return _executors._worker_invoke(index)
