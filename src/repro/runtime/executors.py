"""Pluggable sweep executors: serial loop or process-pool fan-out.

The contract is a deterministic, order-preserving ``map``: the result
list is aligned with the input list no matter which worker computed
which item, and a given item produces the same value under either
executor (simulations derive all randomness from their configuration's
seed via named :class:`~repro.des.rng.RngRegistry` streams, so no
hidden state crosses items).

The :class:`ParallelExecutor` ships work to forked workers through an
inherited module global rather than by pickling the callable -- sweep
bodies are closures over experiment parameters, which stdlib pickle
cannot serialize, while ``fork`` children inherit them for free.  Only
the item *indices* travel to the pool and only the results travel
back.  Worker-side cache/runtime counters are returned alongside each
result and merged into the parent's counters, so cache statistics stay
truthful under ``--jobs N``.

On platforms without ``fork`` (or inside a worker, where nesting pools
would be a fork bomb) the parallel executor degrades to the serial
path -- same results, no surprises.
"""

from __future__ import annotations

import abc
import math
import sys
import traceback
from typing import Callable, Sequence, TypeVar

__all__ = ["Executor", "SerialExecutor", "ParallelExecutor", "WorkerError"]

T = TypeVar("T")
R = TypeVar("R")


def _serial_repro_command() -> str:
    """A ready-to-paste ``repro ... --jobs 1`` serial reproduction.

    Best effort: rebuilt from ``sys.argv`` with any ``--jobs`` option
    replaced, falling back to a template outside a CLI invocation.
    """
    arguments = []
    skip_next = False
    for argument in sys.argv[1:]:
        if skip_next:
            skip_next = False
            continue
        if argument == "--jobs":
            skip_next = True
            continue
        if argument.startswith("--jobs="):
            continue
        arguments.append(argument)
    if not arguments:
        return "repro <command> --jobs 1"
    return "repro " + " ".join(arguments) + " --jobs 1"


class WorkerError(RuntimeError):
    """A sweep item failed inside a pool worker.

    Carries the item's index and value plus the worker-side traceback
    text, so the failing cell can be reproduced serially.  Instances
    pickle cleanly (``__reduce__``), so the index/item survive a trip
    through a result queue or a crash report.
    """

    def __init__(
        self, index: int, item: object, message: str, remote_traceback: str
    ) -> None:
        super().__init__(
            f"sweep item {index} ({item!r}) failed in worker: {message}\n"
            f"reproduce serially with: {_serial_repro_command()} "
            f"(fails at sweep item {index})\n"
            f"--- worker traceback ---\n{remote_traceback}"
        )
        self.index = index
        self.item = item
        self.message = message
        self.remote_traceback = remote_traceback

    def __reduce__(self):
        return (
            type(self),
            (self.index, self.item, self.message, self.remote_traceback),
        )


class Executor(abc.ABC):
    """Order-preserving map strategy over sweep items."""

    #: Worker-process count this executor targets (1 for serial).
    jobs: int = 1

    #: Pool factory for the supervisor; None keeps its local fork pool.
    new_pool: Callable[[], object] | None = None

    @abc.abstractmethod
    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Evaluate ``fn`` on every item, returning results in item order."""

    def close(self) -> None:
        """Release what the executor holds (called on context exit)."""


class SerialExecutor(Executor):
    """The legacy in-process loop (the determinism reference)."""

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        return [fn(item) for item in items]


# ----------------------------------------------------------------------
# Fork-side plumbing.  ``_ACTIVE`` holds the work unit between the
# parent arming it and the pool workers (forked afterwards) reading it;
# ``_IN_WORKER`` marks forked children so nested sweeps stay serial.
_ACTIVE: dict | None = None
_IN_WORKER = False


def __getattr__(name: str):
    # ``ProcessPoolExecutor`` (and with it ``multiprocessing``) loads on
    # a parallel map's first use, so a serial run never imports the
    # pool stack; it stays a module attribute, which tests replace.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _worker_invoke(index: int):
    """Run one item in a forked worker; never raises.

    Returns ``(payload, cache_delta, stats_delta, telemetry_runs)``
    where payload is ``("ok", value)`` or ``("err", message,
    traceback_text)``.  The deltas let the parent fold worker-side
    cache hits/misses and simulator invocations into its own counters;
    ``telemetry_runs`` is the item's captured telemetry publications
    (in publication order) for the parent to replay in *item* order --
    that replay discipline is what keeps aggregated telemetry
    bit-identical between ``--jobs N`` and serial execution.
    """
    global _IN_WORKER
    _IN_WORKER = True
    from repro.runtime.context import current_runtime

    context = current_runtime()
    cache_before = context.cache.stats.snapshot() if context.cache else None
    stats_before = context.stats.snapshot()
    assert _ACTIVE is not None  # armed by the parent before the fork
    telemetry_runs = None
    try:
        if context.telemetry is not None:
            with context.telemetry.capture() as sink:
                payload = ("ok", _ACTIVE["fn"](_ACTIVE["items"][index]))
            telemetry_runs = sink.runs
        else:
            payload = ("ok", _ACTIVE["fn"](_ACTIVE["items"][index]))
    except Exception as exc:
        payload = ("err", repr(exc), traceback.format_exc())
    cache_delta = (
        context.cache.stats.delta_since(cache_before) if context.cache else None
    )
    return payload, cache_delta, context.stats.delta_since(stats_before), telemetry_runs


class ParallelExecutor(Executor):
    """``ProcessPoolExecutor`` fan-out with chunking and ordered results.

    Parameters
    ----------
    jobs:
        Worker process count (>= 1; 1 behaves exactly like serial).
    chunk_size:
        Items per pool task; None picks ``ceil(n / (4 * jobs))`` so
        each worker sees ~4 chunks (amortizing dispatch overhead while
        keeping the tail balanced).
    """

    def __init__(self, jobs: int, chunk_size: int | None = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk size must be at least 1, got {chunk_size}")
        self.jobs = int(jobs)
        self.chunk_size = chunk_size

    def _chunksize(self, n_items: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, math.ceil(n_items / (4 * self.jobs)))

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        global _ACTIVE
        items = list(items)
        if _IN_WORKER or _ACTIVE is not None or self.jobs == 1 or len(items) <= 1:
            return SerialExecutor().map(fn, items)
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return SerialExecutor().map(fn, items)
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        _ACTIVE = {"fn": fn, "items": items}
        try:
            with pool_class(
                max_workers=min(self.jobs, len(items)),
                mp_context=multiprocessing.get_context("fork"),
            ) as pool:
                raw = list(
                    pool.map(
                        _worker_invoke,
                        range(len(items)),
                        chunksize=self._chunksize(len(items)),
                    )
                )
        finally:
            _ACTIVE = None

        from repro.runtime.context import current_runtime

        context = current_runtime()
        results: list[R] = []
        failure: tuple[int, str, str] | None = None
        for index, (payload, cache_delta, stats_delta, telemetry_runs) in enumerate(raw):
            if cache_delta is not None and context.cache is not None:
                context.cache.stats.merge(cache_delta)
            context.stats.merge(stats_delta)
            if telemetry_runs is not None and context.telemetry is not None:
                # Replay in item order (this loop IS item order): the
                # serial path publishes in item order too, so folding
                # the aggregate gives bit-identical float sums.
                context.telemetry.replay(telemetry_runs)
            if payload[0] == "ok":
                results.append(payload[1])
            elif failure is None:
                failure = (index, payload[1], payload[2])
        if failure is not None:
            index, message, remote_traceback = failure
            raise WorkerError(index, items[index], message, remote_traceback)
        return results
