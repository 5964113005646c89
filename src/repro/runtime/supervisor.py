"""Fault-tolerant sweep supervision: timeouts, retries, quarantine, resume.

:func:`supervised_map` is the one seam between
:func:`repro.analysis.sweep.sweep`/``replicate`` and execution: every
sweep runs on a :class:`Supervisor`, in-process when the context has
one job (or one pending cell, or no ``fork``), otherwise item-by-item
on a worker pool, so that every cell can be individually timed out,
retried with exponential backoff, journaled on completion, or
quarantined:

* **timeouts** -- each in-flight item carries a wall-clock deadline;
  an expired item's worker pool is killed (a hung worker cannot be
  cancelled politely), innocent co-flight items are requeued without
  penalty, and the expired item is charged one attempt;
* **crash detection** -- a worker dying (segfault, ``os._exit``)
  breaks the whole ``ProcessPoolExecutor``, taking the in-flight items
  with it; the supervisor rebuilds the pool and *probes* the suspects
  one at a time so only the true crasher is charged;
* **bounded retries** -- an item is retried up to
  ``RetryPolicy.max_attempts`` times with exponential backoff; an item
  that keeps failing is either raised (``on_failure="raise"``) or
  quarantined (``on_failure="quarantine"``), in which case the sweep
  completes, the item's result slot holds ``None``, and a structured
  :class:`FailureReport` is attached to the runtime context;
* **graceful degradation** -- if a worker pool cannot be (re)built at
  all, the remaining items fall back to the in-process serial path
  without losing any completed result;
* **pluggable pools** -- the pool is a local fork pool of at most
  ``min(jobs, pending cells)`` workers by default; the context's
  ``fabric.new_pool`` can supply another with the same
  ``submit``/``shutdown`` surface, which is how ``--listen`` runs a
  sweep on the TCP worker pool of :mod:`repro.runtime.fabric` under
  exactly these rules;
* **checkpoint/resume** -- completed cells are appended to the sweep's
  :class:`~repro.runtime.journal.SweepJournal`; a resumed run loads
  them back and computes only the missing cells, and a SIGINT flushes
  the journal and prints a resume hint before propagating.

Serial execution enforces retries/quarantine but not timeouts (there
is no second process to preempt a hung call from); this is documented
behaviour, not an accident.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

from repro.runtime import executors as _executors
from repro.runtime.executors import WorkerError
from repro.runtime.journal import SweepJournal, sweep_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor

    from repro.runtime.context import RuntimeContext

__all__ = [
    "RetryPolicy",
    "FailureRecord",
    "FailureReport",
    "Supervisor",
    "supervised_map",
]

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class RetryPolicy:
    """How a supervised sweep treats a failing item.

    The default instance is 1 attempt, no timeout, raise on failure.
    """

    max_attempts: int = 1
    """Total attempts per item (1 = no retry)."""

    timeout: float | None = None
    """Per-item wall-clock seconds (parallel execution only)."""

    backoff: float = 0.1
    """Base sleep before retry 1, doubling per attempt."""

    backoff_factor: float = 2.0
    max_backoff: float = 30.0

    on_failure: str = "raise"
    """``"raise"`` aborts the sweep; ``"quarantine"`` completes it with
    ``None`` in the failed slots and a :class:`FailureReport`."""

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be at least 1, got {self.max_attempts}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.on_failure not in ("raise", "quarantine"):
            raise ValueError(f"on_failure must be 'raise' or 'quarantine', got {self.on_failure!r}")

    def delay_before(self, attempts_made: int) -> float:
        """Backoff before the next try after ``attempts_made`` failures."""
        return min(
            self.backoff * self.backoff_factor ** max(0, attempts_made - 1),
            self.max_backoff,
        )


@dataclass
class FailureRecord:
    """One quarantined sweep cell."""

    index: int
    item_repr: str
    kind: str  # "error" | "timeout" | "crash"
    attempts: int
    message: str
    traceback: str = ""


@dataclass
class FailureReport:
    """Structured outcome of a sweep that quarantined cells."""

    label: str
    n_items: int
    failures: list[FailureRecord] = field(default_factory=list)
    degraded_to_serial: bool = False

    @property
    def quarantined_indices(self) -> list[int]:
        return sorted(record.index for record in self.failures)

    def render(self) -> str:
        lines = [
            f"failure report: {len(self.failures)}/{self.n_items} cells "
            f"quarantined in sweep {self.label}"
            + (" (pool degraded to serial)" if self.degraded_to_serial else "")
        ]
        for record in sorted(self.failures, key=lambda r: r.index):
            lines.append(
                f"  cell {record.index} [{record.kind} x{record.attempts}] "
                f"{record.item_repr}: {record.message}"
            )
        return "\n".join(lines)


def _sweep_label(fn: Callable) -> str:
    module = getattr(fn, "__module__", "?")
    name = getattr(fn, "__qualname__", repr(fn))
    return f"{module}.{name}"


class Supervisor:
    """Item-granular sweep driver with retries, timeouts and quarantine."""

    def __init__(
        self,
        policy: RetryPolicy,
        jobs: int = 1,
        journal: SweepJournal | None = None,
        label: str = "<sweep>",
        pool_factory: Callable[[], object] | None = None,
    ) -> None:
        self.policy = policy
        self.jobs = max(1, int(jobs))
        self.journal = journal
        self.label = label
        self._pool_factory = pool_factory

    # ------------------------------------------------------------------
    def run(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        completed: dict[int, R] | None = None,
    ) -> tuple[list[R | None], FailureReport | None]:
        """Evaluate every item not already in ``completed``.

        Returns ``(results, report)`` where ``results`` is item-ordered
        (quarantined slots hold ``None``) and ``report`` is None when
        every cell succeeded.
        """
        items = list(items)
        results: dict[int, R | None] = dict(completed or {})
        pending = [i for i in range(len(items)) if i not in results]
        report = FailureReport(label=self.label, n_items=len(items))
        self._attempts: dict[int, int] = {}
        self._telemetry_captures: dict[int, list] = {}
        try:
            if pending:
                if self._parallel_viable(len(pending)):
                    self._run_parallel(fn, items, pending, results, report)
                else:
                    self._run_serial(fn, items, pending, results, report)
        finally:
            self._replay_telemetry()
        if self.journal is not None:
            self.journal.close()
        ordered = [results.get(i) for i in range(len(items))]
        return ordered, (report if report.failures or report.degraded_to_serial else None)

    def _replay_telemetry(self) -> None:
        """Publish captured per-item telemetry in item order.

        Items complete out of order under retries and parallel
        execution, so each item's publications are captured at call
        time and replayed here sorted by item index -- the same order
        the plain serial path publishes in, which keeps aggregated
        telemetry bit-identical.  Failed attempts never land in the
        capture table, so a retried item contributes exactly its
        successful attempt and a quarantined item contributes nothing.
        """
        from repro.runtime.context import current_runtime

        telemetry = current_runtime().telemetry
        if telemetry is None:
            return
        for index in sorted(self._telemetry_captures):
            telemetry.replay(self._telemetry_captures[index])
        self._telemetry_captures.clear()

    # ------------------------------------------------------------------
    def _parallel_viable(self, n_pending: int) -> bool:
        if _executors._IN_WORKER or _executors._ACTIVE is not None:
            return False
        if self._pool_factory is None and (self.jobs <= 1 or n_pending <= 1):
            return False
        # Imported only once a pool is in prospect: serial runs never
        # load the multiprocessing stack.
        import multiprocessing

        return "fork" in multiprocessing.get_all_start_methods()

    def _record(self, index: int, value: object, results: dict) -> None:
        results[index] = value
        if self.journal is not None:
            self.journal.record(index, value)
            from repro.runtime.context import current_runtime

            current_runtime().journal_stats.recorded += 1

    def _merge_worker_counters(self, cache_delta, stats_delta) -> None:
        from repro.runtime.context import current_runtime

        context = current_runtime()
        if cache_delta is not None and context.cache is not None:
            context.cache.stats.merge(cache_delta)
        context.stats.merge(stats_delta)

    def _call_with_capture(self, fn: Callable, item, index: int):
        """In-process call with the item's telemetry captured.

        The capture is kept only if the call succeeds; an exception
        discards it (the retry's successful attempt will capture anew).
        """
        from repro.runtime.context import current_runtime

        telemetry = current_runtime().telemetry
        if telemetry is None:
            return fn(item)
        with telemetry.capture() as sink:
            value = fn(item)
        self._telemetry_captures[index] = sink.runs
        return value

    def _charge(
        self,
        index: int,
        items: list,
        kind: str,
        message: str,
        traceback_text: str,
        queue: deque,
        report: FailureReport,
        cause: BaseException | None = None,
    ) -> None:
        """One failed attempt: retry (with backoff), quarantine, or raise."""
        attempts = self._attempts.get(index, 0) + 1
        self._attempts[index] = attempts
        if attempts < self.policy.max_attempts:
            time.sleep(self.policy.delay_before(attempts))
            queue.append(index)
            return
        if self.policy.on_failure == "raise":
            if cause is not None and not isinstance(cause, WorkerError):
                raise cause
            raise WorkerError(
                index,
                items[index],
                f"{message} (after {attempts} attempt{'s' if attempts > 1 else ''})",
                traceback_text,
            )
        report.failures.append(
            FailureRecord(
                index=index,
                item_repr=repr(items[index])[:200],
                kind=kind,
                attempts=attempts,
                message=message,
                traceback=traceback_text,
            )
        )

    # ------------------------------------------------------------------
    # Serial path: retries and quarantine, no timeout enforcement.
    def _run_serial(
        self,
        fn: Callable,
        items: list,
        pending: Sequence[int],
        results: dict,
        report: FailureReport,
    ) -> None:
        import traceback as traceback_module

        queue = deque(pending)
        while queue:
            index = queue.popleft()
            try:
                value = self._call_with_capture(fn, items[index], index)
            except Exception as exc:
                self._charge(
                    index,
                    items,
                    "error",
                    repr(exc),
                    traceback_module.format_exc(),
                    queue,
                    report,
                    cause=exc,
                )
            else:
                self._record(index, value, results)

    # ------------------------------------------------------------------
    # Parallel path: windowed per-item futures over a fork pool that is
    # killed and rebuilt on timeout or breakage.
    def _run_parallel(
        self,
        fn: Callable,
        items: list,
        pending: Sequence[int],
        results: dict,
        report: FailureReport,
    ) -> None:
        from concurrent.futures import FIRST_COMPLETED, CancelledError
        from concurrent.futures import wait as futures_wait

        # A fork pool starts all its workers at once: fork no more than
        # there are cells to run.
        self._max_workers = min(self.jobs, len(pending))
        _executors._ACTIVE = {"fn": fn, "items": items}
        pool: ProcessPoolExecutor | None = None
        inflight: dict = {}
        try:
            queue: deque[int] = deque(pending)
            probe: deque[int] = deque()
            pool = self._new_pool()
            while queue or probe or inflight:
                if pool is None:
                    # Unforkable/unrebuildable pool: finish in-process.
                    report.degraded_to_serial = True
                    remaining = sorted(set(queue) | set(probe))
                    queue.clear()
                    probe.clear()
                    self._run_serial(fn, items, remaining, results, report)
                    return
                now = time.monotonic()
                if probe:
                    # One suspect at a time so a crash is attributable.
                    if not inflight:
                        index = probe.popleft()
                        self._submit(pool, index, inflight, now)
                else:
                    # A fabric pool's capacity grows as workers join.
                    while queue and len(inflight) < getattr(pool, "capacity", self.jobs):
                        index = queue.popleft()
                        self._submit(pool, index, inflight, now)
                if not inflight:
                    continue
                deadlines = [d for (_, d) in inflight.values() if d is not None]
                wait_for = None
                if deadlines:
                    wait_for = max(0.01, min(deadlines) - time.monotonic())
                done, _ = futures_wait(
                    set(inflight), timeout=wait_for, return_when=FIRST_COMPLETED
                )
                suspects: list[tuple[int, BaseException]] = []
                for future in done:
                    index, _ = inflight.pop(future)
                    try:
                        payload, cache_delta, stats_delta, telemetry_runs = (
                            future.result()
                        )
                    except CancelledError:
                        queue.appendleft(index)
                    except Exception as exc:
                        # Worker process died: the pool is broken.
                        suspects.append((index, exc))
                    else:
                        self._merge_worker_counters(cache_delta, stats_delta)
                        if payload[0] == "ok":
                            if telemetry_runs is not None:
                                self._telemetry_captures[index] = telemetry_runs
                            self._record(index, payload[1], results)
                        else:
                            self._charge(
                                index, items, "error", payload[1], payload[2],
                                queue, report,
                            )
                if suspects:
                    # Every other in-flight item died with the pool too;
                    # none of them is individually attributable yet.
                    for future, (index, _) in list(inflight.items()):
                        suspects.append((index, None))
                    inflight.clear()
                    pool = self._rebuild_pool(pool)
                    if len(suspects) == 1:
                        index, exc = suspects[0]
                        self._charge(
                            index, items, "crash",
                            f"worker process died: {exc!r}", "", queue, report,
                        )
                    else:
                        probe.extend(sorted({index for index, _ in suspects}))
                    continue
                now = time.monotonic()
                expired = [
                    (future, index)
                    for future, (index, deadline) in inflight.items()
                    if deadline is not None and now >= deadline
                ]
                if expired:
                    for future, index in expired:
                        inflight.pop(future)
                        self._charge(
                            index, items, "timeout",
                            f"exceeded {self.policy.timeout:g}s wall clock",
                            "", queue, report,
                        )
                    # The hung worker still occupies a pool slot: kill the
                    # pool, requeue innocent co-flight items uncharged.
                    for future, (index, _) in list(inflight.items()):
                        queue.appendleft(index)
                    inflight.clear()
                    pool = self._rebuild_pool(pool)
        finally:
            _executors._ACTIVE = None
            if pool is not None:
                _kill_pool(pool)

    def _submit(self, pool, index: int, inflight: dict, now: float) -> None:
        deadline = (
            now + self.policy.timeout if self.policy.timeout is not None else None
        )
        future = pool.submit(_executors._worker_invoke, index)
        inflight[future] = (index, deadline)

    def _new_pool(self) -> ProcessPoolExecutor | None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        try:
            if self._pool_factory is not None:
                return self._pool_factory()
            return ProcessPoolExecutor(
                max_workers=self._max_workers,
                mp_context=multiprocessing.get_context("fork"),
            )
        except Exception:
            return None

    def _rebuild_pool(self, pool: ProcessPoolExecutor) -> ProcessPoolExecutor | None:
        _kill_pool(pool)
        return self._new_pool()


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even when a worker is hung or dead.

    ``shutdown`` alone would join a hung worker forever, so the worker
    processes are killed first.  ``_processes`` is a private attribute,
    but it is the only stdlib handle on the pool's children.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    for process in processes:
        try:
            process.kill()
        except Exception:  # pragma: no cover - already-dead races
            pass
    pool.shutdown(wait=True, cancel_futures=True)


# ----------------------------------------------------------------------
def supervised_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    context: "RuntimeContext",
    label: str | None = None,
) -> list[R | None]:
    """Run one sweep on a :class:`Supervisor` under ``context``'s rules.

    ``label`` disambiguates the sweep's journal identity; it defaults
    to ``fn``'s qualified name (wrappers with a shared qualname must
    pass their own).
    """
    items = list(items)
    if label is None:
        label = _sweep_label(fn)
    journal: SweepJournal | None = None
    completed: dict[int, R] = {}
    if context.journal_dir is not None:
        try:
            sweep_id = sweep_fingerprint(label, items)
        except TypeError:
            sweep_id = None  # unfingerprintable items: sweep not journaled
        if sweep_id is not None:
            journal = SweepJournal(
                context.journal_dir, sweep_id, n_items=len(items),
                resume=context.resume,
            )
            if context.resume:
                completed = journal.load()
                context.journal_stats.resumed += len(completed)
                context.journal_stats.corrupt += journal.corrupt_lines

    supervisor = Supervisor(
        policy=context.retry,
        jobs=context.jobs,
        journal=journal,
        label=label,
        pool_factory=context.fabric.new_pool if context.fabric is not None else None,
    )
    try:
        results, report = supervisor.run(fn, items, completed=completed)
    except KeyboardInterrupt:
        if journal is not None:
            journal.close()
            done = len(completed) + context.journal_stats.recorded
            print(
                f"\ninterrupted: {done}/{len(items)} cells journaled at "
                f"{journal.path}; re-run with --resume to skip them",
                file=sys.stderr,
            )
        raise
    if report is not None:
        context.failure_reports.append(report)
    return results
