"""The fork-side contract of a parallel sweep.

Every sweep runs through :class:`~repro.runtime.supervisor.Supervisor`;
this module holds what its worker processes share with it.  Work ships
to forked workers through an inherited module global (``_ACTIVE``)
rather than by pickling the callable -- sweep bodies are closures over
experiment parameters, which stdlib pickle cannot serialize, while
``fork`` children inherit them for free.  Only the item *indices*
travel to the pool and only the results travel back
(:func:`_worker_invoke`), together with the worker-side cache/runtime
counters and telemetry the supervisor folds into the parent's, so
statistics stay truthful under ``--jobs N``.
"""

from __future__ import annotations

import sys
import traceback

__all__ = ["WorkerError"]


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


# ----------------------------------------------------------------------
# ``_ACTIVE`` holds the work unit between the supervisor arming it and
# the pool workers (forked afterwards) reading it; ``_IN_WORKER`` marks
# forked children so nested sweeps stay serial.
_ACTIVE: dict | None = None
_IN_WORKER = False


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
