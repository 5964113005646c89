"""The ambient runtime context: worker count, cache, retries, journal.

Experiment drivers never name a worker pool or a cache; they call
:func:`repro.analysis.sweep.sweep` and :func:`run_simulation`, which
consult the innermost :func:`use_runtime` context.  The default context
is serial execution with no cache.

::

    with use_runtime(jobs=8, cache_dir="~/.cache/repro/results") as ctx:
        mse, latency = figure2()          # 30 cells fan out over 8 workers
    print(ctx.cache.stats.render())       # cache: 30 hits, 0 misses, ...
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.runtime.cache import ResultCache
from repro.runtime.journal import JournalStats
from repro.runtime.supervisor import FailureReport, RetryPolicy
from repro.telemetry import TelemetryAggregate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.fabric import FabricExecutor
    from repro.sim.config import SimulationConfig
    from repro.sim.results import SimulationResult

__all__ = [
    "RuntimeStats",
    "RuntimeContext",
    "current_runtime",
    "use_runtime",
    "run_simulation",
]


@dataclass
class RuntimeStats:
    """Counters for one context (worker deltas fold in here too)."""

    simulations: int = 0
    """Actual simulator invocations (cache hits do not count)."""

    sim_seconds: float = 0.0
    """Wall-clock seconds spent inside the simulator (cache hits do
    not count; for retried items, only the successful attempt)."""

    def snapshot(self) -> "RuntimeStats":
        """A frozen copy, for before/after delta computation."""
        return RuntimeStats(self.simulations, self.sim_seconds)

    def delta_since(self, before: "RuntimeStats") -> "RuntimeStats":
        """What accrued since ``before`` (a worker's contribution)."""
        return RuntimeStats(
            self.simulations - before.simulations,
            self.sim_seconds - before.sim_seconds,
        )

    def merge(self, delta: "RuntimeStats") -> None:
        """Fold a worker's delta into this (parent) counter set."""
        self.simulations += delta.simulations
        self.sim_seconds += delta.sim_seconds


@dataclass
class RuntimeContext:
    """One worker-count/cache pairing, active within a ``use_runtime`` block."""

    jobs: int = 1
    """Worker processes a sweep may fan out over (1 = serial)."""
    fabric: FabricExecutor | None = None
    """The ``--listen`` TCP worker pool; None keeps the local fork pool."""
    cache: ResultCache | None = None
    stats: RuntimeStats = field(default_factory=RuntimeStats)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    journal_dir: Path | None = None
    """Checkpoint-journal root; None disables journaling entirely."""
    resume: bool = False
    """Load completed cells from the journal instead of recomputing."""
    journal_stats: JournalStats = field(default_factory=JournalStats)
    failure_reports: list[FailureReport] = field(default_factory=list)
    """One report per sweep that quarantined cells or degraded."""
    telemetry: TelemetryAggregate | None = None
    """Run telemetry collector; None (the default) disables
    instrumentation entirely -- simulations take the legacy code paths
    with a single flag check."""


_DEFAULT = RuntimeContext()
_STACK: list[RuntimeContext] = []


def current_runtime() -> RuntimeContext:
    """The innermost active context (or the serial, cacheless default)."""
    return _STACK[-1] if _STACK else _DEFAULT


@contextmanager
def use_runtime(
    jobs: int = 1,
    cache: ResultCache | None = None,
    cache_dir: str | Path | None = None,
    retry: RetryPolicy | None = None,
    journal_dir: str | Path | None = None,
    resume: bool = False,
    telemetry: bool = False,
    listen: str | None = None,
) -> Iterator[RuntimeContext]:
    """Activate a worker-count/cache pairing for the enclosed experiments.

    Parameters
    ----------
    jobs:
        Worker processes (>= 1); 1 runs every sweep in-process.
    cache:
        A ready :class:`ResultCache`, or None.
    cache_dir:
        Convenience: build a :class:`ResultCache` rooted here (ignored
        when ``cache`` is given).
    retry:
        A :class:`~repro.runtime.supervisor.RetryPolicy`; the default
        (None) is one attempt per cell, raising on the first failure.
    journal_dir:
        Checkpoint-journal root.  Sweeps append completed cells here
        so an interrupted run can be resumed; None disables journaling.
    resume:
        Load journaled cells instead of recomputing them (needs
        ``journal_dir``).
    telemetry:
        Collect per-run instrumentation (occupancy series, latency
        histograms, engine counters) into ``ctx.telemetry``.  Changes
        cache identities: instrumented results are cached under
        distinct keys from plain ones.
    listen:
        ``host:port`` to serve the distributed sweep fabric on
        (:mod:`repro.runtime.fabric`): sweeps then run on ``jobs`` local
        workers plus any ``repro worker --connect`` that joins.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)
    fabric = None
    if listen is not None:
        from repro.runtime.fabric import FabricExecutor

        fabric = FabricExecutor(jobs, listen)
    context = RuntimeContext(
        jobs=jobs,
        fabric=fabric,
        cache=cache,
        retry=retry if retry is not None else RetryPolicy(),
        journal_dir=Path(journal_dir) if journal_dir is not None else None,
        resume=resume,
        telemetry=TelemetryAggregate() if telemetry else None,
    )
    _STACK.append(context)
    try:
        yield context
    finally:
        try:
            if fabric is not None:
                fabric.close()
        finally:
            _STACK.pop()


def run_simulation(config: "SimulationConfig") -> "SimulationResult":
    """Run one simulation through the active cache, counting invocations.

    This is the seam every experiment driver uses instead of
    constructing :class:`~repro.sim.simulator.SensorNetworkSimulator`
    directly: with a cache active, a previously computed
    ``(config, seed, code version)`` cell is served from disk without
    touching the simulator at all.
    """
    context = current_runtime()
    if context.telemetry is not None and not config.record_telemetry:
        # The flag participates in cache fingerprints, so instrumented
        # and plain results never alias under the same key.
        from dataclasses import replace

        config = replace(config, record_telemetry=True)
    key = None
    if context.cache is not None:
        # Fingerprinting walks the whole configuration: once per cell.
        key = context.cache.key_for(config)
        cached = context.cache.get(config, key=key)
        if cached is not None:
            _publish_telemetry(context, config, cached)
            return cached
    from repro.sim.simulator import SensorNetworkSimulator

    # time.monotonic throughout the runtime: the supervisor's deadlines
    # use it, so cache-entry `elapsed` must tick on the same clock.
    started = time.monotonic()
    result = SensorNetworkSimulator(config).run()
    elapsed = time.monotonic() - started
    context.stats.simulations += 1
    context.stats.sim_seconds += elapsed
    if context.cache is not None:
        context.cache.put(config, result, elapsed, key=key)
    _publish_telemetry(context, config, result)
    return result


def _publish_telemetry(
    context: RuntimeContext,
    config: "SimulationConfig",
    result: "SimulationResult",
) -> None:
    """Publish a run's telemetry under its config fingerprint.

    The key is a pure configuration fingerprint (no code salt): the
    manifest identifies *what* was simulated; code identity travels
    separately as ``git describe``.
    """
    if context.telemetry is None or result.telemetry is None:
        return
    from repro.runtime.fingerprint import stable_fingerprint

    context.telemetry.add_run(stable_fingerprint(config), result.telemetry)
