"""Parallel experiment runtime: supervised sweeps, result cache, journal, fabric.

Every figure and ablation funnels its simulations through two seams --
the :func:`repro.analysis.sweep.sweep`/``replicate`` loop and the
per-cell simulator invocation.  This package instruments both:

* :mod:`repro.runtime.supervisor` -- the one sweep driver: every sweep
  runs on a :class:`Supervisor`, in-process at ``jobs=1`` and on a
  fork pool of ``min(jobs, pending cells)`` workers otherwise, with
  per-item wall-clock timeouts, crash detection with suspect probing,
  bounded retries with exponential backoff, quarantine of repeatedly
  failing cells (:class:`FailureReport`), and mid-sweep degradation to
  serial when the pool cannot be rebuilt.  Results are reassembled in
  item order, and every simulation seeds its own named RNG streams
  from its configuration (:class:`repro.des.rng.RngRegistry`), so
  results do not depend on which worker ran which cell;
* :mod:`repro.runtime.executors` -- the fork-side contract the pool
  workers run (:class:`WorkerError` for a cell that failed in one);
* :mod:`repro.runtime.cache` -- a content-addressed on-disk result
  cache keyed by a stable fingerprint of ``(SimulationConfig, seed,
  code-version salt)``: re-running a figure after touching only
  analysis code skips the simulations entirely;
* :mod:`repro.runtime.context` -- the ambient :class:`RuntimeContext`
  (:func:`use_runtime`) that ties the two together and the
  cache-aware :func:`run_simulation` entry point all experiment
  drivers call;
* :mod:`repro.runtime.journal` -- the append-only checkpoint journal
  (JSONL of completed cell results, checksummed line-by-line) that
  makes interrupted sweeps resumable via ``--resume``;
* :mod:`repro.runtime.fabric` -- the distributed sweep fabric: under
  ``--listen HOST:PORT`` the supervisor runs sweeps on a TCP worker pool
  (``--jobs`` forked local workers plus any ``repro worker --connect``)
  instead of a fork pool, with the same retries, journal and item-order
  merge, so distributed runs stay bit-identical to serial;
* :mod:`repro.runtime.transport` -- the fabric's wire and server:
  length-prefixed sha256-checksummed frames, an idempotent RPC client
  with capped exponential backoff, and the asyncio endpoint that keeps
  the leases in memory and judges them in server time.
"""

from importlib import import_module

from repro.runtime.cache import (
    CacheDiskStats,
    CacheStats,
    CacheVerifyReport,
    ResultCache,
    default_cache_dir,
)
from repro.runtime.context import (
    RuntimeContext,
    RuntimeStats,
    current_runtime,
    run_simulation,
    use_runtime,
)
from repro.runtime.executors import WorkerError
from repro.runtime.fingerprint import code_salt, stable_fingerprint
from repro.runtime.journal import (
    CompactionStats,
    JournalStats,
    SweepJournal,
    compact_journal,
    sweep_fingerprint,
)
from repro.runtime.supervisor import (
    FailureRecord,
    FailureReport,
    RetryPolicy,
    Supervisor,
    supervised_map,
)

# The fabric and its TCP layer pull in asyncio and most of the
# stdlib networking stack, which a local sweep never touches; their
# names resolve on first access (PEP 562) instead of at package import.
_LAZY = {
    **dict.fromkeys(
        ("FabricError", "FabricExecutor", "FabricPool", "FabricWorker"),
        "fabric",
    ),
    **dict.fromkeys(
        (
            "Backoff", "FabricEndpoint", "FrameError", "TransportClient",
            "TransportDown", "TransportError", "TransportStats",
            "parse_endpoint",
        ),
        "transport",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "CacheDiskStats",
    "CacheStats",
    "CacheVerifyReport",
    "ResultCache",
    "default_cache_dir",
    "RuntimeContext",
    "RuntimeStats",
    "current_runtime",
    "run_simulation",
    "use_runtime",
    "WorkerError",
    "code_salt",
    "stable_fingerprint",
    "CompactionStats",
    "JournalStats",
    "SweepJournal",
    "compact_journal",
    "sweep_fingerprint",
    "FailureRecord",
    "FailureReport",
    "RetryPolicy",
    "Supervisor",
    "supervised_map",
    "FabricError",
    "FabricExecutor",
    "FabricPool",
    "FabricWorker",
    "Backoff",
    "FabricEndpoint",
    "FrameError",
    "TransportClient",
    "TransportDown",
    "TransportError",
    "TransportStats",
    "parse_endpoint",
]
