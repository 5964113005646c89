"""Parameter sweeps and seed replication.

Both entry points route through
:func:`repro.runtime.supervisor.supervised_map` under the ambient
runtime context, so ``use_runtime(jobs=N)`` parallelizes every
experiment driver without per-driver changes, and its retry policy,
timeouts, quarantine and checkpoint journal apply to all of them.  The
map is order-preserving over independent items; simulations derive all
randomness from their configuration's seed via named RNG streams, so
every cell that succeeds is bit-identical under any worker count.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from repro.analysis.stats import SummaryStats, summarize
from repro.runtime.context import current_runtime
from repro.runtime.supervisor import supervised_map

__all__ = ["sweep", "replicate", "ReplicationError"]

T = TypeVar("T")
R = TypeVar("R")


class ReplicationError(RuntimeError):
    """One replication failed; carries the offending seed."""

    def __init__(self, seed: int, cause: BaseException) -> None:
        super().__init__(
            f"replication with seed {seed} failed: {cause!r}"
        )
        self.seed = seed


def sweep(
    parameter_values: Sequence[T],
    run_one: Callable[[T], R],
) -> list[R]:
    """Evaluate ``run_one`` at every swept parameter value, in order.

    Thin but load-bearing: every experiment driver funnels its sweep
    through here, so the active runtime's worker pool (if any) and
    result cache apply to all of them at once.
    """
    if not parameter_values:
        raise ValueError("sweep needs at least one parameter value")
    return supervised_map(run_one, list(parameter_values), current_runtime())


def replicate(
    n_replications: int,
    run_one: Callable[[int], float],
    base_seed: int = 0,
    confidence: float = 0.95,
) -> SummaryStats:
    """Run ``run_one(seed)`` under distinct seeds and summarize.

    Seeds are ``base_seed, base_seed + 1, ...`` so replication sets are
    reproducible and disjoint across experiments using different bases.
    A failing replication raises :class:`ReplicationError` naming the
    seed, so the offending run can be reproduced in isolation.
    """
    if n_replications < 1:
        raise ValueError(f"need at least 1 replication, got {n_replications}")

    def run_guarded(seed: int) -> float:
        try:
            return run_one(seed)
        except Exception as exc:
            raise ReplicationError(seed, exc) from exc

    seeds = [base_seed + i for i in range(n_replications)]
    # The journal label must name the caller's fn, not the shared
    # run_guarded wrapper, or distinct experiments replicating over the
    # same seed range would collide on one journal file.
    label = (
        f"replicate:{getattr(run_one, '__module__', '?')}."
        f"{getattr(run_one, '__qualname__', repr(run_one))}"
    )
    values = supervised_map(run_guarded, seeds, current_runtime(), label=label)
    if any(value is None for value in values):
        values = [value for value in values if value is not None]
        if not values:
            raise ReplicationError(base_seed, RuntimeError("every replication was quarantined"))
    return summarize(values, confidence=confidence)
