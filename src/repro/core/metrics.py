"""Privacy and performance metrics (paper §5.1).

Two metrics drive the whole evaluation:

* **temporal privacy** -- the adversary's mean square error over a
  flow's packets, ``MSE = sum (x_hat_i - x_i)^2 / m``; larger is more
  private;
* **performance** -- the end-to-end delivery latency; the goal is to
  "introduce minimal extra latency while maximizing temporal privacy".

:func:`summarize_flow` matches adversary estimates against the ground
truth of a run's :class:`~repro.sim.results.DeliveryLog` to produce a
:class:`FlowMetrics`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.infotheory.mmse import mse_of_estimator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.results import DeliveryLog

__all__ = ["LatencyStats", "FlowMetrics", "summarize_flow"]


@dataclass(frozen=True)
class LatencyStats:
    """Summary of a latency sample."""

    mean: float
    median: float
    p95: float
    maximum: float
    minimum: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        """Compute the summary; requires at least one sample."""
        values = np.asarray(samples, dtype=float)
        if values.size == 0:
            raise ValueError("cannot summarize an empty latency sample")
        return cls(
            mean=float(values.mean()),
            median=float(np.median(values)),
            p95=float(np.percentile(values, 95)),
            maximum=float(values.max()),
            minimum=float(values.min()),
        )


@dataclass(frozen=True)
class FlowMetrics:
    """Privacy and performance of one flow under one adversary."""

    flow_id: int
    n_packets: int
    mse: float
    mean_error: float
    latency: LatencyStats
    preemption_fraction: float

    @property
    def rmse(self) -> float:
        """Root mean square error, in time units."""
        return math.sqrt(self.mse)


def summarize_flow(records: "DeliveryLog", estimates: Sequence[float]) -> FlowMetrics:
    """Combine ground truth and adversary estimates into metrics.

    ``records`` is a :class:`~repro.sim.results.DeliveryLog` of one
    flow's deliveries and ``estimates`` the adversary's estimates for
    them, aligned (same packets, same order -- arrival order, matching
    how the adversary consumed the observations) and non-empty.
    """
    if not len(records):
        raise ValueError("cannot summarize an empty flow")
    if len(records) != len(estimates):
        raise ValueError(
            f"{len(records)} records but {len(estimates)} estimates"
        )
    distinct = np.unique(records.flow_id)
    if len(distinct) != 1:
        raise ValueError(f"records span multiple flows: {distinct.tolist()}")
    truths = records.created_at
    mse = mse_of_estimator(truths, estimates)
    errors = np.asarray(estimates, dtype=float) - truths
    preempted = int(np.count_nonzero(records.preemptions > 0))
    return FlowMetrics(
        flow_id=int(distinct[0]),
        n_packets=len(records),
        mse=mse,
        mean_error=float(errors.mean()),
        latency=LatencyStats.from_samples(records.latency()),
        preemption_fraction=preempted / len(records),
    )
