"""Privacy and performance metrics (paper §5.1).

Two metrics drive the whole evaluation:

* **temporal privacy** -- the adversary's mean square error over a
  flow's packets, ``MSE = sum (x_hat_i - x_i)^2 / m``; larger is more
  private;
* **performance** -- the end-to-end delivery latency; the goal is to
  "introduce minimal extra latency while maximizing temporal privacy".

:class:`PacketRecord` is the per-packet ground-truth row produced by
the simulator; :func:`summarize_flow` matches adversary estimates
against it to produce a :class:`FlowMetrics`.
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

__all__ = ["PacketRecord", "LatencyStats", "FlowMetrics", "summarize_flow"]


@dataclass(frozen=True)
class PacketRecord:
    """Ground truth for one delivered packet (simulator's god view)."""

    flow_id: int
    packet_id: int
    created_at: float
    delivered_at: float
    hop_count: int
    preemptions_experienced: int = 0

    def __post_init__(self) -> None:
        if self.delivered_at < self.created_at:
            raise ValueError(
                f"packet delivered at {self.delivered_at:g} before being "
                f"created at {self.created_at:g}"
            )

    @property
    def latency(self) -> float:
        """End-to-end delivery latency."""
        return self.delivered_at - self.created_at


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


def summarize_flow(
    records: "Sequence[PacketRecord] | DeliveryLog", estimates: Sequence[float]
) -> FlowMetrics:
    """Combine ground truth and adversary estimates into metrics.

    ``records`` and ``estimates`` must be aligned (same packets, same
    order -- arrival order, matching how the adversary consumed the
    observations) and non-empty, from a single flow.  ``records`` is a
    sequence of :class:`PacketRecord` or a
    :class:`~repro.sim.results.DeliveryLog`, whose columns are read
    directly.
    """
    if not len(records):
        raise ValueError("cannot summarize an empty flow")
    if len(records) != len(estimates):
        raise ValueError(
            f"{len(records)} records but {len(estimates)} estimates"
        )
    if isinstance(records, Sequence):
        flow_ids = np.array([record.flow_id for record in records])
        truths = np.array([record.created_at for record in records], dtype=float)
        latencies = np.array([record.latency for record in records], dtype=float)
        preemptions = np.array(
            [record.preemptions_experienced for record in records]
        )
    else:
        flow_ids = records.flow_id
        truths = records.created_at
        latencies = records.latency()
        preemptions = records.preemptions
    distinct = np.unique(flow_ids)
    if len(distinct) != 1:
        raise ValueError(f"records span multiple flows: {distinct.tolist()}")
    mse = mse_of_estimator(truths, estimates)
    errors = np.asarray(estimates, dtype=float) - truths
    preempted = int(np.count_nonzero(preemptions > 0))
    return FlowMetrics(
        flow_id=int(distinct[0]),
        n_packets=len(records),
        mse=mse,
        mean_error=float(errors.mean()),
        latency=LatencyStats.from_samples(latencies),
        preemption_fraction=preempted / len(records),
    )
