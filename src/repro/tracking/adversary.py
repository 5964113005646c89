"""The tracking adversary: from sink observations to a trajectory.

The adversary knows every sensor's position (deployment-aware) and
reads each packet's origin from the cleartext header, so each observed
packet gives him a (position, estimated-creation-time) pin.  Sorting
pins by estimated time and interpolating yields his reconstruction of
the asset's track.  The damage metric is the **mean localization
error**: how far his position-at-time estimate is from the asset's
true position, averaged over the observation window -- the "spatial
ambiguity" the paper says temporal ambiguity buys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.core.adversary import Adversary
from repro.tracking.trajectory import Trajectory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.results import DeliveryLog

__all__ = ["TrajectoryEstimate", "TrackingAdversary", "mean_localization_error"]


@dataclass(frozen=True)
class TrajectoryEstimate:
    """The adversary's reconstructed track: timed position pins."""

    times: tuple[float, ...]
    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.points):
            raise ValueError("times and points must be aligned")
        if not self.times:
            raise ValueError("an estimate needs at least one pin")

    def position_at(self, t: float) -> tuple[float, float]:
        """Interpolated position estimate at time ``t``.

        Piecewise linear between pins, clamped at the ends.  (Pins are
        stored sorted by estimated time.)
        """
        times = self.times
        if t <= times[0]:
            return self.points[0]
        if t >= times[-1]:
            return self.points[-1]
        index = int(np.searchsorted(times, t, side="right")) - 1
        t0, t1 = times[index], times[index + 1]
        if t1 == t0:
            return self.points[index]
        (x0, y0), (x1, y1) = self.points[index], self.points[index + 1]
        fraction = (t - t0) / (t1 - t0)
        return (x0 + fraction * (x1 - x0), y0 + fraction * (y1 - y0))


class TrackingAdversary:
    """Reconstructs an asset track from sink observations.

    Parameters
    ----------
    time_estimator:
        Any :class:`~repro.core.adversary.Adversary` -- the per-packet
        creation-time estimator to pin events in time.
    positions:
        Sensor node id -> (x, y); deployment knowledge.
    """

    def __init__(
        self,
        time_estimator: Adversary,
        positions: Mapping[int, tuple[float, float]],
    ) -> None:
        self.time_estimator = time_estimator
        self.positions = dict(positions)

    def reconstruct(self, delivery: "DeliveryLog") -> TrajectoryEstimate:
        """Build the track estimate from an arrival-ordered delivery log.

        Reads ``delivery`` only through
        :meth:`~repro.sim.results.DeliveryLog.observation_arrays`.
        """
        if not len(delivery):
            raise ValueError("cannot reconstruct a track from zero observations")
        estimates = self.time_estimator.estimate_all(delivery)
        _, _, origins = delivery.observation_arrays()
        pins = []
        for origin, estimated_time in zip(origins.tolist(), estimates):
            try:
                position = self.positions[origin]
            except KeyError:
                raise KeyError(f"adversary has no position for origin {origin}")
            pins.append((estimated_time, position))
        pins.sort(key=lambda pin: pin[0])
        return TrajectoryEstimate(
            times=tuple(t for t, _ in pins),
            points=tuple(p for _, p in pins),
        )


def mean_localization_error(
    truth: Trajectory,
    estimate: TrajectoryEstimate,
    time_step: float = 5.0,
) -> float:
    """Mean distance between true and estimated asset positions.

    Averaged over a uniform time grid spanning the true trajectory --
    the spatial-ambiguity metric of the reproduction's asset-tracking
    experiment.
    """
    grid = truth.sample_times(time_step)
    errors = []
    for t in grid:
        tx, ty = truth.position_at(float(t))
        ex, ey = estimate.position_at(float(t))
        errors.append(math.hypot(tx - ex, ty - ey))
    return float(np.mean(errors))
