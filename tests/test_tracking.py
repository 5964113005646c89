"""Unit tests for the asset-tracking subpackage."""

import pytest

from repro.core.adversary import FlowKnowledge, NaiveAdversary
from repro.sim.results import DeliveryLog
from repro.tracking.adversary import (
    TrackingAdversary,
    TrajectoryEstimate,
    mean_localization_error,
)
from repro.tracking.detection import detect_passes
from repro.tracking.trajectory import Trajectory, waypoint_trajectory

from .taps import tap_log


class TestTrajectory:
    def test_waypoint_timing_from_speed(self):
        trajectory = waypoint_trajectory([(0.0, 0.0), (3.0, 4.0)], speed=1.0)
        assert trajectory.end_time == pytest.approx(5.0)  # leg length 5

    def test_position_interpolation(self):
        trajectory = waypoint_trajectory([(0.0, 0.0), (10.0, 0.0)], speed=2.0)
        x, y = trajectory.position_at(2.5)  # halfway in time
        assert (x, y) == pytest.approx((5.0, 0.0))

    def test_position_clamped_at_ends(self):
        trajectory = waypoint_trajectory([(0.0, 0.0), (10.0, 0.0)], speed=1.0)
        assert trajectory.position_at(-5.0) == (0.0, 0.0)
        assert trajectory.position_at(99.0) == (10.0, 0.0)

    def test_multi_leg(self):
        trajectory = waypoint_trajectory(
            [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)], speed=1.0, start_time=100.0
        )
        assert trajectory.start_time == 100.0
        assert trajectory.end_time == pytest.approx(120.0)
        assert trajectory.position_at(115.0) == pytest.approx((10.0, 5.0))

    def test_total_length(self):
        trajectory = waypoint_trajectory(
            [(0.0, 0.0), (3.0, 4.0), (3.0, 10.0)], speed=1.0
        )
        assert trajectory.total_length() == pytest.approx(11.0)

    def test_sample_times_cover_span(self):
        trajectory = waypoint_trajectory([(0.0, 0.0), (10.0, 0.0)], speed=1.0)
        grid = trajectory.sample_times(2.5)
        assert grid[0] == 0.0 and grid[-1] == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            waypoint_trajectory([(0.0, 0.0)], speed=1.0)
        with pytest.raises(ValueError):
            waypoint_trajectory([(0.0, 0.0), (0.0, 0.0)], speed=1.0)
        with pytest.raises(ValueError):
            waypoint_trajectory([(0.0, 0.0), (1.0, 0.0)], speed=0.0)
        with pytest.raises(ValueError):
            Trajectory(times=(0.0, 0.0), points=((0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(ValueError):
            Trajectory(times=(0.0,), points=((0.0, 0.0),))


class TestDetection:
    POSITIONS = {1: (5.0, 0.0), 2: (20.0, 0.0), 3: (5.0, 50.0)}

    def test_close_sensor_fires_far_sensor_does_not(self):
        trajectory = waypoint_trajectory([(0.0, 0.0), (10.0, 0.0)], speed=1.0)
        detections = detect_passes(
            trajectory, self.POSITIONS, detection_radius=2.0
        )
        fired = {d.node_id for d in detections}
        assert 1 in fired and 3 not in fired

    def test_detection_at_closest_approach(self):
        trajectory = waypoint_trajectory([(0.0, 0.0), (10.0, 0.0)], speed=1.0)
        detections = detect_passes(
            trajectory, {1: (5.0, 1.0)}, detection_radius=2.0
        )
        assert len(detections) == 1
        assert detections[0].time == pytest.approx(5.0, abs=0.5)
        assert detections[0].distance == pytest.approx(1.0, abs=0.05)

    def test_two_passes_fire_twice(self):
        trajectory = waypoint_trajectory(
            [(0.0, 0.0), (10.0, 0.0), (0.0, 0.1)], speed=1.0
        )
        detections = detect_passes(
            trajectory, {1: (5.0, 0.0)}, detection_radius=1.0, hold_off=3.0
        )
        assert len(detections) == 2

    def test_hold_off_suppresses_rapid_refires(self):
        trajectory = waypoint_trajectory(
            [(0.0, 0.0), (10.0, 0.0), (0.0, 0.1)], speed=1.0
        )
        detections = detect_passes(
            trajectory, {1: (5.0, 0.0)}, detection_radius=1.0, hold_off=1000.0
        )
        assert len(detections) == 1

    def test_sorted_by_time(self):
        trajectory = waypoint_trajectory([(0.0, 0.0), (30.0, 0.0)], speed=1.0)
        positions = {i: (float(5 * i), 0.5) for i in range(1, 6)}
        detections = detect_passes(trajectory, positions, detection_radius=1.0)
        times = [d.time for d in detections]
        assert times == sorted(times)

    def test_validation(self):
        trajectory = waypoint_trajectory([(0.0, 0.0), (1.0, 0.0)], speed=1.0)
        with pytest.raises(ValueError):
            detect_passes(trajectory, self.POSITIONS, detection_radius=0.0)
        with pytest.raises(ValueError):
            detect_passes(trajectory, self.POSITIONS, 1.0, hold_off=-1.0)


class TestTrajectoryEstimate:
    def test_interpolation(self):
        estimate = TrajectoryEstimate(
            times=(0.0, 10.0), points=((0.0, 0.0), (10.0, 0.0))
        )
        assert estimate.position_at(5.0) == pytest.approx((5.0, 0.0))

    def test_clamping(self):
        estimate = TrajectoryEstimate(times=(5.0,), points=((3.0, 4.0),))
        assert estimate.position_at(0.0) == (3.0, 4.0)
        assert estimate.position_at(99.0) == (3.0, 4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrajectoryEstimate(times=(), points=())
        with pytest.raises(ValueError):
            TrajectoryEstimate(times=(1.0,), points=((0.0, 0.0), (1.0, 1.0)))


class TestTrackingAdversary:
    def _log(self, arrivals, origins, hops=2):
        return tap_log(arrivals, hops=hops, origins=origins)

    def test_exact_times_give_exact_pins(self):
        positions = {10: (0.0, 0.0), 11: (10.0, 0.0)}
        adversary = TrackingAdversary(
            NaiveAdversary(FlowKnowledge(transmission_delay=1.0)), positions
        )
        # Packets created at t=0 and t=10, 2 hops each -> arrive +2.
        estimate = adversary.reconstruct(self._log([2.0, 12.0], [10, 11]))
        assert estimate.times == (0.0, 10.0)
        assert estimate.position_at(5.0) == pytest.approx((5.0, 0.0))

    def test_wrong_times_displace_the_track(self):
        """A time estimator biased by +T shifts every pin by T."""
        positions = {10: (0.0, 0.0), 11: (10.0, 0.0)}
        adversary = TrackingAdversary(
            NaiveAdversary(FlowKnowledge(transmission_delay=0.0)), positions
        )
        estimate = adversary.reconstruct(self._log([2.0, 12.0], [10, 11]))
        # Pins at 2 and 12 instead of 0 and 10: at true time 10 the
        # adversary still thinks the asset is mid-path.
        x, _ = estimate.position_at(10.0)
        assert x == pytest.approx(8.0)

    def test_unknown_origin_raises(self):
        adversary = TrackingAdversary(
            NaiveAdversary(FlowKnowledge()), positions={1: (0.0, 0.0)}
        )
        with pytest.raises(KeyError):
            adversary.reconstruct(self._log([1.0], origins=99))

    def test_empty_observations_rejected(self):
        adversary = TrackingAdversary(
            NaiveAdversary(FlowKnowledge()), positions={1: (0.0, 0.0)}
        )
        with pytest.raises(ValueError):
            adversary.reconstruct(DeliveryLog())


class TestLocalizationError:
    def test_perfect_estimate_scores_zero(self):
        truth = waypoint_trajectory([(0.0, 0.0), (10.0, 0.0)], speed=1.0)
        estimate = TrajectoryEstimate(
            times=(0.0, 10.0), points=((0.0, 0.0), (10.0, 0.0))
        )
        assert mean_localization_error(truth, estimate, time_step=1.0) == pytest.approx(
            0.0
        )

    def test_constant_offset_scores_offset(self):
        truth = waypoint_trajectory([(0.0, 0.0), (10.0, 0.0)], speed=1.0)
        estimate = TrajectoryEstimate(
            times=(0.0, 10.0), points=((0.0, 3.0), (10.0, 3.0))
        )
        assert mean_localization_error(truth, estimate, time_step=1.0) == pytest.approx(
            3.0
        )

    def test_time_shift_costs_speed_times_shift(self):
        """A 2-unit time shift at speed 1 costs ~2 units of error
        (away from the clamped ends)."""
        truth = waypoint_trajectory([(0.0, 0.0), (100.0, 0.0)], speed=1.0)
        estimate = TrajectoryEstimate(
            times=(2.0, 102.0), points=((0.0, 0.0), (100.0, 0.0))
        )
        error = mean_localization_error(truth, estimate, time_step=1.0)
        assert 1.5 < error <= 2.0


class TestExperimentShape:
    def test_rcad_inflates_localization_error(self):
        from repro.experiments.asset_tracking import asset_tracking_experiment

        rows = asset_tracking_experiment(speeds=(0.05,), seed=4)
        by_case = {row.case: row for row in rows}
        assert by_case["no-delay"].time_rmse == pytest.approx(0.0, abs=1e-9)
        assert by_case["rcad"].time_rmse > 50.0
        assert (
            by_case["rcad"].localization_error
            > 2 * by_case["no-delay"].localization_error
        )

    def test_faster_asset_more_spatial_ambiguity(self):
        from repro.experiments.asset_tracking import asset_tracking_experiment

        rows = asset_tracking_experiment(speeds=(0.02, 0.08), seed=5)
        rcad = {row.asset_speed: row for row in rows if row.case == "rcad"}
        assert rcad[0.08].localization_error > rcad[0.02].localization_error
