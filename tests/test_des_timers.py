"""Unit tests for the DES backoff timer."""

import pytest

from repro.des.engine import Simulator
from repro.des.timers import BackoffTimer


class TestBackoffTimer:
    def test_fires_at_base_timeout(self):
        sim = Simulator()
        fired = []
        timer = BackoffTimer(sim, base_timeout=3.0)
        timer.start(fired.append, "hello")
        sim.run()
        assert fired == ["hello"]
        assert sim.now == 3.0

    def test_timeout_grows_by_backoff_factor(self):
        sim = Simulator()
        timer = BackoffTimer(sim, base_timeout=2.0, backoff=2.0)
        assert timer.next_timeout() == 2.0
        timer.start(lambda: None)
        assert timer.next_timeout() == 4.0
        timer.start(lambda: None)
        assert timer.next_timeout() == 8.0
        assert timer.armings == 2

    def test_restart_cancels_previous_arming(self):
        sim = Simulator()
        fired = []
        timer = BackoffTimer(sim, base_timeout=5.0, backoff=1.0)
        timer.start(fired.append, "first")
        timer.start(fired.append, "second")
        sim.run()
        assert fired == ["second"]  # the first arming never fires

    def test_cancel_prevents_fire(self):
        sim = Simulator()
        fired = []
        timer = BackoffTimer(sim, base_timeout=1.0)
        timer.start(fired.append, "x")
        assert timer.pending
        assert timer.cancel() is True
        assert not timer.pending
        assert timer.cancel() is False  # nothing left to cancel
        sim.run()
        assert fired == []

    def test_reset_restores_backoff_history(self):
        sim = Simulator()
        timer = BackoffTimer(sim, base_timeout=1.0, backoff=3.0)
        timer.start(lambda: None)
        timer.start(lambda: None)
        assert timer.next_timeout() == 9.0
        timer.reset()
        assert timer.armings == 0
        assert timer.next_timeout() == 1.0
        assert not timer.pending

    def test_not_pending_after_fire(self):
        sim = Simulator()
        timer = BackoffTimer(sim, base_timeout=1.0)
        timer.start(lambda: None)
        sim.run()
        assert not timer.pending

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            BackoffTimer(sim, base_timeout=0.0)
        with pytest.raises(ValueError):
            BackoffTimer(sim, base_timeout=-1.0)
        with pytest.raises(ValueError):
            BackoffTimer(sim, base_timeout=1.0, backoff=0.5)

