"""Timer utilities layered on the event scheduler.

:class:`BackoffTimer` is a restartable one-shot timer whose timeout
grows by a multiplicative backoff factor on every restart; the
stop-and-wait ARQ arms one per hop transfer.  It is a thin wrapper
over :class:`repro.des.engine.Simulator` scheduling: it owns exactly
one pending :class:`EventHandle` at a time, so cancelling the timer
cancels the underlying event and never leaks a stale callback into
the heap.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.des.engine import EventHandle, Simulator

__all__ = ["BackoffTimer"]


class BackoffTimer:
    """A restartable one-shot timer with exponential backoff.

    Parameters
    ----------
    sim:
        The event scheduler to arm timers on.
    base_timeout:
        Timeout of the first arming.
    backoff:
        Multiplicative growth per restart (1.0 = constant timeout).

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> timer = BackoffTimer(sim, base_timeout=2.0, backoff=2.0)
    >>> _ = timer.start(fired.append, "first")
    >>> _ = sim.run()
    >>> fired, sim.now, timer.next_timeout()
    (['first'], 2.0, 4.0)
    """

    def __init__(
        self, sim: Simulator, base_timeout: float, backoff: float = 1.0
    ) -> None:
        if base_timeout <= 0:
            raise ValueError(f"base timeout must be positive, got {base_timeout}")
        if backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {backoff}")
        self._sim = sim
        self._base_timeout = float(base_timeout)
        self._backoff = float(backoff)
        self._armings = 0
        self._handle: EventHandle | None = None

    # ------------------------------------------------------------------
    @property
    def armings(self) -> int:
        """How many times the timer has been started so far."""
        return self._armings

    @property
    def pending(self) -> bool:
        """True while an arming is waiting to fire."""
        return self._handle is not None and self._handle.pending

    def next_timeout(self) -> float:
        """The timeout the *next* :meth:`start` call would use."""
        return self._base_timeout * self._backoff**self._armings

    # ------------------------------------------------------------------
    def start(self, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Arm the timer; the previous arming (if pending) is cancelled."""
        self.cancel()
        handle = self._sim.schedule_after(self.next_timeout(), callback, *args)
        self._armings += 1
        self._handle = handle
        return handle

    def cancel(self) -> bool:
        """Cancel the pending arming, if any; True if one was cancelled."""
        if self._handle is not None and self._handle.pending:
            self._handle.cancel()
            self._handle = None
            return True
        self._handle = None
        return False

    def reset(self) -> None:
        """Cancel and forget the backoff history (timeouts start over)."""
        self.cancel()
        self._armings = 0

