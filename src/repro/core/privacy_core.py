"""Clock-agnostic temporal-privacy state machine.

:class:`TemporalPrivacyCore` is one node's (or shard's) policy kernel
with no notion of *how* time advances: callers pass ``now``.  It owns
one :class:`~repro.core.buffers.PacketBuffer` (any discipline) and
optionally one :class:`~repro.core.delays.DelayDistribution`; it
samples the artificial delay, runs the buffer's admission decision and
reports what happened as a :class:`CoreDecision`.  Scheduling stays
with the caller:

* the event-driven simulator calls :meth:`TemporalPrivacyCore.offer`
  at packet arrival events and releases entries from the buffer in the
  release events it schedules;
* the streaming service (:mod:`repro.service`) polls
  :meth:`TemporalPrivacyCore.poll_due` from an asyncio pump against the
  wall clock, and reloads a crash snapshot through the buffer's
  :meth:`~repro.core.buffers.PacketBuffer.restore_entry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

import numpy as np

from repro.core.buffers import (
    AdmissionOutcome,
    BufferedEntry,
    PacketBuffer,
)
from repro.core.delays import DelayDistribution

__all__ = ["CoreAction", "CoreDecision", "TemporalPrivacyCore"]


class CoreAction(Enum):
    """What the core decided for an offered event."""

    #: no delay distribution configured: pass straight through.
    FORWARD = "forward"
    #: buffered; will surface from ``poll_due`` at its release time.
    ADMIT = "admit"
    #: buffered, but a victim was evicted and must be emitted *now*.
    PREEMPT = "preempt"
    #: refused (drop-tail full buffer, or service admission control).
    SHED = "shed"


_ACTION_FOR_OUTCOME = {
    AdmissionOutcome.ADMITTED: CoreAction.ADMIT,
    AdmissionOutcome.PREEMPTED_VICTIM: CoreAction.PREEMPT,
    AdmissionOutcome.DROPPED: CoreAction.SHED,
}


@dataclass(slots=True)
class CoreDecision:
    """Outcome of :meth:`TemporalPrivacyCore.offer`.

    Attributes
    ----------
    action:
        What happened to the arriving event.
    delay:
        The sampled artificial delay (0.0 for ``FORWARD``; still the
        sampled value for ``SHED`` -- the draw happens before admission
        so RNG consumption does not depend on buffer state).
    entry:
        The buffered entry for the arriving event (``ADMIT`` /
        ``PREEMPT``), or None.
    victim:
        The evicted entry that must be emitted immediately
        (``PREEMPT`` only), or None.
    """

    action: CoreAction
    delay: float
    entry: BufferedEntry | None
    victim: BufferedEntry | None


class TemporalPrivacyCore:
    """One node's (or shard's) temporal-privacy policy kernel.

    Parameters
    ----------
    buffer:
        The buffer discipline holding delayed events.
    delay:
        Distribution of the artificial delay Y; ``None`` means no
        delaying at all (every offer returns ``FORWARD``).
    delay_rng:
        Stream consumed by delay sampling.  Required when ``delay``
        is given.
    victim_rng:
        Stream handed to the buffer's victim policy (only stochastic
        policies consume it, and they refuse to run without one).
        Defaults to ``delay_rng``.

    Examples
    --------
    >>> from repro.core.buffers import RcadBuffer
    >>> from repro.core.delays import ConstantDelay
    >>> import numpy as np
    >>> core = TemporalPrivacyCore(
    ...     RcadBuffer(capacity=2), ConstantDelay(5.0),
    ...     delay_rng=np.random.default_rng(0))
    >>> core.offer("a", now=0.0).action
    <CoreAction.ADMIT: 'admit'>
    >>> [e.payload for e in core.poll_due(5.0)]
    ['a']
    """

    def __init__(
        self,
        buffer: PacketBuffer,
        delay: DelayDistribution | None = None,
        delay_rng: np.random.Generator | None = None,
        victim_rng: np.random.Generator | None = None,
    ) -> None:
        if delay is not None and delay_rng is None:
            raise ValueError("a delay distribution needs a delay_rng stream")
        self.buffer = buffer
        self.delay = delay
        self._delay_rng = delay_rng
        self._victim_rng = victim_rng if victim_rng is not None else delay_rng

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def is_full(self) -> bool:
        return self.buffer.is_full

    def entries(self) -> list[BufferedEntry]:
        """Buffered entries in insertion order."""
        return self.buffer.entries()

    def next_release_time(self) -> float | None:
        """Earliest scheduled release, or None when empty."""
        return self.buffer.shortest_remaining_release_time()

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def offer(self, payload: Any, now: float, delay: float | None = None) -> CoreDecision:
        """Offer one arriving event to the privacy mechanism at ``now``.

        ``delay`` overrides the sampled delay (the DES driver does not
        use this; tests and replay tooling do).
        """
        if delay is None:
            if self.delay is None:
                return CoreDecision(CoreAction.FORWARD, 0.0, None, None)
            delay = self.delay.sample(self._delay_rng)
        result = self.buffer.offer(payload, now, now + delay, self._victim_rng)
        return CoreDecision(
            _ACTION_FOR_OUTCOME[result.outcome], delay, result.entry, result.victim
        )

    def poll_due(self, now: float) -> list[BufferedEntry]:
        """Remove and return every entry due at or before ``now``, in
        ``(release_time, entry_id)`` order (see
        :meth:`~repro.core.buffers.PacketBuffer.poll_due`)."""
        return self.buffer.poll_due(now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TemporalPrivacyCore({type(self.buffer).__name__}, "
            f"occupancy={self.buffer.occupancy}, delay={self.delay!r})"
        )
