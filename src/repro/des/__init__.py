"""Discrete-event simulation (DES) engine.

This subpackage is the bottom-most substrate of the reproduction: a
deterministic, dependency-free discrete-event simulator.  Components
schedule callbacks on it (``sim.schedule_after(delay, callback,
*args)``); the WSN simulator, the ARQ timer and the queueing
validators all use that one style.  It provides

* :class:`~repro.des.engine.Simulator` -- a binary-heap event scheduler
  with a floating-point clock, event cancellation, run-until semantics
  and stable FIFO tie-breaking for simultaneous events,
* :class:`~repro.des.timers.BackoffTimer` -- a restartable one-shot
  timer with exponential backoff, armed by the link ARQ,
* :class:`~repro.des.rng.RngRegistry` -- named, independently seeded
  random streams so that components (traffic, per-node delays, ...)
  draw from decoupled generators and experiments are reproducible.

The paper's evaluation ("we have developed a detailed event-driven
simulator", Section 5) runs on exactly this kind of engine.
"""

from repro.des.engine import Simulator, EventHandle
from repro.des.errors import DesError, SchedulingInPastError
from repro.des.rng import RngRegistry
from repro.des.timers import BackoffTimer

__all__ = [
    "Simulator",
    "EventHandle",
    "BackoffTimer",
    "RngRegistry",
    "DesError",
    "SchedulingInPastError",
]
