"""Exception hierarchy for the DES engine."""


class DesError(Exception):
    """Base class for all discrete-event-simulation errors."""


class SchedulingInPastError(DesError):
    """An event was scheduled strictly before the current simulation time."""
