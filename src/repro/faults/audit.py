"""Post-simulation invariant auditing.

A fault layer multiplies the ways a simulator can silently go wrong:
a packet both counted lost *and* delivered, a crashed node releasing
its frozen buffer, a clock that runs backwards through a retransmission
path.  The :class:`InvariantAuditor` runs after every simulation --
faulty or not -- and checks:

1. **packet conservation** -- every created packet reaches exactly one
   terminal state::

       created == delivered + buffer_dropped + lost_in_transit
                  + stranded_in_buffer

   and every extra physical copy (duplication, ARQ retransmission) is
   separately conserved::

       extra copies arrived == duplicates_suppressed

2. **monotone clock** -- observations arrive in non-decreasing time
   order, no negative times, per-node occupancy accounting never ran
   past the simulation end;
3. **crash discipline** -- a crashed node never released a buffered
   packet mid-crash (the simulator reports the count of such releases,
   which must be zero), and only crashed nodes may strand packets;
4. **alignment** -- every column of the delivery log, adversary tap
   and ground truth alike, has the same length (a misalignment would
   silently mis-score every adversary).

Violations raise :class:`InvariantViolation`, a structured exception
carrying every failed check so a test failure shows the full picture
rather than the first symptom.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ConservationCounters", "InvariantAuditor", "InvariantViolation"]


class InvariantViolation(RuntimeError):
    """One or more simulator invariants failed after a run.

    Attributes
    ----------
    violations:
        Human-readable description of every failed check.
    """

    def __init__(self, violations: list[str]) -> None:
        self.violations = list(violations)
        summary = "; ".join(self.violations)
        super().__init__(f"simulation invariants violated: {summary}")


@dataclass
class ConservationCounters:
    """The simulator's packet-accounting ledger, one run's worth.

    All counts are in *unique packets* except the copy-level pair
    ``extra_copies_arrived`` / ``duplicates_suppressed``.
    """

    created: int = 0
    delivered: int = 0
    buffer_dropped: int = 0
    lost_in_transit: int = 0
    stranded_in_buffer: int = 0
    extra_copies_arrived: int = 0
    duplicates_suppressed: int = 0
    crashed_releases: int = 0
    stranding_nodes: set[int] = field(default_factory=set)
    crash_nodes: set[int] = field(default_factory=set)

    def accounted(self) -> int:
        """Unique packets in a terminal state."""
        return (
            self.delivered
            + self.buffer_dropped
            + self.lost_in_transit
            + self.stranded_in_buffer
        )


class InvariantAuditor:
    """Checks one finished run's counters and result for consistency."""

    def __init__(self, counters: ConservationCounters) -> None:
        self.counters = counters

    # ------------------------------------------------------------------
    def audit(self, result) -> None:
        """Raise :class:`InvariantViolation` if any check fails.

        ``result`` is a :class:`repro.sim.results.SimulationResult`
        (duck-typed to keep this module import-light).
        """
        violations = self.conservation_violations()
        violations += self.clock_violations(result)
        violations += self.alignment_violations(result)
        if violations:
            raise InvariantViolation(violations)

    # ------------------------------------------------------------------
    def conservation_violations(self) -> list[str]:
        c = self.counters
        violations: list[str] = []
        if c.created != c.accounted():
            violations.append(
                f"packet conservation: created={c.created} but "
                f"delivered={c.delivered} + dropped={c.buffer_dropped} + "
                f"lost={c.lost_in_transit} + stranded={c.stranded_in_buffer} "
                f"= {c.accounted()}"
            )
        if c.extra_copies_arrived != c.duplicates_suppressed:
            violations.append(
                f"copy conservation: {c.extra_copies_arrived} extra copies "
                f"arrived but {c.duplicates_suppressed} were suppressed"
            )
        if c.crashed_releases != 0:
            violations.append(
                f"crash discipline: {c.crashed_releases} buffered packet(s) "
                "released by a crashed node"
            )
        rogue = c.stranding_nodes - c.crash_nodes
        if rogue:
            violations.append(
                "crash discipline: non-crashing node(s) "
                f"{sorted(rogue)} stranded buffered packets at the horizon"
            )
        negatives = [
            name
            for name, value in (
                ("created", c.created),
                ("delivered", c.delivered),
                ("buffer_dropped", c.buffer_dropped),
                ("lost_in_transit", c.lost_in_transit),
                ("stranded_in_buffer", c.stranded_in_buffer),
                ("extra_copies_arrived", c.extra_copies_arrived),
                ("duplicates_suppressed", c.duplicates_suppressed),
            )
            if value < 0
        ]
        if negatives:
            violations.append(f"negative counter(s): {', '.join(negatives)}")
        return violations

    # ------------------------------------------------------------------
    def clock_violations(self, result) -> list[str]:
        violations: list[str] = []
        if result.end_time < 0:
            violations.append(f"end time {result.end_time:g} is negative")
        delivery = result.delivery
        arrivals = delivery.arrival_time
        backwards = np.flatnonzero(arrivals[1:] < arrivals[:-1])
        if backwards.size:
            index = int(backwards[0]) + 1
            violations.append(
                f"observation {index} arrives at "
                f"{float(arrivals[index]):g}, before its predecessor "
                f"at {float(arrivals[index - 1]):g} (non-monotone adversary tap)"
            )
        for node, stats in result.node_stats.items():
            if stats.observation_time - result.end_time > 1e-9:
                violations.append(
                    f"node {node} occupancy accounting ran to "
                    f"{stats.observation_time:g}, past the run end "
                    f"{result.end_time:g}"
                )
            if stats.occupancy_time_integral < -1e-9:
                violations.append(
                    f"node {node} has negative occupancy integral "
                    f"{stats.occupancy_time_integral:g}"
                )
        late = np.flatnonzero(arrivals > result.end_time + 1e-9)
        if late.size:
            index = int(late[0])
            violations.append(
                f"packet ({int(delivery.flow_id[index])}, "
                f"{int(delivery.packet_id[index])}) delivered "
                f"at {float(arrivals[index]):g}, after the run end "
                f"{result.end_time:g}"
            )
        return violations

    # ------------------------------------------------------------------
    def alignment_violations(self, result) -> list[str]:
        from repro.sim.results import DELIVERY_COLUMNS

        delivery = result.delivery
        observations = len(delivery.arrival_time)
        lengths = {
            name: len(getattr(delivery, name)) for name in DELIVERY_COLUMNS
        }
        if any(length != observations for length in lengths.values()):
            return [
                f"adversary tap has {observations} observations but the "
                "delivery log's columns disagree: "
                + ", ".join(f"{name}={length}" for name, length in lengths.items())
            ]
        return []
