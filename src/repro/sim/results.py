"""Simulation outputs: delivery logs, node statistics, drop records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.sim.tracing import PacketTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import RunTelemetry

__all__ = [
    "DELIVERY_COLUMNS",
    "DeliveryLog",
    "NodeStats",
    "DroppedPacket",
    "SimulationResult",
]

_FLOAT_COLUMNS = ("arrival_time", "created_at")
_INT_COLUMNS = (
    "flow_id",
    "packet_id",
    "routing_seq",
    "hop_count",
    "previous_hop",
    "origin",
    "preemptions",
)
DELIVERY_COLUMNS = _FLOAT_COLUMNS + _INT_COLUMNS
"""Column names of a :class:`DeliveryLog`, in storage order."""

_INT32 = np.iinfo(np.int32)


def _float_column(name: str, values: Sequence[float]) -> np.ndarray:
    column = np.array(values, dtype=np.float64)
    if column.ndim != 1:
        raise ValueError(f"delivery log column {name!r} must be one-dimensional")
    return column


def _int_column(name: str, values: Sequence[int]) -> np.ndarray:
    raw = np.asarray(values)
    if raw.ndim != 1:
        raise ValueError(f"delivery log column {name!r} must be one-dimensional")
    if raw.size == 0:
        return np.zeros(0, dtype=np.int32)
    if raw.dtype.kind not in "iu":
        raise ValueError(
            f"delivery log column {name!r} must hold integers, got {raw.dtype}"
        )
    low, high = raw.min(), raw.max()
    if low < _INT32.min or high > _INT32.max:
        bad = low if low < _INT32.min else high
        raise ValueError(
            f"delivery log column {name!r} value {int(bad)} does not fit in int32"
        )
    return raw.astype(np.int32)


class DeliveryLog:
    """Every delivered packet, one numpy column per field, in sink order.

    Row ``i`` is the ``i``-th packet to reach the sink: what the
    adversary's tap saw (``arrival_time``, ``previous_hop``, ``origin``,
    ``routing_seq``, ``hop_count``) beside the simulator's ground truth
    (``flow_id``, ``packet_id``, ``created_at``, ``preemptions``).
    ``arrival_time`` and ``created_at`` are float64, the rest int32;
    construction raises ``ValueError`` naming any column whose values
    do not fit, and rejects a packet delivered before it was created.
    The columns are read-only arrays, and a pickled log is just its
    columns.

    Adversaries read a log only through :meth:`observation_arrays`.

    Examples
    --------
    >>> log = DeliveryLog(
    ...     arrival_time=[5.0], created_at=[1.0], flow_id=[1], packet_id=[0],
    ...     routing_seq=[0], hop_count=[4], previous_hop=[3], origin=[9],
    ...     preemptions=[0])
    >>> log.latency().tolist()
    [4.0]
    >>> log.origin.tolist()
    [9]
    """

    __slots__ = DELIVERY_COLUMNS

    arrival_time: np.ndarray
    created_at: np.ndarray
    flow_id: np.ndarray
    packet_id: np.ndarray
    routing_seq: np.ndarray
    hop_count: np.ndarray
    previous_hop: np.ndarray
    origin: np.ndarray
    preemptions: np.ndarray

    def __init__(
        self,
        *,
        arrival_time: Sequence[float] = (),
        created_at: Sequence[float] = (),
        flow_id: Sequence[int] = (),
        packet_id: Sequence[int] = (),
        routing_seq: Sequence[int] = (),
        hop_count: Sequence[int] = (),
        previous_hop: Sequence[int] = (),
        origin: Sequence[int] = (),
        preemptions: Sequence[int] = (),
    ) -> None:
        given = {
            "arrival_time": arrival_time,
            "created_at": created_at,
            "flow_id": flow_id,
            "packet_id": packet_id,
            "routing_seq": routing_seq,
            "hop_count": hop_count,
            "previous_hop": previous_hop,
            "origin": origin,
            "preemptions": preemptions,
        }
        columns = [
            _float_column(name, given[name])
            if name in _FLOAT_COLUMNS
            else _int_column(name, given[name])
            for name in DELIVERY_COLUMNS
        ]
        size = len(columns[0])
        for name, column in zip(DELIVERY_COLUMNS, columns):
            if len(column) != size:
                raise ValueError(
                    f"delivery log column {name!r} has {len(column)} rows, "
                    f"but {DELIVERY_COLUMNS[0]!r} has {size}"
                )
        self.__setstate__(columns)
        late = self.arrival_time < self.created_at
        if late.any():
            first = int(np.argmax(late))
            raise ValueError(
                f"packet delivered at {float(self.arrival_time[first]):g} "
                f"before being created at {float(self.created_at[first]):g}"
            )

    # --- pickling: the columns only ------------------------------------
    def __getstate__(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in DELIVERY_COLUMNS)

    def __setstate__(self, state: Sequence[np.ndarray]) -> None:
        if len(state) != len(DELIVERY_COLUMNS):
            raise ValueError(
                f"a delivery log has {len(DELIVERY_COLUMNS)} columns, got {len(state)}"
            )
        for name, column in zip(DELIVERY_COLUMNS, state):
            column.flags.writeable = False
            setattr(self, name, column)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.arrival_time)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeliveryLog):
            return NotImplemented
        return all(
            getattr(self, name).dtype == getattr(other, name).dtype
            and np.array_equal(getattr(self, name), getattr(other, name))
            for name in DELIVERY_COLUMNS
        )

    def __repr__(self) -> str:
        return f"DeliveryLog({len(self)} deliveries)"

    def observation_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(arrival_times, hop_counts, origins)`` as float64, float64 and
        int64: the adversary's only view of the log.

        Every adversary (:meth:`repro.core.adversary.Adversary.estimate_all`,
        :meth:`repro.core.bayes.EmpiricalBayesAdversary.fit`,
        :meth:`repro.tracking.adversary.TrackingAdversary.reconstruct`)
        reads the log through this method alone, so no ground-truth
        column reaches an estimate.
        """
        return (
            self.arrival_time,
            self.hop_count.astype(np.float64),
            self.origin.astype(np.int64),
        )

    def latency(self) -> np.ndarray:
        """End-to-end latency of every delivery (``arrival - created``)."""
        return self.arrival_time - self.created_at

    def take(self, indices: Sequence[int] | np.ndarray) -> "DeliveryLog":
        """The sub-log of the given rows, in the given order."""
        return DeliveryLog(
            **{name: getattr(self, name)[indices] for name in DELIVERY_COLUMNS}
        )


@dataclass(slots=True)
class NodeStats:
    """Per-node buffer statistics over one run."""

    node_id: int
    admitted: int = 0
    dropped: int = 0
    preemptions: int = 0
    peak_occupancy: int = 0
    occupancy_time_integral: float = 0.0
    observation_time: float = 0.0
    lost_in_transit: int = 0
    """Packets this node transmitted that never reached the next hop
    (link loss, crashed receiver, or ARQ retry exhaustion)."""
    retransmissions: int = 0
    """ARQ retransmissions this node performed as a sender."""

    @property
    def mean_occupancy(self) -> float:
        """Time-averaged buffer occupancy (packets)."""
        if self.observation_time <= 0:
            return 0.0
        return self.occupancy_time_integral / self.observation_time


@dataclass(frozen=True)
class DroppedPacket:
    """A packet lost to a full drop-tail buffer."""

    flow_id: int
    packet_id: int
    created_at: float
    dropped_at: float
    dropped_by: int


@dataclass
class SimulationResult:
    """Everything a run produced.

    ``delivery`` holds every packet that reached the sink, sorted by
    arrival time: row ``i`` holds both the adversary's view of a packet
    and its ground truth.  Keeping the flows interleaved in arrival
    order preserves exactly what a stateful (adaptive) adversary gets
    to see; ``delivery.take(flow_indices(f))`` is one flow's rows.
    """

    delivery: DeliveryLog = field(default_factory=DeliveryLog)
    node_stats: dict[int, NodeStats] = field(default_factory=dict)
    dropped: list[DroppedPacket] = field(default_factory=list)
    transmissions: list[tuple[float, int, int]] = field(default_factory=list)
    """Per-hop transmission log as (time, sender, receiver), recorded
    only when the configuration sets ``record_transmissions=True``."""
    packet_traces: dict[tuple[int, int], "PacketTrace"] = field(default_factory=dict)
    """(flow_id, packet_id) -> lifecycle trace, recorded only when the
    configuration sets ``record_packet_traces=True``."""
    lost_in_transit: int = 0
    end_time: float = 0.0
    events_processed: int = 0
    retransmissions: list[tuple[float, int, int]] = field(default_factory=list)
    """ARQ retransmission log as (time, sender, receiver).  Part of the
    adversary-visible surface: a retry is a physical emission whose
    timing correlates with the original send, so adversary models may
    legitimately consume this log (unlike ``packet_traces``, which are
    god-view only)."""
    duplicates_suppressed: int = 0
    """Extra physical copies (duplication faults, ARQ re-sends of
    already-received data) discarded by receivers' duplicate filters."""
    stranded_in_buffer: int = 0
    """Packets still frozen inside crashed nodes' buffers when the
    simulation horizon closed."""
    crash_blackholed: int = 0
    """Packets that vanished because their receiver was down (subset of
    ``lost_in_transit``)."""
    arq_failed: int = 0
    """Hop transfers abandoned after exhausting ARQ retries with no
    copy ever received (subset of ``lost_in_transit``)."""
    telemetry: "RunTelemetry | None" = None
    """Instrumentation recorded during the run (occupancy series,
    latency histograms, engine counters), present only when the
    configuration sets ``record_telemetry=True``.  Derived purely from
    simulated time, so it caches and pickles with the result."""

    # ------------------------------------------------------------------
    def flow_ids(self) -> list[int]:
        """Distinct flow ids present in the delivery log."""
        return np.unique(self.delivery.flow_id).tolist()

    def flow_indices(self, flow_id: int) -> list[int]:
        """Positions of one flow's packets within the arrival order."""
        return np.flatnonzero(self.delivery.flow_id == flow_id).tolist()

    def delivered_count(self, flow_id: int | None = None) -> int:
        """Packets delivered (optionally restricted to one flow)."""
        if flow_id is None:
            return len(self.delivery)
        return int(np.count_nonzero(self.delivery.flow_id == flow_id))

    def drop_count(self, flow_id: int | None = None) -> int:
        """Packets dropped (optionally restricted to one flow)."""
        if flow_id is None:
            return len(self.dropped)
        return sum(1 for d in self.dropped if d.flow_id == flow_id)

    def total_preemptions(self) -> int:
        """Preemption events across all nodes."""
        return sum(stats.preemptions for stats in self.node_stats.values())

    def total_retransmissions(self) -> int:
        """ARQ retransmission events across all nodes."""
        return len(self.retransmissions)

    def loss_by_node(self) -> dict[int, int]:
        """Per-hop loss locations: transmitting node -> packets lost.

        Sums to :attr:`lost_in_transit` (the per-node counts partition
        the global counter by the node whose outbound hop failed).
        """
        return {
            node: stats.lost_in_transit
            for node, stats in sorted(self.node_stats.items())
            if stats.lost_in_transit
        }

    def mean_latency(self, flow_id: int | None = None) -> float:
        """Average end-to-end latency, over all or one flow's packets."""
        latency = self.delivery.latency()
        if flow_id is not None:
            latency = latency[self.delivery.flow_id == flow_id]
        if not latency.size:
            raise ValueError(f"no delivered packets for flow {flow_id!r}")
        # A sequential Python fold: np.sum's pairwise summation would
        # round differently and change the published figures.
        return float(sum(latency.tolist()) / latency.size)
