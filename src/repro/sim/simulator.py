"""The sensor-network simulator: nodes, buffers, links, sink, adversary tap.

Execution model (paper §5):

1. each source's traffic model fixes its packets' creation times; at
   each creation time the source builds a packet (cleartext routing
   header + sealed payload) and offers it to *its own* buffer -- the
   source buffers too (the Y_0j term of Section 3.3);
2. a buffering node draws the packet's artificial delay from the delay
   plan and offers it to its buffer discipline; admitted packets are
   scheduled for release when the delay expires; under RCAD a full
   buffer instead preempts a victim, whose pending release is
   cancelled and which is transmitted immediately;
3. a released packet is transmitted to the node's routing parent,
   arriving one transmission delay (tau) later with the hop count
   incremented;
4. at the sink, the packet is delivered: the adversary tap records the
   cleartext observation, the ground-truth log records the true
   creation time (cross-checked against the decrypted payload when
   sealing is enabled).

Fault extension (``config.faults``): a :class:`repro.faults.FaultPlan`
adds Gilbert-Elliott bursty link loss, per-hop delay jitter, packet
duplication, scheduled node crash/recovery windows (with routing
failover to a backup parent), and an optional stop-and-wait link ARQ.
The fault machinery is *strictly disabled* when the plan is absent or
a no-op: the simulator then takes the exact legacy code paths and
produces bit-identical results.  Every run -- faulty or not -- ends
with a packet-conservation and clock audit
(:class:`repro.faults.audit.InvariantAuditor`), raising
:class:`repro.faults.audit.InvariantViolation` on any breach.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.core.buffers import (
    DropTailBuffer,
    InfiniteBuffer,
    PacketBuffer,
    RcadBuffer,
)
from repro.core.privacy_core import CoreAction, TemporalPrivacyCore
from repro.crypto.keys import KeyManager
from repro.crypto.payload import PayloadCodec, SensorReading
from repro.des import BackoffTimer, RngRegistry, Simulator
from repro.faults.arq import ArqTransfer
from repro.faults.audit import ConservationCounters, InvariantAuditor
from repro.faults.injector import FaultInjector
from repro.net.link import ConstantDelayLink, LossyLink
from repro.net.packet import Packet, RoutingHeader
from repro.net.routing import backup_parents
from repro.sim.config import SimulationConfig
from repro.sim.results import (
    DELIVERY_COLUMNS,
    DeliveryLog,
    DroppedPacket,
    NodeStats,
    SimulationResult,
)
from repro.telemetry import RunTelemetry

__all__ = ["SensorNetworkSimulator"]

# Fixed demo master key: simulations are experiments, not secure systems.
_MASTER_KEY = bytes(range(16))


@dataclass(slots=True)
class _TransitPacket:
    """A packet in flight, plus simulator-side bookkeeping."""

    packet: Packet
    preemptions: int = 0


@dataclass(slots=True)
class _CopySet:
    """Arriving physical copies of one hop transmission (non-ARQ).

    Tracks how many scheduled arrivals are still in flight and whether
    any copy has been accepted, so a hop whose every copy is swallowed
    by a crashed receiver is counted lost exactly once.
    """

    sender: int
    remaining: int
    dedup_key: tuple[int, int, int]
    accepted: bool = False


@dataclass(slots=True)
class _NodeState:
    """Runtime state of one buffering node.

    The buffering/delay/preemption *policy* lives in the node's
    :class:`~repro.core.privacy_core.TemporalPrivacyCore`; this wrapper
    adds the simulator-side bookkeeping (stats, occupancy integral).
    """

    core: TemporalPrivacyCore
    stats: NodeStats
    last_occupancy_change: float = 0.0
    buffer: PacketBuffer = field(init=False)

    def __post_init__(self) -> None:
        self.buffer = self.core.buffer

    def track_occupancy(self, now: float, occupancy_before: int) -> None:
        elapsed = now - self.last_occupancy_change
        if elapsed > 0:
            self.stats.occupancy_time_integral += occupancy_before * elapsed
        self.last_occupancy_change = now


class SensorNetworkSimulator:
    """Runs one :class:`~repro.sim.config.SimulationConfig` to completion.

    Examples
    --------
    >>> from repro.sim import SimulationConfig
    >>> config = SimulationConfig.paper_baseline(
    ...     interarrival=10.0, case="no-delay", n_packets=5)
    >>> result = SensorNetworkSimulator(config).run()
    >>> result.delivered_count()
    20
    """

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config
        self._sim = Simulator()
        self._rng = RngRegistry(config.seed)
        self._result = SimulationResult()
        self._delivery_columns: dict[str, list] = {
            name: [] for name in DELIVERY_COLUMNS
        }
        self._nodes: dict[int, _NodeState] = {}
        self._codec = (
            PayloadCodec(KeyManager(_MASTER_KEY)) if config.seal_payloads else None
        )
        if config.link_loss_probability > 0:
            self._link = LossyLink(
                delay=config.transmission_delay,
                loss_probability=config.link_loss_probability,
                rng=self._rng.stream("link-loss"),
            )
        else:
            self._link = ConstantDelayLink(delay=config.transmission_delay)
        if config.routing_policy is not None:
            self._routing = config.routing_policy
        else:
            from repro.location.policies import TreeRoutingPolicy

            self._routing = TreeRoutingPolicy(config.tree)
        self._routing_rng = self._rng.stream("routing")
        # --- fault layer (None == strict legacy behaviour) ---
        if config.faults is not None and not config.faults.is_noop:
            self._faults: FaultInjector | None = FaultInjector(
                config.faults, self._rng
            )
            self._backups = (
                backup_parents(config.deployment, config.tree)
                if config.faults.crashes
                else {}
            )
        else:
            self._faults = None
            self._backups = {}
        self.telemetry: RunTelemetry | None = (
            RunTelemetry() if config.record_telemetry else None
        )
        self._counters = ConservationCounters()
        self._seen: dict[int, set[tuple[int, int, int]]] = {}
        self._transfers: dict[int, ArqTransfer] = {}
        self._transfer_ids = itertools.count()
        self.lost_in_transit = 0
        self._next_routing_seq = 0
        self._tracing = config.record_packet_traces
        self._ran = False

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the simulation; idempotent guard against reuse."""
        if self._ran:
            raise RuntimeError("simulator instances are single-use; build a new one")
        self._ran = True
        from repro.sim.fastpath import fastpath_eligible, fastpath_enabled, run_fastpath

        if (
            type(self) is SensorNetworkSimulator  # subclasses may override hooks
            and fastpath_enabled()
            and fastpath_eligible(self.config)
        ):
            # Batch replay: observable-bit-identical, order of magnitude
            # faster.  REPRO_FASTPATH=0 forces the event-driven engine.
            return run_fastpath(self)
        if self._faults is not None:
            self._schedule_crash_windows()
        self._schedule_creations()
        self._sim.run_until(self.config.max_sim_time)
        if self._sim.peek() != float("inf"):
            raise RuntimeError(
                f"simulation exceeded max_sim_time={self.config.max_sim_time:g}; "
                "events still pending"
            )
        self._finalize()
        return self._result

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _schedule_creations(self) -> None:
        for flow in self.config.flows:
            stream = self._rng.stream(f"traffic/flow-{flow.flow_id}")
            times = flow.traffic.creation_times(flow.n_packets, stream)
            for packet_index, created_at in enumerate(times):
                self._sim.schedule(
                    float(created_at), self._on_created, flow, packet_index
                )

    def _schedule_crash_windows(self) -> None:
        for window in self.config.faults.crashes:
            self._sim.schedule(window.start, self._on_crash, window.node)
            if window.end != float("inf"):
                self._sim.schedule(window.end, self._on_recover, window.node)

    def _node_state(self, node: int) -> _NodeState:
        state = self._nodes.get(node)
        if state is None:
            delay_plan = self.config.delay_plan
            state = _NodeState(
                core=TemporalPrivacyCore(
                    buffer=self._make_buffer(node),
                    delay=(
                        delay_plan.distribution_for(node)
                        if delay_plan is not None
                        else None
                    ),
                    delay_rng=self._rng.stream(f"delay/node-{node}"),
                    victim_rng=self._rng.stream(f"victim/node-{node}"),
                ),
                stats=NodeStats(node_id=node),
                last_occupancy_change=self._sim.now,
            )
            if self.telemetry is not None:
                self._attach_probe(node, state.buffer)
            self._nodes[node] = state
        return state

    def _attach_probe(self, node: int, buffer: PacketBuffer) -> None:
        """Instrument one node's buffer.

        The closure pre-resolves every metric object so the per-event
        cost is two list appends and a counter bump -- no dictionary
        lookups or allocations on the buffer's hot path.
        """
        telemetry = self.telemetry
        occupancy = telemetry.series.series(f"occupancy/node-{node}")
        registry = telemetry.registry
        counters = {
            "admit": registry.counter("sim/admitted"),
            "drop": registry.counter("sim/dropped"),
            "preempt": registry.counter("sim/preempted"),
            "release": registry.counter("sim/released"),
        }
        event_series = {
            "drop": telemetry.series.series("events/drop"),
            "preempt": telemetry.series.series("events/preempt"),
        }
        sim = self._sim

        def probe(event: str, count: int) -> None:
            now = sim.now
            occupancy.append(now, float(count))
            counters[event].inc()
            events = event_series.get(event)
            if events is not None:
                events.append(now, 1.0)

        buffer.telemetry_probe = probe

    def _make_buffer(self, node: int) -> PacketBuffer:
        spec = self.config.buffers
        capacity = spec.capacity_for(node)
        if capacity is None:
            return InfiniteBuffer()
        if spec.kind == "drop-tail":
            return DropTailBuffer(capacity=capacity)
        return RcadBuffer(capacity=capacity, victim_policy=spec.victim_policy)

    # ------------------------------------------------------------------
    # packet lifecycle
    # ------------------------------------------------------------------
    def _trace(self, transit: _TransitPacket, kind: str, node: int, detail=None) -> None:
        # Callers check ``self._tracing`` first: untraced runs pay nothing.
        from repro.sim.tracing import PacketTrace

        key = (transit.packet.flow_id, transit.packet.packet_id)
        trace = self._result.packet_traces.get(key)
        if trace is None:
            trace = PacketTrace(flow_id=key[0], packet_id=key[1])
            self._result.packet_traces[key] = trace
        trace.add(self._sim.now, kind, node, detail)

    def _on_created(self, flow, packet_index: int) -> None:
        created_at = self._sim.now
        source = flow.source
        if self._codec is not None:
            reading_value = float(
                self._rng.stream(f"readings/flow-{flow.flow_id}").normal()
            )
            payload = self._codec.seal(
                source,
                SensorReading(
                    created_at=created_at, app_seq=packet_index, value=reading_value
                ),
            )
        else:
            payload = None
        header = RoutingHeader(
            previous_hop=source,
            origin=source,
            routing_seq=self._next_routing_seq,
            hop_count=0,
        )
        self._next_routing_seq += 1
        packet = Packet(
            header=header,
            payload=payload,
            flow_id=flow.flow_id,
            created_at=created_at,
            packet_id=packet_index,
        )
        self._routing.first_hop_state((flow.flow_id, packet_index))
        transit = _TransitPacket(packet)
        self._counters.created += 1
        if self._tracing:
            self._trace(transit, "created", source)
        self._handle_at_node(source, transit)

    def _handle_at_node(self, node: int, transit: _TransitPacket) -> None:
        """A packet materializes at ``node`` (created here or received)."""
        if node == self.config.deployment.sink:
            self._deliver(transit)
            return
        if self.config.delay_plan is None:
            # Case 1, no privacy delays: forward as soon as received.
            self._transmit(node, transit)
            return
        self._buffer_packet(node, transit)

    def _buffer_packet(self, node: int, transit: _TransitPacket) -> None:
        state = self._node_state(node)
        now = self._sim.now
        occupancy_before = state.buffer.occupancy
        result = state.core.offer(transit, now)
        state.track_occupancy(now, occupancy_before)
        if result.action is CoreAction.SHED:
            state.stats.dropped += 1
            self._counters.buffer_dropped += 1
            if self._tracing:
                self._trace(transit, "dropped", node)
            self._result.dropped.append(
                DroppedPacket(
                    flow_id=transit.packet.flow_id,
                    packet_id=transit.packet.packet_id,
                    created_at=transit.packet.created_at,
                    dropped_at=now,
                    dropped_by=node,
                )
            )
            return
        state.stats.admitted += 1
        assert result.entry is not None  # admitted implies an entry exists
        entry = result.entry
        if self._tracing:
            self._trace(transit, "buffered", node, detail=entry.release_time)
        entry.context = self._sim.schedule(
            entry.release_time, self._on_release, node, entry.entry_id
        )
        if result.victim is not None:
            state.stats.preemptions += 1
            victim = result.victim
            if victim.context is not None:
                victim.context.cancel()
            victim_transit: _TransitPacket = victim.payload
            victim_transit.preemptions += 1
            if self._tracing:
                self._trace(
                    victim_transit, "preempted", node, detail=victim.release_time
                )
            # The victim leaves the buffer *now*: it was already removed
            # from the buffer's entry table by the admission; transmit it.
            self._transmit(node, victim_transit)

    def _on_release(self, node: int, entry_id: int) -> None:
        if self._faults is not None and self._faults.is_crashed(node):
            # Must be unreachable: crashing cancels every pending
            # release.  Counted (not silently ignored) so the auditor
            # turns any scheduling bug into a loud invariant failure.
            self._counters.crashed_releases += 1
            return
        state = self._node_state(node)
        occupancy_before = state.buffer.occupancy
        entry = state.buffer.release(entry_id)
        state.track_occupancy(self._sim.now, occupancy_before)
        self._transmit(node, entry.payload)

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def _transmit(self, node: int, transit: _TransitPacket) -> None:
        packet = transit.packet
        next_hop = self._routing.next_hop(
            node, (packet.flow_id, packet.packet_id), self._routing_rng
        )
        if (
            self._faults is not None
            and self._faults.is_crashed(next_hop)
            and next_hop != self.config.deployment.sink
        ):
            backup = self._backups.get(node)
            if backup is not None and not self._faults.is_crashed(backup):
                if self._tracing:
                    self._trace(transit, "failover", node, detail=backup)
                next_hop = backup
        packet.header = packet.header.forwarded(node)
        if self.config.record_transmissions:
            self._result.transmissions.append((self._sim.now, node, next_hop))
        if self._tracing:
            self._trace(transit, "forwarded", node, detail=next_hop)
        if self._faults is None:
            # Legacy path, bit-for-bit identical to the pre-fault
            # simulator: one copy, constant delay, silent loss.
            if not self._link.delivers():
                # Lost on the air: the packet vanishes mid-path (no
                # link-layer retransmission in this model).
                self._record_unique_loss(node, transit)
                return
            self._sim.schedule_after(
                self._link.transmission_delay(), self._handle_at_node,
                next_hop, transit,
            )
            return
        # The duplicate-filter key must be pinned *now*: the header (and
        # its hop count) mutates as the accepted copy travels onward, so
        # a late duplicate would otherwise dodge the filter.
        dedup_key = (
            transit.packet.flow_id,
            transit.packet.packet_id,
            transit.packet.header.hop_count,
        )
        if self.config.faults.arq is not None:
            self._start_arq_transfer(node, next_hop, transit, dedup_key)
        else:
            self._send_copies(node, next_hop, transit, dedup_key)

    def _record_unique_loss(
        self,
        sender: int,
        transit: _TransitPacket,
        *,
        blackholed: bool = False,
        arq_failed: bool = False,
    ) -> None:
        """A unique packet (not a spare copy) vanished on the hop out of
        ``sender``; attribute the loss location to the transmitter."""
        self.lost_in_transit += 1
        self._counters.lost_in_transit += 1
        self._node_state(sender).stats.lost_in_transit += 1
        if blackholed:
            self._result.crash_blackholed += 1
        if arq_failed:
            self._result.arq_failed += 1
        if self._tracing:
            self._trace(transit, "lost", sender)

    def _copy_delivers(self, sender: int) -> bool:
        """One physical copy's survival: i.i.d. link loss *and* the
        sender's Gilbert-Elliott chain must both spare it."""
        return self._link.delivers() and self._faults.link_delivers(sender)

    def _hop_delay(self) -> float:
        return self._link.transmission_delay() + self._faults.sample_jitter()

    # -- non-ARQ fault path --------------------------------------------
    def _send_copies(
        self,
        sender: int,
        receiver: int,
        transit: _TransitPacket,
        dedup_key: tuple[int, int, int],
    ) -> None:
        n_copies = 2 if self._faults.duplicates() else 1
        delays = []
        for _ in range(n_copies):
            if self._copy_delivers(sender):
                delays.append(self._hop_delay())
        if not delays:
            self._record_unique_loss(sender, transit)
            return
        copyset = _CopySet(sender=sender, remaining=len(delays), dedup_key=dedup_key)
        for delay in delays:
            self._sim.schedule_after(
                delay, self._on_copy_arrival, copyset, receiver, transit
            )

    def _on_copy_arrival(
        self, copyset: _CopySet, receiver: int, transit: _TransitPacket
    ) -> None:
        copyset.remaining -= 1
        if self._faults.is_crashed(receiver):
            if not copyset.accepted and copyset.remaining == 0:
                self._record_unique_loss(copyset.sender, transit, blackholed=True)
            return
        if not self._accept_at(receiver, transit, copyset.dedup_key):
            return
        copyset.accepted = True
        self._handle_at_node(receiver, transit)

    def _accept_at(
        self,
        receiver: int,
        transit: _TransitPacket,
        key: tuple[int, int, int],
    ) -> bool:
        """Duplicate filter: True if this copy is the first the (live)
        receiver hears for this (packet, hop)."""
        seen = self._seen.setdefault(receiver, set())
        if key in seen:
            self._counters.extra_copies_arrived += 1
            self._counters.duplicates_suppressed += 1
            self._result.duplicates_suppressed += 1
            if self._tracing:
                self._trace(transit, "duplicate", receiver)
            return False
        seen.add(key)
        return True

    # -- ARQ fault path ------------------------------------------------
    def _start_arq_transfer(
        self,
        sender: int,
        receiver: int,
        transit: _TransitPacket,
        dedup_key: tuple[int, int, int],
    ) -> None:
        spec = self.config.faults.arq
        transfer = ArqTransfer(
            transfer_id=next(self._transfer_ids),
            sender=sender,
            receiver=receiver,
            payload=transit,
            dedup_key=dedup_key,
        )
        transfer.timer = BackoffTimer(
            self._sim, base_timeout=spec.timeout, backoff=spec.backoff
        )
        self._transfers[transfer.transfer_id] = transfer
        self._send_arq_copy(transfer)

    def _send_arq_copy(self, transfer: ArqTransfer) -> None:
        """One (re)transmission attempt: data copy + timeout timer."""
        n_copies = 2 if self._faults.duplicates() else 1
        for _ in range(n_copies):
            if self._copy_delivers(transfer.sender):
                transfer.copies_in_flight += 1
                self._sim.schedule_after(
                    self._hop_delay(), self._on_arq_data, transfer
                )
        transfer.timer.start(self._on_arq_timeout, transfer)

    def _on_arq_data(self, transfer: ArqTransfer) -> None:
        transfer.copies_in_flight -= 1
        receiver = transfer.receiver
        if self._faults.is_crashed(receiver):
            # The copy dies silently; no ACK, the sender will retry --
            # unless the transfer was already abandoned and this was
            # its last hope, in which case the deferred loss lands now.
            if (
                transfer.abandoned
                and not transfer.received
                and transfer.copies_in_flight == 0
            ):
                self._record_unique_loss(
                    transfer.sender, transfer.payload, blackholed=True
                )
            return
        transit: _TransitPacket = transfer.payload
        if self._accept_at(receiver, transit, transfer.dedup_key):
            transfer.received = True
            self._handle_at_node(receiver, transit)
        # ACK every copy heard -- a duplicate means the previous ACK
        # was lost.  The ACK rides the receiver's own radio, so it
        # faces that link's loss process.
        if self._copy_delivers(receiver):
            self._sim.schedule_after(
                self._hop_delay(), self._on_arq_ack, transfer
            )

    def _on_arq_ack(self, transfer: ArqTransfer) -> None:
        if transfer.settled:
            return
        if self._faults.is_crashed(transfer.sender):
            return  # the crash already aborted this transfer's timer
        transfer.acked = True
        transfer.timer.cancel()
        del self._transfers[transfer.transfer_id]

    def _on_arq_timeout(self, transfer: ArqTransfer) -> None:
        if transfer.settled:
            return
        spec = self.config.faults.arq
        if transfer.attempt >= spec.max_retries:
            transfer.abandoned = True
            del self._transfers[transfer.transfer_id]
            if not transfer.received and transfer.copies_in_flight == 0:
                # Genuinely gone.  (If it *was* received -- every ACK
                # lost -- the packet lives on downstream and nothing
                # is lost but the sender's patience.  If a copy is
                # still in the air, the last arrival renders the
                # verdict instead.)
                self._record_unique_loss(
                    transfer.sender, transfer.payload, arq_failed=True
                )
            return
        transfer.attempt += 1
        transfer.retransmit_times.append(self._sim.now)
        self._result.retransmissions.append(
            (self._sim.now, transfer.sender, transfer.receiver)
        )
        self._node_state(transfer.sender).stats.retransmissions += 1
        if self.telemetry is not None:
            self.telemetry.registry.counter("sim/retransmissions").inc()
            self.telemetry.series.series("events/retransmit").append(
                self._sim.now, 1.0
            )
        if self._tracing:
            self._trace(transfer.payload, "retransmit", transfer.sender,
                        detail=transfer.receiver)
        self._send_arq_copy(transfer)

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------
    def _on_crash(self, node: int) -> None:
        self._faults.mark_crashed(node)
        state = self._nodes.get(node)
        if state is not None:
            # Freeze the buffer: pending releases are cancelled, the
            # entries stay put until recovery (or strand forever).
            for entry in state.buffer.entries():
                if entry.context is not None and entry.context.pending:
                    entry.context.cancel()
        # Abort this node's outstanding ARQ transfers as a sender: a
        # dead radio can neither retransmit nor hear ACKs.
        for transfer in [
            t for t in self._transfers.values() if t.sender == node
        ]:
            transfer.abandoned = True
            transfer.timer.cancel()
            del self._transfers[transfer.transfer_id]
            if not transfer.received and transfer.copies_in_flight == 0:
                # A copy already on the air outlives its sender's
                # crash; the last arrival renders the verdict.
                self._record_unique_loss(node, transfer.payload)

    def _on_recover(self, node: int) -> None:
        self._faults.mark_recovered(node)
        state = self._nodes.get(node)
        if state is None:
            return
        now = self._sim.now
        for entry in state.buffer.entries():
            if entry.context is None or not entry.context.pending:
                # Overdue releases fire immediately on recovery; the
                # rest resume their original schedule.
                entry.context = self._sim.schedule(
                    max(entry.release_time, now),
                    self._on_release,
                    node,
                    entry.entry_id,
                )

    # ------------------------------------------------------------------
    def _deliver(self, transit: _TransitPacket) -> None:
        now = self._sim.now
        packet = transit.packet
        if self._codec is not None:
            reading = self._codec.open(packet.payload)
            if reading.created_at != packet.created_at:
                raise RuntimeError(
                    "payload timestamp does not match simulator ground truth "
                    f"for flow {packet.flow_id} packet {packet.packet_id}"
                )
        self._counters.delivered += 1
        if self.telemetry is not None:
            self.telemetry.registry.counter("sim/delivered").inc()
            self.telemetry.registry.histogram(
                f"latency/flow-{packet.flow_id}"
            ).observe(now - packet.created_at)
        if self._tracing:
            self._trace(transit, "delivered", self.config.deployment.sink)
        header = packet.header
        columns = self._delivery_columns
        columns["arrival_time"].append(now)
        columns["created_at"].append(packet.created_at)
        columns["flow_id"].append(packet.flow_id)
        columns["packet_id"].append(packet.packet_id)
        columns["routing_seq"].append(header.routing_seq)
        columns["hop_count"].append(header.hop_count)
        columns["previous_hop"].append(header.previous_hop)
        columns["origin"].append(header.origin)
        columns["preemptions"].append(transit.preemptions)

    # ------------------------------------------------------------------
    def _finalize(self) -> None:
        # Use the last *event* time, not the clock: run_until leaves
        # the clock at the safety horizon, which would dilute every
        # time-averaged statistic.
        end = self._sim.last_event_time
        self._result.delivery = DeliveryLog(**self._delivery_columns)
        for node, state in self._nodes.items():
            state.track_occupancy(end, state.buffer.occupancy)
            state.stats.observation_time = end
            state.stats.peak_occupancy = state.buffer.peak_occupancy
            self._result.node_stats[node] = state.stats
            if state.buffer.occupancy > 0:
                self._counters.stranded_in_buffer += state.buffer.occupancy
                self._counters.stranding_nodes.add(node)
        self._result.lost_in_transit = self.lost_in_transit
        self._result.stranded_in_buffer = self._counters.stranded_in_buffer
        self._result.end_time = end
        self._result.events_processed = self._sim.events_processed
        if self.telemetry is not None:
            registry = self.telemetry.registry
            registry.counter("des/events-processed").inc(self._sim.events_processed)
            registry.counter("des/events-scheduled").inc(self._sim.events_scheduled)
            registry.counter("des/events-skipped").inc(self._sim.events_skipped)
            registry.counter("sim/lost-in-transit").inc(self.lost_in_transit)
            registry.gauge("sim/end-time").set(end)
            if self._faults is not None:
                self._faults.publish_telemetry(registry)
            self._result.telemetry = self.telemetry
        if self.config.faults is not None:
            self._counters.crash_nodes = self.config.faults.crash_nodes()
        InvariantAuditor(self._counters).audit(self._result)
