"""Vectorized structure-of-arrays replay of the event-driven simulator.

The paper's fault-free model has a crucial structural property: the
routing tree has **no feedback**.  A node's arrival stream depends only
on its children's departure streams, so instead of interleaving every
node's events through one global scheduler, nodes can be processed one
at a time in topological order (children before parents), each as a
single batch:

* packet state lives in numpy arrays keyed by a global packet index
  (creation times, flow/packet ids, routing sequence, preemption
  counts) instead of per-packet heap objects;
* per-node artificial delays are drawn in one vectorized generator
  call -- numpy streams produce bit-identical values whether drawn
  singly or batched, and the seed engine consumes the per-node
  ``delay/node-X`` stream exactly in arrival order, which is the order
  the batch replays;
* each node's whole arrival batch goes through
  :func:`repro.core.buffers.replay`, the buffer module's batch entry
  point, so release order and victim choice have one implementation
  shared with the event engine and the service: infinite buffers and
  RCAD (whose buffer contents after each arrival are an order
  statistic of the release times) reduce to array arithmetic,
  drop-tail to one heap loop, and the occupancy integral to a
  cumulative sum over the node's event sequence;
* telemetry is recorded into per-node lists and bulk-flushed into the
  run's series after the sweep, instead of per-event closure calls.

**Observable bit-identity.**  The replay reproduces the event-driven
engine's output exactly -- same floats, same orderings, same event
ledger -- relying on two facts.  First, float arithmetic is replayed
operation-for-operation (``created + tau`` per hop, ``now + delay``,
the occupancy integral accumulated in per-node event order via a
cumulative sum, histogram sums in delivery order).  Second, event
*ordering*: ties between distinct packets' events are measure-zero
when every hop adds a delay from a continuous distribution, and the
remaining systematic ties are resolved exactly as the engine's
``(time, seq)`` order would: creation events are scheduled at setup so
they carry the globally smallest sequence numbers (a creation fires
before any same-instant arrival, and creations among themselves fire
in flow-major setup order), and in the no-delay case two deliveries
coincide only when their creations differ by a whole number of hop
delays, in which case the later-created packet's chain holds the
smaller sequence number at every shared instant and lands first.

:func:`fastpath_eligible` gates the replay to configurations whose
every feature the batch model covers; anything else (faults, ARQ,
lossy links, phantom routing, sealed payloads, trace recording,
non-continuous delays, any victim policy but the paper's
shortest-remaining delay) takes the event-driven engine.  Setting
``REPRO_FASTPATH=0`` in the environment forces the event-driven engine
everywhere -- the A/B lever the equivalence tests and benchmarks use.
"""

from __future__ import annotations

import os
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

from repro.core.buffers import replay
from repro.core.victim import ShortestRemainingDelay
from repro.sim.results import DeliveryLog, DroppedPacket, NodeStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.config import SimulationConfig
    from repro.sim.results import SimulationResult
    from repro.sim.simulator import SensorNetworkSimulator

__all__ = ["fastpath_eligible", "fastpath_enabled", "run_fastpath"]


def fastpath_enabled() -> bool:
    """False when ``REPRO_FASTPATH`` is set to ``0``/``off``/``false``."""
    return os.environ.get("REPRO_FASTPATH", "1").strip().lower() not in (
        "0",
        "off",
        "false",
        "no",
    )


def fastpath_eligible(config: "SimulationConfig") -> bool:
    """True if the batch replay covers every feature this run uses."""
    if config.faults is not None and not config.faults.is_noop:
        return False
    if config.routing_policy is not None:
        return False
    if config.link_loss_probability > 0:
        return False
    if config.seal_payloads or config.record_transmissions or config.record_packet_traces:
        return False
    if config.transmission_delay <= 0:
        return False  # zero-tau chains make same-instant ties routine
    if config.buffers.kind == "rcad" and config.buffers.victim_policy is not None:
        if not isinstance(config.buffers.victim_policy, ShortestRemainingDelay):
            return False
    plan = config.delay_plan
    if plan is not None:
        buffering = set()
        for flow in config.flows:
            buffering.update(config.tree.path(flow.source)[:-1])
        for node in buffering:
            try:
                dist = plan.distribution_for(node)
            except KeyError:
                return False
            if not getattr(dist, "continuous", False):
                return False
    return True


# ----------------------------------------------------------------------
def run_fastpath(sim: "SensorNetworkSimulator") -> "SimulationResult":
    """Run ``sim``'s configuration as a batch replay; fills ``sim._result``."""
    config = sim.config
    tree = config.tree
    tau = config.transmission_delay

    # --- creations: flow-major packet arrays ---------------------------
    flow_times = []
    for flow in config.flows:
        stream = sim._rng.stream(f"traffic/flow-{flow.flow_id}")
        flow_times.append(
            np.asarray(
                flow.traffic.creation_times(flow.n_packets, stream), dtype=np.float64
            )
        )
    counts = [len(t) for t in flow_times]
    total = int(sum(counts))
    created = np.concatenate(flow_times)
    flow_of = np.repeat(np.arange(len(config.flows)), counts)
    packet_id = np.concatenate([np.arange(n) for n in counts])

    # routing_seq is assigned as creation events fire: time order, with
    # same-instant creations in flow-major setup (= sequence) order.
    creation_order = np.argsort(created, kind="stable")
    routing_seq = np.empty(total, dtype=np.int64)
    routing_seq[creation_order] = np.arange(total)
    sim._next_routing_seq = total
    sim._counters.created = total

    paths = {flow.source: tree.path(flow.source) for flow in config.flows}
    hops_of_flow = np.array(
        [len(paths[flow.source]) - 1 for flow in config.flows], dtype=np.int64
    )
    prevhop_of_flow = np.array(
        [paths[flow.source][-2] for flow in config.flows], dtype=np.int64
    )

    if config.delay_plan is None:
        _run_nodelay(
            sim, created, flow_of, packet_id, routing_seq,
            hops_of_flow, prevhop_of_flow, tau,
        )
    else:
        _run_delayed(
            sim, created, flow_of, packet_id, routing_seq,
            hops_of_flow, prevhop_of_flow, tau,
        )
    # Resolve the auditor through the simulator module so test
    # instrumentation (and any future swap) applies to both paths.
    from repro.sim import simulator as _simulator

    _simulator.InvariantAuditor(sim._counters).audit(sim._result)
    return sim._result


def _check_horizon(sim: "SensorNetworkSimulator", end: float) -> None:
    if end > sim.config.max_sim_time:
        raise RuntimeError(
            f"simulation exceeded max_sim_time={sim.config.max_sim_time:g}; "
            "events still pending"
        )


def _deliver_all(
    sim: "SensorNetworkSimulator",
    times: np.ndarray,
    pkts: np.ndarray,
    created: np.ndarray,
    flow_of: np.ndarray,
    packet_id: np.ndarray,
    routing_seq: np.ndarray,
    hops_of_flow: np.ndarray,
    prevhop_of_flow: np.ndarray,
    preemptions: np.ndarray | None,
) -> None:
    """Fill the delivery log (and latency telemetry) in sink order."""
    flows = sim.config.flows
    flows_of = flow_of[pkts]
    flow_ids = [flow.flow_id for flow in flows]
    telemetry = sim.telemetry
    if telemetry is not None and len(times):
        telemetry.registry.counter("sim/delivered").inc(len(times))
        # Histograms come into existence at a flow's first delivery, so
        # a flow that never delivers must not appear in the snapshot.
        histograms: list = [None] * len(flow_ids)
        for now, p, f in zip(times.tolist(), pkts.tolist(), flows_of.tolist()):
            hist = histograms[f]
            if hist is None:
                hist = histograms[f] = telemetry.registry.histogram(
                    f"latency/flow-{flow_ids[f]}"
                )
            hist.observe(now - created[p])
    sim._result.delivery = DeliveryLog(
        arrival_time=times,
        created_at=created[pkts],
        flow_id=np.array(flow_ids)[flows_of],
        packet_id=packet_id[pkts],
        routing_seq=routing_seq[pkts],
        hop_count=hops_of_flow[flows_of],
        previous_hop=prevhop_of_flow[flows_of],
        origin=np.array([flow.source for flow in flows])[flows_of],
        preemptions=(
            preemptions[pkts]
            if preemptions is not None
            else np.zeros(len(pkts), dtype=np.int64)
        ),
    )
    sim._counters.delivered = len(times)


def _finalize_fast(
    sim: "SensorNetworkSimulator",
    end: float,
    processed: int,
    scheduled: int,
    skipped: int,
) -> None:
    result = sim._result
    result.end_time = end
    result.events_processed = processed
    telemetry = sim.telemetry
    if telemetry is not None:
        registry = telemetry.registry
        registry.counter("des/events-processed").inc(processed)
        registry.counter("des/events-scheduled").inc(scheduled)
        registry.counter("des/events-skipped").inc(skipped)
        registry.counter("sim/lost-in-transit").inc(0)
        registry.gauge("sim/end-time").set(end)
        result.telemetry = telemetry


# ----------------------------------------------------------------------
def _run_nodelay(
    sim, created, flow_of, packet_id, routing_seq,
    hops_of_flow, prevhop_of_flow, tau,
) -> None:
    """Case 1: no artificial delay -- a packet's delivery time is its
    creation time plus one tau per hop, accumulated hop-by-hop so the
    float sums match the engine's successive ``now + tau`` adds."""
    delivered = created.copy()
    for f in range(len(hops_of_flow)):
        mask = flow_of == f
        seg = delivered[mask]
        for _ in range(int(hops_of_flow[f])):
            seg = seg + tau
        delivered[mask] = seg
    end = float(delivered.max())
    _check_horizon(sim, end)
    # Tied deliveries happen only between chains whose creations differ
    # by a multiple of tau; the later-created chain carries the smaller
    # seq from its creation onward and lands first (see module docs).
    order = np.lexsort((np.arange(len(delivered)), -created, delivered))
    _deliver_all(
        sim,
        delivered[order], order,
        created, flow_of, packet_id, routing_seq,
        hops_of_flow, prevhop_of_flow, None,
    )
    hop_events = int(np.sum(hops_of_flow[flow_of]))
    total = len(created)
    _finalize_fast(
        sim, end,
        processed=total + hop_events,
        scheduled=total + hop_events,
        skipped=0,
    )


# ----------------------------------------------------------------------
def _run_delayed(
    sim, created, flow_of, packet_id, routing_seq,
    hops_of_flow, prevhop_of_flow, tau,
) -> None:
    config = sim.config
    tree = config.tree
    sink = config.deployment.sink
    plan = config.delay_plan
    telemetry = sim.telemetry

    # Topological order: deeper nodes (more hops to the sink) first.
    buffering: set[int] = set()
    for flow in config.flows:
        buffering.update(tree.path(flow.source)[:-1])
    node_order = sorted(buffering, key=lambda n: (-tree.hop_count(n), n))

    # Per-node pending input segments: (times, packet indices), each
    # segment internally time-sorted.  Creations are seeded first so a
    # stable sort keeps them ahead of same-instant arrivals (creation
    # events carry the smallest seqs).
    inbox: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for f, flow in enumerate(config.flows):
        mask = flow_of == f
        inbox.setdefault(flow.source, []).append(
            (created[mask], np.nonzero(mask)[0])
        )

    preemptions = np.zeros(len(created), dtype=np.int64)
    total_admitted = 0
    total_preempted = 0
    drops: list[tuple[float, int, int]] = []  # (time, packet, node)
    preempt_times: list[np.ndarray] = [np.empty(0)]
    end = float(created.max()) if len(created) else 0.0

    for node in node_order:
        segments = inbox.pop(node, None)
        if not segments:
            continue
        in_t = np.concatenate([s[0] for s in segments])
        order = np.argsort(in_t, kind="stable")
        in_t = in_t[order]
        in_p = np.concatenate([s[1] for s in segments])[order]
        if not len(in_t):
            continue
        end = max(end, float(in_t[-1]))
        delays = plan.distribution_for(node).sample_batch(
            sim._rng.stream(f"delay/node-{node}"), len(in_t)
        )
        rep = replay(sim._make_buffer(node), in_t, in_t + delays)
        preemptions[in_p[rep.victims]] += 1
        drops.extend(
            zip(in_t[rep.drops].tolist(), in_p[rep.drops].tolist(), repeat(node))
        )
        total_admitted += rep.admitted
        total_preempted += rep.preemptions
        sim._result.node_stats[node] = NodeStats(
            node_id=node,
            admitted=rep.admitted,
            dropped=rep.dropped,
            preemptions=rep.preemptions,
            peak_occupancy=rep.peak_occupancy,
            occupancy_time_integral=rep.occupancy_time_integral,
        )
        if telemetry is not None:
            telemetry.series.series(f"occupancy/node-{node}").extend(
                rep.event_times.tolist(), rep.occupancy.astype(np.float64).tolist()
            )
            preempt_times.append(in_t[rep.preemptors])
        if len(rep.departures):
            inbox.setdefault(tree.next_hop(node), []).append(
                (rep.departure_times + tau, in_p[rep.departures])
            )
        del rep  # free the node's event arrays before the next replay

    # --- deliver at the sink ------------------------------------------
    segments = inbox.pop(sink, [])
    if segments:
        sink_t = np.concatenate([s[0] for s in segments])
        order = np.argsort(sink_t, kind="stable")
        sink_t = sink_t[order]
        sink_p = np.concatenate([s[1] for s in segments])[order]
        end = max(end, float(sink_t[-1]))
    else:
        sink_t = np.empty(0, dtype=np.float64)
        sink_p = np.empty(0, dtype=np.int64)
    _check_horizon(sim, end)

    # --- drop records in global event order ---------------------------
    drops.sort(key=lambda d: d[0])
    for when, p, node in drops:
        sim._result.dropped.append(
            DroppedPacket(
                flow_id=config.flows[flow_of[p]].flow_id,
                packet_id=int(packet_id[p]),
                created_at=float(created[p]),
                dropped_at=when,
                dropped_by=node,
            )
        )
    sim._counters.buffer_dropped = len(drops)

    _deliver_all(
        sim, sink_t, sink_p,
        created, flow_of, packet_id, routing_seq,
        hops_of_flow, prevhop_of_flow, preemptions,
    )

    # Per-node stats: the engine stamps observation_time and the final
    # zero-occupancy integral segment at finalize.
    for stats in sim._result.node_stats.values():
        stats.observation_time = end

    total_released = total_admitted - total_preempted
    if telemetry is not None and sim._result.node_stats:
        # The probe pre-creates these metrics for every instrumented
        # node, so they exist (possibly at zero) whenever any node
        # buffered at all.
        registry = telemetry.registry
        registry.counter("sim/admitted").inc(total_admitted - total_preempted)
        registry.counter("sim/dropped").inc(len(drops))
        registry.counter("sim/preempted").inc(total_preempted)
        registry.counter("sim/released").inc(total_released)
        for name, times in (
            ("events/drop", [when for when, _, _ in drops]),
            ("events/preempt", np.sort(np.concatenate(preempt_times)).tolist()),
        ):
            telemetry.series.series(name).extend(times, [1.0] * len(times))

    _finalize_fast(
        sim, end,
        processed=len(created) + total_admitted + total_released,
        scheduled=len(created) + 2 * total_admitted,
        skipped=total_preempted,
    )
