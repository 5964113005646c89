"""Observable fingerprinting: one digest per simulation's visible output.

The DES hot path gets rewritten for speed (the event heap, the
vectorized fast path of :mod:`repro.sim.fastpath`), and the contract of
every such rewrite is *observable bit-identity*: the same configuration
must produce exactly the same adversary-visible output and statistics,
down to the last float bit, as the reference event-driven engine.

:func:`observable_digest` reduces a :class:`~repro.sim.results.\
SimulationResult` to a canonical SHA-256 via the same stable encoding
the result cache uses.  The digest covers

* the adversary surface: the delivery log's tap columns, the
  retransmission log, and (when recorded) the transmission log;
* ground truth: the delivery log's ground-truth columns and the drop
  records, in arrival order;
* per-node statistics including the float occupancy-time integrals --
  summation *order* matters, so a vectorized integral that accumulates
  in a different order is caught here;
* conservation counters, the end time, and the engine's processed-event
  count (a fast path must account for exactly the events the reference
  engine would have fired);
* the run telemetry (metric snapshot plus every time series), when the
  configuration recorded any.

:func:`reference_configs` pins the workload matrix the golden-digest
test locks down: the three fig2 evaluation cases, poisson traffic with
telemetry, drop-tail, alternate victim policies, constant delays (the
tie-heavy degenerate case), sealed payloads, lossy links, and the chaos
fault plans with and without ARQ.  ``tests/data/golden_observables.json``
holds the digests captured from the seed engine;
``scripts/capture_golden_observables.py`` regenerates it (only ever
legitimate for a deliberate, documented behaviour change).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.runtime.fingerprint import stable_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.config import SimulationConfig
    from repro.sim.results import SimulationResult
    from repro.telemetry import RunTelemetry

__all__ = ["observable_view", "observable_digest", "reference_configs"]


def observable_view(result: "SimulationResult") -> dict:
    """Canonical, order-preserving view of everything a run produced."""
    log = result.delivery
    arrival_time, hop_count = log.arrival_time.tolist(), log.hop_count.tolist()
    view: dict = {
        "observations": list(
            zip(
                arrival_time,
                log.previous_hop.tolist(),
                log.origin.tolist(),
                log.routing_seq.tolist(),
                hop_count,
            )
        ),
        "records": list(
            zip(
                log.flow_id.tolist(),
                log.packet_id.tolist(),
                log.created_at.tolist(),
                arrival_time,
                hop_count,
                log.preemptions.tolist(),
            )
        ),
        "node_stats": {
            node: (
                stats.admitted,
                stats.dropped,
                stats.preemptions,
                stats.peak_occupancy,
                stats.occupancy_time_integral,
                stats.observation_time,
                stats.lost_in_transit,
                stats.retransmissions,
            )
            for node, stats in sorted(result.node_stats.items())
        },
        "dropped": [
            (d.flow_id, d.packet_id, d.created_at, d.dropped_at, d.dropped_by)
            for d in result.dropped
        ],
        "transmissions": list(result.transmissions),
        "retransmissions": list(result.retransmissions),
        "lost_in_transit": result.lost_in_transit,
        "stranded_in_buffer": result.stranded_in_buffer,
        "duplicates_suppressed": result.duplicates_suppressed,
        "crash_blackholed": result.crash_blackholed,
        "arq_failed": result.arq_failed,
        "end_time": result.end_time,
        "events_processed": result.events_processed,
    }
    if result.telemetry is not None:
        view["telemetry"] = _telemetry_view(result.telemetry)
    return view


def _telemetry_view(telemetry: "RunTelemetry") -> dict:
    return {
        "metrics": telemetry.registry.snapshot(),
        "series": {
            series.name: (list(series.times), list(series.values))
            for series in telemetry.series
        },
    }


def observable_digest(result: "SimulationResult") -> str:
    """SHA-256 digest of :func:`observable_view`."""
    return stable_fingerprint(observable_view(result))


def reference_configs() -> dict[str, "SimulationConfig"]:
    """The pinned workload matrix for golden-digest testing.

    Small packet counts keep the whole matrix under a few seconds while
    still driving every code path: heavy RCAD preemption (interarrival
    2), light traffic, unlimited buffers, the tie-rich no-delay and
    constant-delay cases, drops, faults, ARQ, loss, and telemetry.
    """
    from dataclasses import replace

    from repro.core.delays import ConstantDelay
    from repro.core.planner import DelayPlan
    from repro.core.victim import NewestArrival, OldestArrival
    from repro.experiments.chaos import chaos_plan
    from repro.sim.config import BufferSpec, SimulationConfig

    configs: dict[str, SimulationConfig] = {}
    for case in ("no-delay", "unlimited", "rcad"):
        for interarrival in (2.0, 10.0):
            configs[f"fig2-{case}-ia{interarrival:g}"] = (
                SimulationConfig.paper_baseline(
                    interarrival=interarrival, case=case, n_packets=150
                )
            )
    configs["rcad-seed7"] = SimulationConfig.paper_baseline(
        interarrival=3.0, case="rcad", n_packets=150, seed=7
    )
    configs["poisson-rcad-telemetry"] = replace(
        SimulationConfig.paper_baseline(
            interarrival=3.0, case="rcad", n_packets=150, traffic="poisson"
        ),
        record_telemetry=True,
    )
    configs["poisson-unlimited"] = SimulationConfig.paper_baseline(
        interarrival=4.0, case="unlimited", n_packets=150, traffic="poisson"
    )
    configs["droptail"] = replace(
        SimulationConfig.paper_baseline(interarrival=2.0, case="rcad", n_packets=150),
        buffers=BufferSpec(kind="drop-tail", capacity=5),
    )
    configs["rcad-newest-victim"] = SimulationConfig.paper_baseline(
        interarrival=2.0, case="rcad", n_packets=120,
        victim_policy=NewestArrival(),
    )
    configs["rcad-oldest-victim"] = SimulationConfig.paper_baseline(
        interarrival=2.0, case="rcad", n_packets=120,
        victim_policy=OldestArrival(),
    )
    base = SimulationConfig.paper_baseline(
        interarrival=2.0, case="rcad", n_packets=120, buffer_capacity=4
    )
    configs["constant-delay"] = replace(
        base, delay_plan=DelayPlan(per_node={}, default=ConstantDelay(7.0))
    )
    configs["sealed"] = SimulationConfig.paper_baseline(
        interarrival=5.0, case="rcad", n_packets=80, seal_payloads=True
    )
    configs["lossy"] = replace(
        SimulationConfig.paper_baseline(interarrival=5.0, case="rcad", n_packets=120),
        link_loss_probability=0.2,
    )
    configs["recorded"] = replace(
        SimulationConfig.paper_baseline(interarrival=6.0, case="rcad", n_packets=100),
        record_transmissions=True,
        record_packet_traces=True,
    )
    chaos_base = SimulationConfig.paper_baseline(
        interarrival=4.0, case="rcad", n_packets=100
    )
    configs["chaos"] = chaos_base.with_faults(chaos_plan(0.8, chaos_base))
    configs["chaos-arq"] = chaos_base.with_faults(
        chaos_plan(0.5, chaos_base, arq=True)
    )
    return configs
