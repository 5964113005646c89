"""DES throughput benchmarking: event and packet rates, before/after.

The hot-path overhaul (the event engine + the vectorized fast
path of :mod:`repro.sim.fastpath`) is a performance change, and
performance claims need a reproducible harness.  This module defines

* the benchmark **workload matrix**: the paper's 4-flow Figure 2 cell
  plus two synthetic grid scale-ups (~10^2 and ~10^3 nodes) that stress
  deep routing trees and many concurrent buffers;
* :func:`measure` -- wall-clock one configuration under either engine
  ("event" = the discrete-event engine, forced via ``REPRO_FASTPATH=0``;
  "fast" = the batch replay), reporting events/sec and packets/sec;
* :func:`compare` -- the before/after A/B on one workload, asserting
  on the way that both engines account for exactly the same number of
  events (a cheap structural identity check on top of the golden
  digests).

``scripts/bench_des_throughput.py`` sweeps the matrix and commits the
numbers to ``benchmarks/results/BENCH_des_throughput.json``;
``scripts/ci_des_throughput_smoke.py`` re-measures a reduced workload
in CI and fails on >20% speedup regression against the committed file.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.core.planner import UniformPlanner
from repro.net.routing import greedy_grid_tree
from repro.net.topology import grid_deployment
from repro.sim.config import BufferSpec, FlowSpec, SimulationConfig
from repro.traffic.generators import PoissonTraffic

__all__ = [
    "Measurement",
    "benchmark_workloads",
    "paper_workload",
    "grid_workload",
    "measure",
    "compare",
]


@dataclass(frozen=True)
class Measurement:
    """One timed run of one configuration under one engine."""

    mode: str
    seconds: float
    events: int
    packets: int

    @property
    def events_per_sec(self) -> float:
        return self.events / self.seconds

    @property
    def packets_per_sec(self) -> float:
        return self.packets / self.seconds

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "seconds": round(self.seconds, 6),
            "events": self.events,
            "packets": self.packets,
            "events_per_sec": round(self.events_per_sec, 1),
            "packets_per_sec": round(self.packets_per_sec, 1),
        }


def paper_workload(n_packets: int = 1000) -> SimulationConfig:
    """The paper's highest-load Figure 2 cell: RCAD, interarrival 2."""
    return SimulationConfig.paper_baseline(
        interarrival=2.0, case="rcad", n_packets=n_packets
    )


def grid_workload(
    width: int,
    height: int,
    n_flows: int,
    n_packets: int,
    mean_delay: float = 30.0,
    interarrival: float = 4.0,
    buffer_capacity: int = 10,
) -> SimulationConfig:
    """An RCAD workload on a ``width x height`` grid.

    Sources are the ``n_flows`` highest-id nodes -- the far rows of the
    grid, giving the longest routing paths and the deepest buffer
    chains the topology offers.
    """
    deployment = grid_deployment(width, height)
    tree = greedy_grid_tree(deployment, width=width)
    sources = sorted(deployment.positions, reverse=True)[:n_flows]
    flows = [
        FlowSpec(
            flow_id=index + 1,
            source=source,
            traffic=PoissonTraffic(rate=1.0 / interarrival),
            n_packets=n_packets,
        )
        for index, source in enumerate(sources)
    ]
    delay_plan = UniformPlanner(mean_delay).plan(
        tree, {flow.source: flow.traffic.mean_rate() for flow in flows}
    )
    return SimulationConfig(
        deployment=deployment,
        tree=tree,
        flows=flows,
        delay_plan=delay_plan,
        buffers=BufferSpec(kind="rcad", capacity=buffer_capacity),
        transmission_delay=1.0,
        max_sim_time=100_000_000.0,
    )


def benchmark_workloads(scale: float = 1.0) -> dict[str, SimulationConfig]:
    """The committed benchmark matrix; ``scale`` shrinks packet counts
    for smoke runs (CI) without changing the workload shapes."""

    def n(base: int) -> int:
        return max(10, int(base * scale))

    return {
        "paper-fig2-rcad-ia2": paper_workload(n_packets=n(1000)),
        "grid-100": grid_workload(
            width=10, height=10, n_flows=8, n_packets=n(500)
        ),
        "grid-1000": grid_workload(
            width=25, height=40, n_flows=8, n_packets=n(500)
        ),
    }


def measure(
    config: SimulationConfig, mode: str, repeats: int = 1
) -> Measurement:
    """Best-of-``repeats`` wall-clock for one engine on one workload.

    ``mode`` is ``"event"`` (discrete-event engine, ``REPRO_FASTPATH``
    forced off) or ``"fast"`` (batch replay, forced on; ineligible
    configurations would silently fall back, so eligibility is
    asserted).  The environment variable is restored afterwards.
    """
    from repro.sim.fastpath import fastpath_eligible
    from repro.sim.simulator import SensorNetworkSimulator

    if mode not in ("event", "fast"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "fast" and not fastpath_eligible(config):
        raise ValueError("workload is not fast-path eligible")
    saved = os.environ.get("REPRO_FASTPATH")
    os.environ["REPRO_FASTPATH"] = "0" if mode == "event" else "1"
    try:
        best = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            result = SensorNetworkSimulator(config).run()
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best[0]:
                best = (elapsed, result)
    finally:
        if saved is None:
            del os.environ["REPRO_FASTPATH"]
        else:
            os.environ["REPRO_FASTPATH"] = saved
    elapsed, result = best
    packets = sum(flow.n_packets for flow in config.flows)
    return Measurement(
        mode=mode,
        seconds=elapsed,
        events=result.events_processed,
        packets=packets,
    )


def compare(config: SimulationConfig, repeats: int = 1) -> dict:
    """Before/after on one workload: event engine vs the fast path."""
    before = measure(config, "event", repeats=repeats)
    after = measure(config, "fast", repeats=repeats)
    if before.events != after.events:
        raise AssertionError(
            "engines disagree on event count: "
            f"event={before.events} fast={after.events}"
        )
    return {
        "nodes": len(config.deployment.positions),
        "flows": len(config.flows),
        "before": before.to_dict(),
        "after": after.to_dict(),
        "speedup": round(before.seconds / after.seconds, 2),
    }
