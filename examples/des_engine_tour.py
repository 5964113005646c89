#!/usr/bin/env python3
"""A tour of the discrete-event engine: an M/M/1 queue from scratch.

Everything in this repository runs on ``repro.des``, a small
deterministic DES engine.  Components schedule callbacks on it
(``sim.schedule_after(delay, callback, *args)``); the WSN simulator,
the link ARQ and the queueing validators all work this way, and so
does this demo.

The demo builds the textbook M/M/1 queue from two callbacks, an
arrival and a departure, and checks Little's law and the closed-form
mean waiting time ``W = 1 / (mu - lambda)`` against the simulation.

Usage::

    python examples/des_engine_tour.py [rho]
"""

import sys
from collections import deque

from repro.des import RngRegistry, Simulator


def run_mm1(arrival_rate: float, service_rate: float, horizon: float, seed: int):
    """Simulate M/M/1 with scheduled callbacks; return summary stats."""
    sim = Simulator()
    rng = RngRegistry(seed)
    arrivals_rng = rng.stream("arrivals")
    service_rng = rng.stream("service")

    # Arrival times of the customers in the system; the head is in service.
    in_system: deque[float] = deque()
    sojourns: list[float] = []
    # Track E[N] by integrating the sample path.
    tracker = {"last": 0.0, "integral": 0.0}

    def update_integral() -> None:
        now = sim.now
        tracker["integral"] += len(in_system) * (now - tracker["last"])
        tracker["last"] = now

    def start_service() -> None:
        sim.schedule_after(float(service_rng.exponential(1.0 / service_rate)), depart)

    def schedule_arrival() -> None:
        when = sim.now + float(arrivals_rng.exponential(1.0 / arrival_rate))
        if when < horizon:
            sim.schedule(when, arrive)

    def arrive() -> None:
        update_integral()
        in_system.append(sim.now)
        if len(in_system) == 1:
            start_service()
        schedule_arrival()

    def depart() -> None:
        update_integral()
        sojourns.append(sim.now - in_system.popleft())
        if in_system:
            start_service()

    schedule_arrival()
    sim.run()
    elapsed = tracker["last"]
    return {
        "completed": len(sojourns),
        "mean_sojourn": sum(sojourns) / len(sojourns) if sojourns else 0.0,
        "mean_in_system": tracker["integral"] / elapsed if elapsed else 0.0,
    }


def main() -> None:
    rho = float(sys.argv[1]) if len(sys.argv) > 1 else 0.7
    arrival_rate, service_rate = rho, 1.0
    stats = run_mm1(arrival_rate, service_rate, horizon=200_000.0, seed=13)
    w_theory = 1.0 / (service_rate - arrival_rate)
    n_theory = rho / (1.0 - rho)
    print(f"M/M/1 at rho = {rho:g} ({stats['completed']} customers served)\n")
    print(f"{'quantity':>22} {'simulated':>11} {'theory':>9}")
    print(f"{'mean sojourn W':>22} {stats['mean_sojourn']:>11.3f} "
          f"{w_theory:>9.3f}")
    print(f"{'mean in system N':>22} {stats['mean_in_system']:>11.3f} "
          f"{n_theory:>9.3f}")
    little = stats['mean_in_system'] / max(stats['mean_sojourn'], 1e-12)
    print(f"{'Little ratio N/W':>22} {little:>11.3f} {arrival_rate:>9.3f}")
    print(
        "\nReading: the same engine, RNG streams and determinism "
        "guarantees that drive the paper's evaluation also reproduce "
        "the M/M/1 closed forms -- the smallest end-to-end check that "
        "the substrate is trustworthy."
    )


if __name__ == "__main__":
    main()
