#!/usr/bin/env python3
"""Habitat monitoring: hiding *when* the animal walked by.

The paper's motivating scenario (Section 2): a sensor network monitors
an animal habitat; packets report sightings to the sink.  A hunter who
can eavesdrop near the sink cannot read the encrypted payloads, but if
he can infer each packet's creation time he knows when the animal was
at the reporting sensor -- and, as it moves, where it is heading.

This example builds a random geometric deployment, drives it with
bursty on/off traffic (bursts = animal near the sensor), and compares
the hunter's timing picture with and without RCAD:

* per-packet creation-time MSE (the paper's metric), and
* the empirical mutual information between true creation times and
  the hunter's estimates -- the Section 3 leakage, measured end-to-end.

Usage::

    python examples/habitat_monitoring.py
"""

import numpy as np

from repro.core.adversary import BaselineAdversary, FlowKnowledge
from repro.core.metrics import summarize_flow
from repro.core.planner import UniformPlanner
from repro.infotheory.estimators import ksg_mutual_information
from repro.net.routing import shortest_path_tree
from repro.net.topology import random_geometric_deployment
from repro.sim.config import BufferSpec, FlowSpec, SimulationConfig
from repro.sim.simulator import SensorNetworkSimulator
from repro.traffic.generators import OnOffTraffic

MEAN_DELAY = 30.0
CAPACITY = 10
N_PACKETS = 400


def build_network(seed: int):
    """A 60-node habitat field with 3 animal-trail sensors."""
    rng = np.random.Generator(np.random.PCG64(seed))
    deployment = random_geometric_deployment(
        n_nodes=60, area_side=10.0, radio_range=2.2, rng=rng
    )
    tree = shortest_path_tree(deployment)
    # Sources: the three nodes deepest in the field (longest paths).
    depths = {n: tree.hop_count(n) for n in deployment.node_ids if n != deployment.sink}
    sources = sorted(depths, key=depths.get, reverse=True)[:3]
    return deployment, tree, sources


def run(case: str, seed: int = 7):
    deployment, tree, sources = build_network(seed)
    # Bursty sightings: ~3 reports per burst, quiet gaps of ~200 units.
    flows = [
        FlowSpec(
            flow_id=i + 1,
            source=source,
            traffic=OnOffTraffic(burst_rate=0.5, mean_on=6.0, mean_off=200.0),
            n_packets=N_PACKETS,
        )
        for i, source in enumerate(sources)
    ]
    rates = {f.source: f.traffic.mean_rate() for f in flows}
    if case == "undefended":
        plan, buffers = None, BufferSpec(kind="infinite")
    else:
        plan = UniformPlanner(MEAN_DELAY).plan(tree, rates)
        buffers = BufferSpec(kind="rcad", capacity=CAPACITY)
    config = SimulationConfig(
        deployment=deployment, tree=tree, flows=flows,
        delay_plan=plan, buffers=buffers, seed=seed,
    )
    result = SensorNetworkSimulator(config).run()
    hunter = BaselineAdversary(FlowKnowledge(
        transmission_delay=1.0,
        mean_delay_per_hop=0.0 if case == "undefended" else MEAN_DELAY,
        buffer_capacity=None if case == "undefended" else CAPACITY,
        n_sources=len(sources),
    ))
    return result, hunter


def main() -> None:
    print("habitat monitoring: can the hunter reconstruct sighting times?\n")
    print(f"{'network':>12} {'flow':>6} {'hops':>6} {'MSE':>12} "
          f"{'RMSE':>10} {'I(X;Xhat) nats':>15}")
    for case in ("undefended", "rcad"):
        result, hunter = run(case)
        estimates = hunter.estimate_all(result.delivery)
        for flow_id in result.flow_ids():
            indices = result.flow_indices(flow_id)
            flow_estimates = [estimates[i] for i in indices]
            records = result.delivery.take(indices)
            metrics = summarize_flow(records, flow_estimates)
            leakage = ksg_mutual_information(
                records.created_at, np.array(flow_estimates)
            )
            print(
                f"{case:>12} {flow_id:>6} {records.hop_count[0]:>6} "
                f"{metrics.mse:>12.1f} {metrics.rmse:>10.2f} {leakage:>15.2f}"
            )
    print(
        "\nReading: undefended, the hunter's RMSE is 0 -- every sighting "
        "is timestamped for him.  Under RCAD the RMSE jumps to tens of "
        "time units (several sensor duty cycles) despite the shorter "
        "7-8 hop paths.  Note the mutual information stays positive: "
        "arrival times always leak *something* (the Eq. (4) bound is "
        "nonzero); the defence controls how much."
    )


if __name__ == "__main__":
    main()
