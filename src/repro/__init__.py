"""repro: Temporal Privacy in Wireless Sensor Networks (ICDCS 2007).

A full reproduction of Kamat, Xu, Trappe & Zhang's temporal-privacy
system: the information-theoretic privacy formulation, the queueing
analysis of privacy buffering, the RCAD (Rate-Controlled Adaptive
Delaying) mechanism, the baseline and adaptive adversaries, and the
event-driven simulation platform the paper evaluates on -- plus every
substrate (DES engine, sensor-grade crypto, network/routing models,
traffic generators) built from scratch.

Quick start::

    from repro.sim import SimulationConfig, SensorNetworkSimulator
    from repro.core import BaselineAdversary, FlowKnowledge, summarize_flow

    config = SimulationConfig.paper_baseline(interarrival=2.0, case="rcad")
    result = SensorNetworkSimulator(config).run()

    adversary = BaselineAdversary(FlowKnowledge(
        transmission_delay=1.0, mean_delay_per_hop=30.0,
        buffer_capacity=10, n_sources=4))
    flow = result.delivery.take(result.flow_indices(flow_id=1))
    estimates = adversary.estimate_all(flow)
    metrics = summarize_flow(flow, estimates)
    print(f"MSE = {metrics.mse:.0f}, mean latency = {metrics.latency.mean:.1f}")

Subpackages
-----------
``repro.core``
    RCAD, delay distributions, buffers, adversaries, metrics, planners.
``repro.sim``
    The event-driven WSN simulator of the paper's Section 5.
``repro.des`` / ``repro.net`` / ``repro.traffic`` / ``repro.crypto``
    The substrates: simulation engine, network model, workloads, crypto.
``repro.queueing`` / ``repro.infotheory``
    The analytic backbone: Sections 3 and 4 of the paper.
``repro.experiments`` / ``repro.analysis``
    Drivers regenerating every figure, and sweep/reporting plumbing.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
