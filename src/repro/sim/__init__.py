"""The event-driven sensor-network simulator (paper §5).

Assembles the substrates into the paper's evaluation platform: traffic
models create packets at source nodes; every node on the routing path
buffers each packet under the configured buffer discipline and delay
plan; links impose the constant per-hop transmission delay; the sink
decrypts payloads for ground truth while the adversary tap records only
cleartext observations, both as columns of one
:class:`~repro.sim.results.DeliveryLog`.

Typical use::

    from repro.sim import FlowSpec, SimulationConfig, SensorNetworkSimulator

    config = SimulationConfig.paper_baseline(interarrival=2.0)
    result = SensorNetworkSimulator(config).run()
    flow = result.delivery.take(result.flow_indices(flow_id=1))
    print(flow.created_at[:3], flow.arrival_time[:3])
"""

from repro.sim.config import BufferSpec, FlowSpec, SimulationConfig
from repro.sim.results import DroppedPacket, NodeStats, SimulationResult
from repro.sim.simulator import SensorNetworkSimulator

__all__ = [
    "FlowSpec",
    "BufferSpec",
    "SimulationConfig",
    "SensorNetworkSimulator",
    "SimulationResult",
    "NodeStats",
    "DroppedPacket",
]
