"""Hand-built delivery logs for adversary tests.

Adversaries read a :class:`~repro.sim.results.DeliveryLog` through its
tap columns only, so a test stream needs nothing but arrival times, hop
counts and origins.  :func:`tap_log` fills the ground-truth columns
with placeholders that keep the log valid: each packet is created when
it arrives.
"""

from __future__ import annotations

import numpy as np

from repro.sim.results import DeliveryLog


def tap_log(arrivals, hops=15, origins=103) -> DeliveryLog:
    """A delivery log of ``arrivals`` (in the given order) at the sink.

    ``hops`` and ``origins`` are one value for every packet or one per
    packet.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    n = arrivals.size
    return DeliveryLog(
        arrival_time=arrivals,
        created_at=arrivals,
        flow_id=np.ones(n, dtype=np.int64),
        packet_id=np.arange(n),
        routing_seq=np.zeros(n, dtype=np.int64),
        hop_count=np.broadcast_to(hops, n),
        previous_hop=np.ones(n, dtype=np.int64),
        origin=np.broadcast_to(origins, n),
        preemptions=np.zeros(n, dtype=np.int64),
    )
