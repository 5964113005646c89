"""Packets: cleartext routing headers plus sealed payloads.

The split between header and payload is the crux of the threat model
(paper, Section 2):

* the **routing header** travels in the clear, mirroring the TinyOS
  1.1.7 MultiHop header (``MultiHop.h``): previous-hop id, origin id,
  routing-layer sequence number and hop count.  The adversary reads all
  of it;
* the **payload** (sensor reading, application sequence number, and the
  creation timestamp) is encrypted and authenticated by
  :mod:`repro.crypto`; the adversary cannot open it.

At the sink the header fields land in a run's
:class:`~repro.sim.results.DeliveryLog` beside the arrival time and the
simulator's ground truth.  Adversaries read that log only through
:meth:`~repro.sim.results.DeliveryLog.observation_arrays`, which hands
over arrival times, hop counts and origins and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.payload import SealedPayload

__all__ = ["RoutingHeader", "Packet"]


@dataclass(frozen=True)
class RoutingHeader:
    """Cleartext multihop routing header (TinyOS MultiHop style).

    Attributes
    ----------
    previous_hop:
        Id of the node that last transmitted the packet.
    origin:
        Id of the node that generated the packet (used by the routing
        layer to tell generated from forwarded traffic).
    routing_seq:
        Routing-layer sequence number used for loop suppression.  It is
        not flow-specific, so -- as the paper notes -- it does not help
        the adversary estimate creation times.
    hop_count:
        Number of hops the packet has traversed so far.  The adversary
        reads the final value at the sink to learn the flow's path
        length h_i.
    """

    previous_hop: int
    origin: int
    routing_seq: int
    hop_count: int

    def forwarded(self, by_node: int) -> "RoutingHeader":
        """Header after one more hop, transmitted by ``by_node``."""
        return RoutingHeader(by_node, self.origin, self.routing_seq, self.hop_count + 1)


@dataclass
class Packet:
    """A sensor packet in flight.

    ``created_at`` duplicates the (encrypted) payload timestamp for the
    simulator's own bookkeeping; the sink cross-checks it against the
    decrypted payload, and adversaries never see it.
    """

    header: RoutingHeader
    payload: SealedPayload
    flow_id: int
    created_at: float
    packet_id: int
