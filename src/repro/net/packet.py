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

:class:`PacketObservation` is the *only* view handed to adversary
implementations -- constructing it strips everything but the cleartext
header and the observed arrival time, enforcing the threat model by
construction rather than by convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.payload import SealedPayload

__all__ = ["RoutingHeader", "Packet", "PacketObservation"]


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
    decrypted payload, and adversaries never see it (they receive
    :class:`PacketObservation` instead).
    """

    header: RoutingHeader
    payload: SealedPayload
    flow_id: int
    created_at: float
    packet_id: int

    def observe(self, arrival_time: float) -> "PacketObservation":
        """The eavesdropper's view of this packet arriving at the sink."""
        return PacketObservation(
            arrival_time=arrival_time,
            previous_hop=self.header.previous_hop,
            origin=self.header.origin,
            routing_seq=self.header.routing_seq,
            hop_count=self.header.hop_count,
        )


@dataclass(frozen=True)
class PacketObservation:
    """What the adversary sees: arrival time and cleartext header only.

    There is deliberately no reference back to the :class:`Packet`, no
    payload, and no creation time.  The adversary identifies the flow
    by the cleartext origin id and reads the path length from the hop
    count, exactly the two pieces of network knowledge the paper grants
    (Section 2.1).
    """

    arrival_time: float
    previous_hop: int
    origin: int
    routing_seq: int
    hop_count: int
