"""Unit tests for packets, headers and adversary observations."""

import numpy as np
import pytest

from repro.net.packet import Packet, RoutingHeader
from repro.sim.results import DeliveryLog


def _packet(**overrides):
    defaults = dict(
        header=RoutingHeader(previous_hop=5, origin=5, routing_seq=0, hop_count=0),
        payload=None,
        flow_id=1,
        created_at=12.5,
        packet_id=0,
    )
    defaults.update(overrides)
    return Packet(**defaults)


def _delivered(packet, arrival_time):
    """The sink's delivery-log row for ``packet`` arriving at ``arrival_time``."""
    header = packet.header
    return DeliveryLog(
        arrival_time=[arrival_time],
        created_at=[packet.created_at],
        flow_id=[packet.flow_id],
        packet_id=[packet.packet_id],
        routing_seq=[header.routing_seq],
        hop_count=[header.hop_count],
        previous_hop=[header.previous_hop],
        origin=[header.origin],
        preemptions=[0],
    )


class TestRoutingHeader:
    def test_forwarded_increments_hop_count(self):
        header = RoutingHeader(previous_hop=5, origin=5, routing_seq=3, hop_count=0)
        forwarded = header.forwarded(by_node=9)
        assert forwarded.hop_count == 1
        assert forwarded.previous_hop == 9

    def test_forwarded_preserves_origin_and_seq(self):
        header = RoutingHeader(previous_hop=5, origin=5, routing_seq=3, hop_count=0)
        forwarded = header.forwarded(by_node=9)
        assert forwarded.origin == 5
        assert forwarded.routing_seq == 3

    def test_forwarded_is_new_object(self):
        header = RoutingHeader(previous_hop=5, origin=5, routing_seq=3, hop_count=0)
        assert header.forwarded(by_node=9) is not header
        assert header.hop_count == 0  # original untouched

    def test_chained_forwarding(self):
        header = RoutingHeader(previous_hop=5, origin=5, routing_seq=0, hop_count=0)
        for node in (6, 7, 8):
            header = header.forwarded(by_node=node)
        assert header.hop_count == 3
        assert header.previous_hop == 8


class TestObservation:
    """What the adversary sees of a delivered packet:
    :meth:`DeliveryLog.observation_arrays`."""

    def test_observation_carries_cleartext_header(self):
        arrivals, hops, origins = _delivered(_packet(), 99.0).observation_arrays()
        assert arrivals.tolist() == [99.0]
        assert hops.tolist() == [0]
        assert origins.tolist() == [5]

    def test_observation_has_no_ground_truth_fields(self):
        """The threat-model firewall: no creation time, flow or packet id."""
        observed = _delivered(_packet(), 99.0).observation_arrays()
        other = _packet(created_at=3.0, flow_id=7, packet_id=9)
        assert len(observed) == 3
        for ours, theirs in zip(observed, _delivered(other, 99.0).observation_arrays()):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)

    def test_observation_is_frozen(self):
        """Nothing written through the view reaches the log."""
        log = _delivered(_packet(), 99.0)
        arrivals, hops, origins = log.observation_arrays()
        with pytest.raises(ValueError):
            arrivals[0] = 100.0
        hops[0], origins[0] = 99, 99
        assert log.hop_count.tolist() == [0]
        assert log.origin.tolist() == [5]
