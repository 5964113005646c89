"""Property-based invariants of the WSN simulator (hypothesis).

Randomized line-network configurations must always satisfy the
conservation and ordering laws the rest of the analysis rests on.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.planner import UniformPlanner
from repro.net.routing import shortest_path_tree
from repro.net.topology import line_deployment
from repro.sim.config import BufferSpec, FlowSpec, SimulationConfig
from repro.sim.simulator import SensorNetworkSimulator
from repro.traffic.generators import PeriodicTraffic, PoissonTraffic

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _simulate(hops, n_packets, interval, kind, capacity, mean_delay, seed,
              poisson=False):
    deployment = line_deployment(hops=hops)
    tree = shortest_path_tree(deployment)
    traffic = (
        PoissonTraffic(rate=1.0 / interval)
        if poisson
        else PeriodicTraffic(interval=interval)
    )
    flows = [FlowSpec(flow_id=1, source=0, traffic=traffic, n_packets=n_packets)]
    if kind == "no-delay":
        plan, buffers = None, BufferSpec(kind="infinite")
    else:
        plan = UniformPlanner(mean_delay).plan(tree, {0: 1.0 / interval})
        buffers = (
            BufferSpec(kind=kind, capacity=capacity)
            if kind in ("rcad", "drop-tail")
            else BufferSpec(kind="infinite")
        )
    config = SimulationConfig(
        deployment=deployment, tree=tree, flows=flows,
        delay_plan=plan, buffers=buffers, seed=seed,
    )
    return SensorNetworkSimulator(config).run()


@_SETTINGS
@given(
    hops=st.integers(min_value=1, max_value=8),
    n_packets=st.integers(min_value=1, max_value=60),
    interval=st.floats(min_value=0.5, max_value=20.0),
    capacity=st.integers(min_value=1, max_value=12),
    mean_delay=st.floats(min_value=1.0, max_value=60.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_rcad_conserves_packets(hops, n_packets, interval, capacity, mean_delay, seed):
    """RCAD never loses a packet, whatever the configuration."""
    result = _simulate(hops, n_packets, interval, "rcad", capacity, mean_delay, seed)
    assert result.delivered_count() == n_packets
    assert result.drop_count() == 0


@_SETTINGS
@given(
    hops=st.integers(min_value=1, max_value=8),
    n_packets=st.integers(min_value=1, max_value=60),
    interval=st.floats(min_value=0.5, max_value=10.0),
    capacity=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_droptail_conservation(hops, n_packets, interval, capacity, seed):
    """delivered + dropped == offered under drop-tail buffers."""
    result = _simulate(hops, n_packets, interval, "drop-tail", capacity, 30.0, seed)
    assert result.delivered_count() + result.drop_count() == n_packets


@_SETTINGS
@given(
    hops=st.integers(min_value=1, max_value=8),
    n_packets=st.integers(min_value=1, max_value=40),
    interval=st.floats(min_value=0.5, max_value=10.0),
    mean_delay=st.floats(min_value=1.0, max_value=60.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_latency_floor(hops, n_packets, interval, mean_delay, seed):
    """No packet beats the physical floor of hops * tau."""
    result = _simulate(
        hops, n_packets, interval, "infinite", None, mean_delay, seed, poisson=True
    )
    assert all(result.delivery.latency() >= hops - 1e-9)
    assert all(result.delivery.hop_count == hops)


@_SETTINGS
@given(
    hops=st.integers(min_value=1, max_value=6),
    n_packets=st.integers(min_value=2, max_value=40),
    interval=st.floats(min_value=0.5, max_value=10.0),
    capacity=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_observation_stream_sorted_and_aligned(
    hops, n_packets, interval, capacity, seed
):
    """The adversary's stream is arrival-ordered and aligned with
    ground truth."""
    result = _simulate(hops, n_packets, interval, "rcad", capacity, 30.0, seed)
    arrivals, _, _ = result.delivery.observation_arrays()
    assert arrivals.tolist() == sorted(arrivals.tolist())
    assert all(result.delivery.created_at <= arrivals)


@_SETTINGS
@given(
    hops=st.integers(min_value=1, max_value=6),
    n_packets=st.integers(min_value=1, max_value=40),
    interval=st.floats(min_value=0.5, max_value=10.0),
    capacity=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_same_seed_bitwise_reproducible(hops, n_packets, interval, capacity, seed):
    a = _simulate(hops, n_packets, interval, "rcad", capacity, 30.0, seed)
    b = _simulate(hops, n_packets, interval, "rcad", capacity, 30.0, seed)
    assert a.delivery.arrival_time.tolist() == b.delivery.arrival_time.tolist()
    assert a.delivery.packet_id.tolist() == b.delivery.packet_id.tolist()


@_SETTINGS
@given(
    hops=st.integers(min_value=2, max_value=6),
    n_packets=st.integers(min_value=5, max_value=40),
    interval=st.floats(min_value=0.5, max_value=4.0),
    capacity=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_preemption_shortens_never_lengthens(hops, n_packets, interval, capacity, seed):
    """RCAD latency never exceeds the same run with infinite buffers'
    *maximum possible* artificial delay plus transmissions -- and the
    preemption counter matches the buffer statistics."""
    result = _simulate(hops, n_packets, interval, "rcad", capacity, 30.0, seed)
    total_preemptions = sum(s.preemptions for s in result.node_stats.values())
    assert total_preemptions == result.total_preemptions()
    preempted_packets = int((result.delivery.preemptions > 0).sum())
    assert preempted_packets <= result.delivered_count()
