"""Hypothesis property tests on network invariants.

Every network must deliver every injected packet exactly once, never
violate credit flow, and leave no state behind after drain — regardless of
topology, pattern, load, or seed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.registry import TOPOLOGIES
from repro.noc.simulation import make_network
from repro.noc.traffic import TrafficGenerator


@settings(max_examples=20, deadline=None)
@given(topology=st.sampled_from(TOPOLOGIES.names()),
       pattern=st.sampled_from(["uniform", "bit_reversal", "shuffle",
                                "tornado", "neighbor"]),
       load=st.floats(min_value=0.02, max_value=0.35),
       packet_size=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=10**6))
def test_property_conservation(topology, pattern, load, packet_size, seed):
    net = make_network(topology, 16)
    traffic = TrafficGenerator(16, pattern, load,
                               packet_size=packet_size, seed=seed)
    net.run(traffic, cycles=400, drain=True, max_drain_cycles=30_000)
    assert net.latency.received == net.injected_packets
    assert net.quiescent()
    assert net.total_queued_flits() == 0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       blocked_half=st.booleans())
def test_property_flumen_blocking_never_loses_packets(seed, blocked_half):
    net = make_network("flumen", 16)
    if blocked_half:
        net.block_ports(set(range(8)))
    traffic = TrafficGenerator(16, "uniform", 0.2, seed=seed)
    net.run(traffic, cycles=300)
    net.unblock_ports(set(range(8)))
    budget = 30_000
    while not net.quiescent() and budget:
        net.step()
        budget -= 1
    assert net.latency.received == net.injected_packets


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       load=st.floats(min_value=0.05, max_value=0.6))
def test_property_latency_at_least_serialization(seed, load):
    # No packet can complete faster than its own flit count.
    net = make_network("flumen", 16)
    traffic = TrafficGenerator(16, "shuffle", load, packet_size=4,
                               seed=seed)
    net.run(traffic, cycles=300, drain=True)
    assert all(latency >= 4 for latency in net.latency.histogram)
