"""Tests for the OptBus and Flumen network models."""

import pytest

from repro.noc.flumen_net import FlumenNetwork
from repro.noc.optbus import OptBusNetwork
from repro.noc.packet import Packet
from repro.noc.traffic import TrafficGenerator


def run_drained(net, pattern, load, cycles=1500, seed=4):
    tg = TrafficGenerator(net.nodes, pattern, load, packet_size=4, seed=seed)
    net.run(tg, cycles=cycles, drain=True)
    return net


class TestOptBus:
    def test_all_packets_delivered(self):
        net = run_drained(OptBusNetwork(16), "uniform", 0.2)
        assert net.latency.received == net.injected_packets
        assert net.quiescent()

    def test_single_packet_latency(self):
        net = OptBusNetwork(16)
        net.offer_packet(Packet(src=0, dst=4, size_flits=4, create_cycle=0))
        for _ in range(100):
            net.step()
            if net.quiescent():
                break
        assert net.latency.received == 1
        # arbitration (4) + serialization (4) + propagation (2).
        assert net.latency.maximum == pytest.approx(10, abs=2)

    def test_shared_bus_serializes_same_destination(self):
        # Hot-receiver traffic contends; disjoint destinations don't.
        hot = OptBusNetwork(16)
        for src in (1, 2, 3, 4):
            hot.offer_packet(Packet(src=src, dst=0, size_flits=8,
                                    create_cycle=0))
        cold = OptBusNetwork(16)
        for src, dst in [(1, 5), (2, 6), (3, 7), (4, 8)]:
            cold.offer_packet(Packet(src=src, dst=dst, size_flits=8,
                                     create_cycle=0))
        for net in (hot, cold):
            for _ in range(400):
                net.step()
                if net.quiescent():
                    break
        assert hot.latency.maximum > cold.latency.maximum * 2

    def test_rejects_tiny_network(self):
        with pytest.raises(ValueError):
            OptBusNetwork(1)


class TestFlumen:
    def test_all_packets_delivered(self):
        net = run_drained(FlumenNetwork(16), "uniform", 0.3)
        assert net.latency.received == net.injected_packets
        assert net.quiescent()

    def test_reconfiguration_counted(self):
        net = run_drained(FlumenNetwork(16), "uniform", 0.2, cycles=500)
        assert net.reconfigurations == net.latency.received

    def test_single_packet_pays_setup(self):
        net = FlumenNetwork(16)
        net.offer_packet(Packet(src=0, dst=9, size_flits=4, create_cycle=0))
        for _ in range(100):
            net.step()
            if net.quiescent():
                break
        assert net.latency.received == 1
        # grant (1) + reconfig (3) + 4 flits + propagation (1).
        assert net.latency.maximum == pytest.approx(9, abs=2)

    def test_permutation_traffic_stays_flat(self):
        # Non-blocking crossbar: bit-reversal latency barely grows with load
        # (Figure 11, middle panel).
        low = run_drained(FlumenNetwork(16), "bit_reversal", 0.1).latency.average
        high = run_drained(FlumenNetwork(16), "bit_reversal", 0.6).latency.average
        assert high < low * 2

    def test_pipelined_setup_increases_throughput(self):
        # Back-to-back packets from one source: pipelined setup hides the
        # reconfiguration of the next circuit behind the current transfer.
        def total_time(pipelined):
            net = FlumenNetwork(16, pipelined_setup=pipelined)
            for i in range(10):
                net.offer_packet(Packet(src=0, dst=5 + (i % 2),
                                        size_flits=8, create_cycle=0))
            for _ in range(500):
                net.step()
                if net.quiescent():
                    break
            return net.cycle

        assert total_time(True) < total_time(False)

    def test_blocked_ports_hold_traffic(self):
        net = FlumenNetwork(16)
        net.block_ports({4, 5})
        net.offer_packet(Packet(src=4, dst=0, size_flits=2, create_cycle=0))
        net.offer_packet(Packet(src=0, dst=5, size_flits=2, create_cycle=0))
        net.offer_packet(Packet(src=1, dst=2, size_flits=2, create_cycle=0))
        for _ in range(50):
            net.step()
        assert net.latency.received == 1  # only 1->2 went through
        net.unblock_ports({4, 5})
        for _ in range(100):
            net.step()
            if net.quiescent():
                break
        assert net.latency.received == 3

    def test_ports_clear_reflects_circuits(self):
        net = FlumenNetwork(16)
        net.offer_packet(Packet(src=3, dst=8, size_flits=10, create_cycle=0))
        net.step()
        net.step()
        assert not net.ports_clear({3})
        assert not net.ports_clear({8})
        assert net.ports_clear({1, 2})
        for _ in range(100):
            net.step()
            if net.quiescent():
                break
        assert net.ports_clear({3, 8})

    def test_buffer_utilization_scan_depth(self):
        net = FlumenNetwork(16, request_buffer_capacity=4)
        net.block_ports(set(range(16)))  # freeze traffic
        for _ in range(4):
            net.offer_packet(Packet(src=0, dst=1, size_flits=1,
                                    create_cycle=0))
        # Global average dilutes the hot buffer; a shallow scan surfaces it.
        global_util = net.buffer_utilization(scan_depth=1.0)
        focused = net.buffer_utilization(scan_depth=0.0625)  # top-1 of 16
        assert focused == pytest.approx(1.0)
        assert global_util == pytest.approx(1 / 16)

    def test_buffer_utilization_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            FlumenNetwork(16).buffer_utilization(scan_depth=0.0)

    def test_overflow_preserves_packets(self):
        net = FlumenNetwork(16, request_buffer_capacity=2)
        net.block_ports(set(range(16)))
        for _ in range(10):
            net.offer_packet(Packet(src=0, dst=1, size_flits=1,
                                    create_cycle=0))
        assert net.buffer_occupancy(0) == 10
        net.unblock_ports(set(range(16)))
        for _ in range(300):
            net.step()
            if net.quiescent():
                break
        assert net.latency.received == 10
