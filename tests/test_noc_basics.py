"""Tests for NoC building blocks: packets, traffic, arbiters, stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.arbiter import (
    RoundRobinArbiter,
    WavefrontArbiter,
)
from repro.noc.packet import Packet, reset_packet_ids
from repro.noc.stats import LatencyStats, UtilizationTracker
from repro.noc.traffic import (
    PATTERNS,
    TracePlayback,
    TrafficGenerator,
    hotspot,
    make_pattern,
)
from tests.reference_arbiter import dense_allocate, is_maximal


class TestPacket:
    def test_flit_train_structure(self):
        p = Packet(src=0, dst=1, size_flits=4, create_cycle=0)
        flits = p.flits()
        assert len(flits) == 4
        assert flits[0].is_head and not flits[0].is_tail
        assert flits[-1].is_tail and not flits[-1].is_head
        assert all(not f.is_head and not f.is_tail for f in flits[1:-1])

    def test_single_flit_packet_is_head_and_tail(self):
        f, = Packet(src=0, dst=1, size_flits=1, create_cycle=0).flits()
        assert f.is_head and f.is_tail

    def test_rejects_zero_flits(self):
        with pytest.raises(ValueError):
            Packet(src=0, dst=1, size_flits=0, create_cycle=0)

    def test_rejects_self_traffic(self):
        with pytest.raises(ValueError):
            Packet(src=3, dst=3, size_flits=1, create_cycle=0)

    def test_ids_unique_and_resettable(self):
        reset_packet_ids()
        a = Packet(src=0, dst=1, size_flits=1, create_cycle=0)
        b = Packet(src=0, dst=1, size_flits=1, create_cycle=0)
        assert a.packet_id != b.packet_id
        reset_packet_ids()
        c = Packet(src=0, dst=1, size_flits=1, create_cycle=0)
        assert c.packet_id == a.packet_id


class TestPatterns:
    def test_bit_reversal_16_nodes(self):
        pat = make_pattern("bit_reversal", 16)
        rng = np.random.default_rng(0)
        assert pat(0b0001, rng) == 0b1000
        assert pat(0b1010, rng) == 0b0101
        assert pat(0, rng) == 0

    def test_shuffle_rotates_left(self):
        pat = make_pattern("shuffle", 16)
        rng = np.random.default_rng(0)
        assert pat(0b0001, rng) == 0b0010
        assert pat(0b1000, rng) == 0b0001

    def test_transpose_swaps_halves(self):
        pat = make_pattern("transpose", 16)
        rng = np.random.default_rng(0)
        assert pat(0b0111, rng) == 0b1101

    def test_bit_complement(self):
        pat = make_pattern("bit_complement", 16)
        rng = np.random.default_rng(0)
        assert pat(0, rng) == 15
        assert pat(5, rng) == 10

    def test_neighbor_wraps(self):
        pat = make_pattern("neighbor", 16)
        rng = np.random.default_rng(0)
        assert pat(15, rng) == 0

    def test_tornado_never_self(self):
        pat = make_pattern("tornado", 16)
        rng = np.random.default_rng(0)
        for s in range(16):
            assert pat(s, rng) != s

    def test_uniform_covers_all_destinations(self):
        pat = make_pattern("uniform", 8)
        rng = np.random.default_rng(1)
        seen = {pat(0, rng) for _ in range(500)}
        assert seen == set(range(1, 8))

    def test_bit_patterns_need_power_of_two(self):
        with pytest.raises(ValueError):
            make_pattern("bit_reversal", 12)

    @pytest.mark.parametrize("hot,fraction", [
        (16, 0.3), (20, 0.3), (-1, 0.3), (0, -0.1), (0, 1.5)])
    def test_hotspot_rejects_bad_arguments(self, hot, fraction):
        with pytest.raises(ValueError, match="hot node|fraction"):
            hotspot(16, hot=hot, fraction=fraction)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            make_pattern("zigzag", 16)

    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(sorted(PATTERNS)),
           seed=st.integers(min_value=0, max_value=10**6))
    def test_property_destinations_in_range(self, name, seed):
        pat = make_pattern(name, 16)
        rng = np.random.default_rng(seed)
        for src in range(16):
            assert 0 <= pat(src, rng) < 16


class TestTrafficGenerator:
    def test_zero_load_generates_nothing(self):
        tg = TrafficGenerator(8, "uniform", load=0.0)
        assert not any(tg.packets_for_cycle(c) for c in range(100))

    def test_load_controls_rate(self):
        tg = TrafficGenerator(16, "uniform", load=0.4, packet_size=4, seed=2)
        packets = sum(len(tg.packets_for_cycle(c)) for c in range(2000))
        expected = 16 * 2000 * 0.4 / 4
        assert packets == pytest.approx(expected, rel=0.1)

    def test_rejects_bad_load(self):
        with pytest.raises(ValueError):
            TrafficGenerator(8, "uniform", load=1.5)

    def test_rejects_bad_packet_size(self):
        with pytest.raises(ValueError):
            TrafficGenerator(8, "uniform", load=0.5, packet_size=0)

    @pytest.mark.parametrize("nodes", [1, 0])
    def test_rejects_fewer_than_two_nodes(self, nodes):
        with pytest.raises(ValueError, match="need >= 2 nodes"):
            TrafficGenerator(nodes, "uniform", 1.0, packet_size=1)

    def test_deterministic_with_seed(self):
        a = TrafficGenerator(8, "uniform", 0.3, seed=9)
        b = TrafficGenerator(8, "uniform", 0.3, seed=9)
        pa = [(p.src, p.dst) for c in range(50) for p in a.packets_for_cycle(c)]
        pb = [(p.src, p.dst) for c in range(50) for p in b.packets_for_cycle(c)]
        assert pa == pb


class TestTracePlayback:
    def test_events_delivered_in_order(self):
        tp = TracePlayback([(5, 0, 1, 2), (2, 3, 4, 1)])
        assert tp.packets_for_cycle(0) == []
        p2 = tp.packets_for_cycle(2)
        assert len(p2) == 1 and p2[0].src == 3
        p5 = tp.packets_for_cycle(5)
        assert len(p5) == 1 and p5[0].dst == 1
        assert tp.exhausted

    def test_self_traffic_skipped(self):
        tp = TracePlayback([(0, 2, 2, 1)])
        assert tp.packets_for_cycle(0) == []
        assert tp.exhausted


class TestRoundRobinArbiter:
    def test_single_requester_always_wins(self):
        arb = RoundRobinArbiter(4)
        assert arb.grant([False, True, False, False]) == 1

    def test_no_request_no_grant(self):
        assert RoundRobinArbiter(4).grant([False] * 4) is None

    def test_rotation_is_fair(self):
        arb = RoundRobinArbiter(3)
        grants = [arb.grant([True, True, True]) for _ in range(6)]
        assert grants == [0, 1, 2, 0, 1, 2]

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(3).grant([True])


class TestWavefrontArbiter:
    """The dense wavefront scan (``tests/reference_arbiter.py``) that
    ``allocate_sparse`` is pinned against grants a maximal matching."""

    def test_diagonal_requests_all_granted(self):
        arb = WavefrontArbiter(4)
        req = np.eye(4, dtype=bool)
        grants = dense_allocate(arb, req)
        assert sorted(grants) == [(i, i) for i in range(4)]

    def test_conflicting_requests_get_one_grant(self):
        arb = WavefrontArbiter(4)
        req = np.zeros((4, 4), dtype=bool)
        req[0, 2] = req[1, 2] = req[3, 2] = True
        grants = dense_allocate(arb, req)
        assert len(grants) == 1
        assert grants[0][1] == 2

    def test_grants_are_a_matching(self):
        arb = WavefrontArbiter(8)
        rng = np.random.default_rng(3)
        req = rng.random((8, 8)) < 0.4
        grants = dense_allocate(arb, req)
        rows = [i for i, _ in grants]
        cols = [j for _, j in grants]
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)
        for i, j in grants:
            assert req[i, j]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6),
           density=st.floats(min_value=0.05, max_value=0.95))
    def test_property_matching_is_maximal(self, seed, density):
        arb = WavefrontArbiter(6)
        req = np.random.default_rng(seed).random((6, 6)) < density
        grants = dense_allocate(arb, req)
        assert is_maximal(req, grants)

    def test_priority_rotates(self):
        arb = WavefrontArbiter(2)
        req = np.ones((2, 2), dtype=bool)
        first = sorted(dense_allocate(arb, req))
        second = sorted(dense_allocate(arb, req))
        assert first != second  # rotated diagonal flips the pairing

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            dense_allocate(WavefrontArbiter(4),
                           np.ones((3, 3), dtype=bool))


class TestLatencyStats:
    def test_warmup_excluded(self):
        stats = LatencyStats(warmup_cycles=100)
        stats.record(50, 60, 1)    # warmup, counted but not timed
        stats.record(150, 170, 1)  # measured
        assert stats.received == 2
        assert stats.histogram == {20: 1}

    def test_throughput(self):
        stats = LatencyStats()
        stats.record(0, 10, 4)
        stats.record(1, 12, 4)
        assert stats.throughput(nodes=4, measured_cycles=10) == \
            pytest.approx(8 / 40)

    def test_throughput_excludes_warmup_flits(self):
        # Regression: warmup packets are excluded from the latency sample
        # but their flits used to leak into throughput(), overstating the
        # rate for the measurement window.
        stats = LatencyStats(warmup_cycles=100)
        stats.record(10, 30, 4)    # warmup packet: 4 flits
        stats.record(150, 170, 4)  # measured packet: 4 flits
        assert stats.received_flits == 8
        assert stats.measured_flits == 4
        assert sum(stats.histogram.values()) == stats.measured == 1
        # Only the measured packet's flits count toward the rate.
        assert stats.throughput(nodes=4, measured_cycles=100) == \
            pytest.approx(4 / 400)

    def test_to_dict_roundtrips_counts(self):
        stats = LatencyStats(warmup_cycles=5)
        stats.record(0, 3, 2)   # warmup
        stats.record(10, 14, 2)
        snap = stats.to_dict()
        assert snap["received"] == 2
        assert snap["measured"] == 1
        assert snap["measured_flits"] == 2
        assert snap["avg_latency"] == pytest.approx(4.0)

    def test_empty_stats_safe(self):
        stats = LatencyStats()
        assert stats.average == 0.0
        assert stats.p99 == 0.0
        assert stats.maximum == 0


class TestUtilizationTracker:
    def test_interval_averaging(self):
        t = UtilizationTracker(num_links=4, interval_cycles=2)
        t.record_cycle(4)
        t.record_cycle(0)
        assert t.timeline == [0.5]

    def test_partial_interval_flushed_on_finish(self):
        t = UtilizationTracker(num_links=2, interval_cycles=10)
        t.record_cycle(1)
        t.finish()
        assert t.timeline == [0.5]

    def test_rejects_overcount(self):
        t = UtilizationTracker(num_links=2)
        with pytest.raises(ValueError):
            t.record_cycle(3)
