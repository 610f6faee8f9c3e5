"""Struct-of-arrays NoC backends vs. their per-object oracles.

Every registered topology's struct-of-arrays kernel must reproduce its
per-object oracle (``tests/reference_noc.py``) *bit for bit*: same
delivered packets, same individual flit latencies, same arbitration
outcomes, same counters, same utilization timeline — across random
traffic, idle/active transitions, the idle fast-forward, and the
production paths end to end.  All assertions are exact equality;
any tolerance would hide an ordering bug.
"""

import hashlib
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.arbiter import RoundRobinArbiter, WavefrontArbiter, rr_sparse
from repro.noc.kernel import SimKernel
from repro.noc.registry import TOPOLOGIES
from repro.noc.simulation import make_network
from repro.noc import soa as soa_module
from repro.noc.soa import SoANetwork
from repro.noc.stats import UtilizationTracker
from repro.noc.topology import make_topology
from repro.noc.traffic import TracePlayback, TrafficGenerator
from repro.obs import Obs
from tests.reference_arbiter import dense_allocate
from tests.reference_noc import (
    ORACLES,
    OracleServeNetwork,
    make_oracle,
    oracle_topologies,
)

BACKENDS = list(TOPOLOGIES.names())


def _summary(net) -> dict:
    return {
        "cycle": net.cycle,
        "injected": net.injected_packets,
        "received": net.latency.received,
        "latencies": list(net.latency.latencies),
        "flit_hops": net.flit_hops,
        "link_traversals": net.link_traversals,
        "utilization": list(net.utilization.timeline),
        "queued": net.total_queued_flits(),
        "quiescent": net.quiescent(),
    }


def _run_pair(topology, traffic_fn, cycles, nodes=16, warmup=0, **kwargs):
    nets = [make_oracle(topology, nodes, **kwargs),
            make_network(topology, nodes, **kwargs)]
    for net in nets:
        net.run(traffic_fn(), cycles=cycles, warmup=warmup, drain=True,
                max_drain_cycles=30_000)
    return nets


def test_every_topology_has_an_oracle():
    # A new topology needs a per-object oracle to be pinned against.
    assert set(ORACLES) == set(BACKENDS)


def test_registry_builds_only_soa_kernels():
    for topology in BACKENDS:
        assert type(make_network(topology)).__module__ == soa_module.__name__


@settings(max_examples=20, deadline=None)
@given(topology=st.sampled_from(BACKENDS),
       pattern=st.sampled_from(["uniform", "bit_reversal", "shuffle",
                                "tornado", "neighbor"]),
       load=st.floats(min_value=0.02, max_value=0.5),
       packet_size=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=10**6))
def test_property_soa_matches_oracle(topology, pattern, load, packet_size,
                                     seed):
    def traffic():
        return TrafficGenerator(16, pattern, load,
                                packet_size=packet_size, seed=seed)

    oracle, soa = _run_pair(topology, traffic, cycles=300)
    assert _summary(soa) == _summary(oracle)


@settings(max_examples=12, deadline=None)
@given(topology=st.sampled_from(BACKENDS),
       gap=st.integers(min_value=5, max_value=1200),
       bursts=st.integers(min_value=1, max_value=5),
       seed=st.integers(min_value=0, max_value=10**6))
def test_property_idle_fast_forward_is_invisible(topology, gap, bursts,
                                                 seed):
    # Bursty traces exercise the quiescent fast-forward: the oracle steps
    # every cycle, the SoA twin skips dead stretches, and nothing —
    # including the interval-quantized utilization timeline and the
    # post-skip arbitration state — may differ.
    events = []
    for b in range(bursts):
        start = b * gap
        for i in range(10):
            src = (i * 5 + b + seed) % 16
            dst = (i * 11 + 3 * b + 7 + seed) % 16
            if src != dst:
                events.append((start + i // 4, src, dst, 3))
    cycles = bursts * gap + 50

    oracle, soa = _run_pair(topology, lambda: TracePlayback(list(events)),
                            cycles=cycles)
    assert _summary(soa) == _summary(oracle)


def _bursty_trace(nodes, bursts, gap):
    """Bursts of 40 three-flit packets, ``gap`` cycles apart."""
    events = []
    for b in range(bursts):
        for i in range(40):
            src = (i * 5 + b) % nodes
            dst = (i * 11 + 3 * b + 7) % nodes
            events.append((b * gap + i // 8, src, dst, 3))
    return events


@pytest.mark.parametrize("nodes, traffic_fn, cycles, warmup", [
    (64, lambda: TrafficGenerator(64, "uniform", 0.02, seed=5), 2500, 833),
    (16, lambda: TrafficGenerator(16, "uniform", 0.8, seed=5), 1200, 150),
    (16, lambda: TracePlayback(_bursty_trace(16, 24, 2500)), 60_000, 2500),
], ids=["mesh64_load002", "mesh16_load08", "mesh16_bursty"])
def test_perf_noc_shapes_match_oracle(nodes, traffic_fn, cycles, warmup):
    # The mesh traffic shapes ``repro perf`` times on the SoA kernel
    # alone (noc_idle_run, noc_step, noc_trace_replay): a sparse 64-node
    # mesh, a saturated 16-node one (1,200 of perf's 4,000 cycles), and
    # bursts with long quiescent gaps for the idle fast-forward.
    oracle, soa = _run_pair("mesh", traffic_fn, cycles, nodes=nodes,
                            warmup=warmup)
    assert _summary(soa) == _summary(oracle)
    assert soa.latency.to_dict() == oracle.latency.to_dict()
    assert soa.utilization.to_dict() == oracle.utilization.to_dict()


@settings(max_examples=8, deadline=None)
@given(reconfig=st.integers(min_value=1, max_value=6),
       arbitration=st.sampled_from(["wavefront", "sequential"]),
       pipelined=st.booleans(),
       seed=st.integers(min_value=0, max_value=10**6))
def test_property_flumen_variants_match(reconfig, arbitration, pipelined,
                                        seed):
    def traffic():
        return TrafficGenerator(16, "uniform", 0.3, seed=seed)

    oracle, soa = _run_pair(
        "flumen", traffic, cycles=300, reconfig_cycles=reconfig,
        arbitration=arbitration, pipelined_setup=pipelined)
    assert _summary(soa) == _summary(oracle)
    assert soa.arbiter_conflicts == oracle.arbiter_conflicts
    assert soa.reconfigurations == oracle.reconfigurations


def test_flumen_scheduler_hooks_match_after_blocking():
    observed = []
    for make in (make_oracle, make_network):
        net = make("flumen", 16)
        traffic = TrafficGenerator(16, "uniform", 0.3, seed=9)
        net.block_ports(set(range(8)))
        net.run(traffic, cycles=200)
        blocked = [net.buffer_occupancy(p) for p in range(8)]
        util = net.buffer_utilization(scan_depth=0.5)
        net.unblock_ports(set(range(8)))
        budget = 30_000
        while not net.quiescent() and budget:
            net.step()
            budget -= 1
        observed.append((blocked, util, _summary(net)))
    assert observed[0] == observed[1]


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=12),
       last=st.integers(min_value=0, max_value=11),
       lines=st.sets(st.integers(min_value=0, max_value=11), min_size=1),
       seed=st.integers(min_value=0, max_value=100))
def test_property_sparse_rr_matches_dense(n, last, lines, seed):
    lines = sorted(x for x in lines if x < n)
    if not lines:
        return
    last = last % n
    arbiter = RoundRobinArbiter(n)
    arbiter._last = last
    dense = arbiter.grant([x in lines for x in range(n)])
    assert rr_sparse(lines, last, n) == dense


def test_sparse_rr_matches_dense_at_every_count_to_64():
    # 9-64 lines: past the old long-form cutoff of 8.
    rng = np.random.default_rng(9)
    n = 64
    dense = RoundRobinArbiter(n)
    for count in range(1, n + 1):
        lines = sorted(int(x) for x in rng.choice(n, count, replace=False))
        for last in rng.integers(n, size=4):
            dense._last = int(last)
            assert rr_sparse(lines, int(last), n) == \
                dense.grant([x in lines for x in range(n)])


def test_sparse_wavefront_matches_dense_at_every_count_to_64():
    # 17-64 pairs: past the old long-form cutoff of 16.
    rng = np.random.default_rng(17)
    dense, sparse = WavefrontArbiter(8), WavefrontArbiter(8)
    for count in range(0, 65):
        cells = rng.choice(64, count, replace=False)
        pairs = [(int(c) // 8, int(c) % 8) for c in cells]
        requests = np.zeros((8, 8), dtype=bool)
        for i, j in pairs:
            requests[i, j] = True
        assert sparse.allocate_sparse(pairs) == \
            dense_allocate(dense, requests)


def test_wavefront_rotate_matches_repeated_empty_allocates():
    a, b = WavefrontArbiter(7), WavefrontArbiter(7)
    for _ in range(5):
        dense_allocate(a, np.zeros((7, 7), dtype=bool))
    b.rotate(5)
    requests = [(i, (i * 3) % 7) for i in range(7)]
    assert a.allocate_sparse(list(requests)) == \
        b.allocate_sparse(list(requests))


def test_record_idle_cycles_equals_repeated_zero_cycles():
    flushes = []
    stepped = UtilizationTracker(num_links=10, interval_cycles=7)
    stepped.on_flush = lambda i, f: flushes.append(("s", i, f))
    skipped = UtilizationTracker(num_links=10, interval_cycles=7)
    skipped.on_flush = lambda i, f: flushes.append(("k", i, f))

    stepped.record_cycle(3)
    skipped.record_cycle(3)
    for _ in range(25):
        stepped.record_cycle(0)
    skipped.record_idle_cycles(25)
    stepped.record_cycle(5)
    skipped.record_cycle(5)
    assert stepped.timeline == skipped.timeline
    assert [f for f in flushes if f[0] == "s"] == \
        [("s",) + f[1:] for f in flushes if f[0] == "k"]


def test_trace_playback_next_event_cycle():
    trace = TracePlayback([(5, 0, 1, 2), (9, 2, 3, 1)])
    assert trace.next_event_cycle(0) == 5
    trace.packets_for_cycle(5)
    assert trace.next_event_cycle(5) == 9
    trace.packets_for_cycle(9)
    assert trace.next_event_cycle(9) is None


# -- solo-packet fast-forward ----------------------------------------------
#
# A packet offered alone to a quiescent ring or mesh is stepped once per
# (src, dst, size) key while recorded, and every later lone packet with
# that key replays the recording.  Each corpus below runs the SoA twin
# (which takes the solo path) against the per-object oracle (which steps
# every cycle) and demands exact equality, arbiter state included.

ROUTED = ["mesh", "ring"]


def _arbiter_starts(net) -> list[int]:
    """Every router arbiter's next scan start, in the oracle's terms.

    The SoA twin sizes each router's arbiters for the widest router, so
    a narrower router stores an equivalent rotation index in a wider
    space; the first line each arbiter scans next compares exactly.
    """
    starts: list[int] = []
    if hasattr(net, "routers"):
        for router in net.routers:
            arbiters = [arb for row in router._vc_arbiters for arb in row]
            arbiters += router._sw_input + router._sw_output
            starts += [(arb._last + 1) % arb.n for arb in arbiters]
        return starts
    P, V = net._P, net._V

    def start(last: int, width: int, lines: int) -> int:
        first = (last + 1) % width
        return first if first < lines else 0

    for r in range(net.topology.num_routers):
        ports = range(net.topology.num_ports(r))
        lines = len(ports) * V
        starts += [start(net.vc_last[(r * P + op) * V + ov], P * V, lines)
                   for op in ports for ov in range(V)]
        starts += [start(net.sw_in_last[r * P + p], V, V) for p in ports]
        starts += [start(net.sw_out_last[r * P + op], P * V, lines)
                   for op in ports]
    return starts


def _oracle_pair(topology, runs, max_drain_cycles=30_000):
    """Run oracle and SoA twin through ``runs``; return the SoA twin.

    Each run is ``(events, cycles)``, drained, on the same two networks;
    event cycles count from the cycle the run starts at.
    """
    nets = [make_oracle(topology, 16), make_network(topology, 16)]
    for net in nets:
        for events, cycles in runs:
            trace = [(net.cycle + t, *rest) for t, *rest in events]
            net.run(TracePlayback(trace), cycles=cycles, drain=True,
                    max_drain_cycles=max_drain_cycles)
    oracle, soa = nets
    assert _summary(soa) == _summary(oracle)
    assert soa.ejected_flits == oracle.ejected_flits
    assert _arbiter_starts(soa) == _arbiter_starts(oracle)
    return soa


def _solo_pair(topology, events, cycles, max_drain_cycles=30_000):
    """Run oracle and SoA twin on one trace; return the SoA twin."""
    return _oracle_pair(topology, [(events, cycles)], max_drain_cycles)


def _replayed_cycles(events, latencies) -> int:
    """Cycles a solo replay covers: every repeat of a key, delivered alone.

    Valid for traces whose packets all travel alone: the first packet of
    each key is stepped (and recorded); each later one takes
    ``latency + 1`` cycles from offer to delivery.
    """
    seen: set[tuple[int, int, int]] = set()
    total = 0
    for (_, src, dst, size), latency in zip(sorted(events), latencies):
        if (src, dst, size) in seen:
            total += latency + 1
        seen.add((src, dst, size))
    return total


_SOLO_KEYS = [(0, 15, 3), (5, 10, 1), (12, 3, 5), (0, 15, 3), (7, 6, 2)]


@pytest.mark.parametrize("topology", ROUTED)
def test_solo_packets_replay_exactly(topology):
    events = [(i * 70, *_SOLO_KEYS[i % len(_SOLO_KEYS)]) for i in range(20)]
    soa = _solo_pair(topology, events, cycles=20 * 70)
    assert soa.solo_cycles_jumped == _replayed_cycles(
        events, soa.latency.latencies) > 0


@pytest.mark.parametrize("topology", ROUTED)
def test_solo_packet_finishing_in_drain_replays(topology):
    # The last lone packet is offered two cycles before the window ends;
    # its replay runs on into the drain phase.
    events = [(0, 2, 13, 4), (80, 2, 13, 4), (158, 2, 13, 4)]
    soa = _solo_pair(topology, events, cycles=160)
    assert soa.cycle > 160
    # Both repeats replay, the one finishing in the drain included.
    assert soa.solo_cycles_jumped == 2 * (soa.cycle - 158) == \
        _replayed_cycles(events, soa.latency.latencies)


@pytest.mark.parametrize("topology", ROUTED)
def test_solo_packet_past_drain_budget_is_stepped(topology):
    # The last lone packet needs more cycles than the window plus the
    # drain budget leave it, so it must not replay: it is stepped until
    # the budget runs out, undelivered, exactly as the oracle does.
    events = [(0, 2, 13, 4), (158, 2, 13, 4)]
    soa = _solo_pair(topology, events, cycles=160, max_drain_cycles=3)
    assert soa.solo_cycles_jumped == 0
    assert soa.latency.received == 1 and not soa.quiescent()
    assert soa.cycle == 163


@pytest.mark.parametrize("topology", ROUTED)
@pytest.mark.parametrize("events", [
    # contention: two packets offered in the same cycle, every time
    [(i * 60 + 5, 1, 14, 3) for i in range(6)]
    + [(i * 60 + 5, 9, 14, 3) for i in range(6)],
    # injection mid-flight: a lone packet is recorded, then every repeat
    # of its key has the next packet arriving before it is delivered
    [(0, 3, 12, 4)] + [(100 + i * 40 + d, 3, 12, 4)
                       for i in range(5) for d in (0, 2)],
    # multi-packet bursts from one source and from many
    [(i * 50, 4, dst, 2) for i in range(5) for dst in (0, 9, 15)]
    + [(300 + i * 50, src, 8, 1) for i in range(5) for src in (1, 2, 3)],
], ids=["contention", "mid_flight", "bursts"])
def test_solo_path_stays_off_for_shared_traffic(topology, events):
    soa = _solo_pair(topology, events, cycles=700)
    assert soa.solo_cycles_jumped == 0
    assert soa.latency.received == len(events)


_LONE = (0, 15, 3)
_BURST = [(1, 15, 3), (4, 15, 3), (0, 11, 2), (5, 15, 1), (3, 14, 2)]


@pytest.mark.parametrize("topology", ROUTED)
@pytest.mark.parametrize("prelude", [
    [],
    # The lone key also travels in an opening burst beside a packet
    # that never meets it, so its recording later rewrites arbiter
    # slots with the values already there.  Only a record of written
    # slots (not a before/after diff) keeps those writes.
    [(0, *_LONE), (0, 10, 9, 2)],
], ids=["fresh", "rewrites_same_values"])
def test_solo_replay_after_burst_rewrites_arbiter_slots(topology, prelude):
    # Lone (0 -> 15), then a burst through the same routers and output
    # ports that leaves their arbiters rotated elsewhere, then lone
    # (0 -> 15) again: the replay must restore every slot the recorded
    # crossing writes, whatever the burst left there.
    events = list(prelude) + [(50, *_LONE)]
    for k in range(3):
        start = 150 + k * 200
        events += [(start, *packet) for packet in _BURST]
        events.append((start + 100, *_LONE))
    soa = _solo_pair(topology, events, cycles=800)
    assert soa.solo_cycles_jumped > 0


@pytest.mark.parametrize("topology", ROUTED)
def test_solo_replay_is_invisible_to_telemetry(topology, monkeypatch):
    # The oracle steps idle stretches the twin skips, so it samples at
    # other cycles; compare the twin with its own stepped run instead.
    # Lone packets, recorded and replayed, straddle 64-cycle sample
    # marks, and the last one runs into the drain phase, where the run
    # loop never samples.
    events = [(50 + i * 37, *_SOLO_KEYS[i % 3]) for i in range(28)]
    events += [(1111, *_SOLO_KEYS[0]), (1111, 6, 9, 2)]
    events.append((1200 - 3, *_SOLO_KEYS[0]))

    def run() -> tuple[dict, list, list]:
        obs = Obs.telemetry(snapshot_interval=64)
        net = make_network(topology, 16, obs=obs)
        net.run(TracePlayback(list(events)), cycles=1200, drain=True)
        return (_summary(net), _arbiter_starts(net), obs.sampler.series,
                obs.metrics.to_dict(), net.solo_cycles_jumped)

    *replayed, jumped = run()
    monkeypatch.setattr(SoANetwork, "_forward_period",
                        SimKernel._forward_period)
    *stepped, none = run()
    assert replayed == stepped
    assert jumped > 0 and none == 0


@settings(max_examples=15, deadline=None)
@given(topology=st.sampled_from(ROUTED),
       episodes=st.lists(
           st.tuples(st.integers(min_value=0, max_value=90),
                     st.lists(st.integers(min_value=0, max_value=5),
                              min_size=1, max_size=4)),
           min_size=2, max_size=25),
       tail=st.integers(min_value=1, max_value=40))
def test_property_solo_interleavings_match_oracle(topology, episodes, tail):
    # Lone packets and bursts drawn from a small key pool, at gaps from
    # back-to-back to idle, so recorded keys recur around bursts that
    # disturb their arbiter slots, mid-flight arrivals, and the drain.
    pool = [(0, 15, 3), (15, 0, 2), (5, 10, 1), (9, 6, 4), (1, 15, 3),
            (12, 3, 2)]
    events, cycle = [], 0
    for gap, picks in episodes:
        cycle += gap
        events += [(cycle, *pool[p]) for p in picks]
    _solo_pair(topology, events, cycles=cycle + tail)


# -- busy-period replay -------------------------------------------------------
#
# A busy period runs from the offers that wake a quiescent ring or mesh
# back to quiescence.  It replays when its offers recur and every
# arbiter slot it read with two or more candidates competing holds the
# value it read then; otherwise it is stepped and recorded again.  Each
# corpus compares the SoA twin with the per-object oracle exactly and
# pins the cycles that multi-packet replays jumped.  Nodes 4 and 6 sit
# either side of node 5 on both topologies, so their packets to 5 reach
# its ejection port in the same cycle and contend for it.

_PAIR = [(0, 4, 5, 4), (0, 6, 5, 4)]
_STAGGERED = [(0, 4, 5, 3), (0, 6, 5, 3), (1, 1, 5, 2), (2, 9, 5, 2)]


def _periods(template, starts):
    return [(start + t, *rest) for start in starts for t, *rest in template]


def _recordings(soa) -> int:
    return sum(len(recorded) for recorded in soa._periods.values())


def test_trace_playback_upcoming():
    trace = TracePlayback([(5, 0, 1, 2), (6, 3, 3, 1), (7, 2, 3, 1),
                           (9, 4, 5, 2)])
    assert trace.upcoming(5) == []
    assert trace.upcoming(9) == [(5, 0, 1, 2), (7, 2, 3, 1)]
    assert trace.upcoming(9) == [(5, 0, 1, 2), (7, 2, 3, 1)]
    trace.packets_for_cycle(5)
    assert trace.upcoming(100) == [(7, 2, 3, 1), (9, 4, 5, 2)]
    trace.packets_for_cycle(7)
    assert [(p.src, p.dst) for p in trace.packets_for_cycle(9)] == [(4, 5)]
    assert trace.upcoming(100) == []


@pytest.mark.parametrize("topology, jumped", [("mesh", 4 * 11),
                                              ("ring", 5 * 11)])
def test_period_recurring_contended_pair_replays(topology, jumped):
    # Seven pairs.  The mesh's ejection arbiters alternate between two
    # states, so it records three periods (fresh, then one per state)
    # before replaying; the ring settles after its fresh recording.
    soa = _solo_pair(topology, _periods(_PAIR, range(5, 400, 60)), 400)
    assert soa.period_cycles_jumped == jumped
    assert soa.solo_cycles_jumped == 0
    assert _recordings(soa) == 7 - jumped // 11


@pytest.mark.parametrize("topology, jumped", [("mesh", 3 * 13),
                                              ("ring", 3 * 17)])
def test_period_recurring_staggered_bursts_replay(topology, jumped):
    # Four sources, two of them joining the period after it starts; a
    # self-addressed event inside the period is dropped by the trace and
    # must be skipped by the lookahead too.
    template = _STAGGERED + [(1, 7, 7, 2)]
    soa = _solo_pair(topology, _periods(template, range(0, 400, 80)), 420)
    assert soa.period_cycles_jumped == jumped
    assert soa.latency.received == 4 * 5


@pytest.mark.parametrize("topology, steps", [("mesh", 67), ("ring", 70)])
def test_period_long_train_replays_every_delivery(topology, steps):
    # Twenty packets from two sources, offered every five cycles, keep
    # the network busy for one long period in which the first packets
    # are delivered (and may be freed) before the last are offered; the
    # replay must still deliver each packet it recorded, in order.
    train = [(5 * k, 4, 5, 3) for k in range(10)]
    train += [(5 * k + 2, 12, 3, 2) for k in range(10)]
    soa = _solo_pair(topology, _periods(train, [0, 200, 400]), 600)
    assert soa.period_cycles_jumped == 2 * steps


@pytest.mark.parametrize("topology, jumped, recorded", [
    ("mesh", 1 * 11, 5), ("ring", 3 * 11, 3)])
def test_period_reads_rotated_by_a_burst_record_again(topology, jumped,
                                                      recorded):
    # Between recurrences of the pair, packets from nodes 6 and 7 eject
    # at node 5 and rotate the ejection arbiter the pair reads; the next
    # pair must record again (it would eject in the other order), not
    # replay a recording made from the old rotation.  The ring replays
    # that new recording once; the mesh's alternating arbiters reach a
    # state of their own after the burst and record once more.
    events = _periods(_PAIR, [5, 65, 125, 185])
    events += [(240, 6, 5, 2), (241, 7, 5, 1)]
    events += _periods(_PAIR, [305, 365])
    soa = _solo_pair(topology, events, 440)
    assert soa.period_cycles_jumped == jumped
    assert len(soa._periods[((4, 5, 4), (6, 5, 4))]) == recorded


@pytest.mark.parametrize("topology, jumped", [("mesh", 3 * 11),
                                              ("ring", 4 * 11)])
def test_period_crossing_window_end_replays_into_drain(topology, jumped):
    # The last pair starts three cycles before the window closes and
    # replays on through the drain phase.
    soa = _solo_pair(topology, _periods(_PAIR, [5, 65, 125, 185, 245, 297]),
                     300)
    assert soa.cycle == 297 + 11
    assert soa.period_cycles_jumped == jumped


@pytest.mark.parametrize("topology, steps", [("mesh", 13), ("ring", 17)])
def test_period_cut_by_window_end_records_what_was_offered(topology, steps):
    # The window closes one cycle into the last burst: its late joiners
    # are never offered (the oracle leaves them in the trace), so it may
    # neither replay the full recording nor record them.  Two full
    # recordings (fresh, then settled) replay twice; the cut burst is a
    # third recording, of its first cycle's offers alone.
    starts = [0, 80, 160, 240, 319]
    soa = _solo_pair(topology, _periods(_STAGGERED, starts), 320)
    assert soa.injected_packets == 4 * 4 + 2
    *full, cut = soa._periods[((4, 5, 3), (6, 5, 3))]
    assert [p.later for p in full] == 2 * [[(1, 1, 5, 2), (2, 9, 5, 2)]]
    assert cut.later == []
    assert soa.period_cycles_jumped == 2 * steps


@pytest.mark.parametrize("topology, steps", [("mesh", 10), ("ring", 19)])
def test_period_recorded_in_a_closing_window_meets_a_wider_one(topology,
                                                               steps):
    # Two packets that never meet, so the period reads no arbiter slot.
    # The first run's window closes before the second packet, so its
    # recording holds only the first.  The second run meets the whole
    # period: it must record it afresh, then replay that twice.
    train = [(0, 4, 5, 3), (2, 9, 14, 2)]
    soa = _oracle_pair(topology, [(_periods(train, [8]), 10),
                                  (_periods(train, [10, 90, 170]), 260)])
    first, whole = soa._periods[((4, 5, 3),)]
    assert first.later == [] and whole.later == [(2, 9, 14, 2)]
    assert soa.period_cycles_jumped == 2 * whole.steps == 2 * steps


@pytest.mark.parametrize("topology", ROUTED)
def test_period_memo_stops_growing_at_its_cap(topology, monkeypatch):
    # With room for five offers, two recordings of the pair fill four;
    # neither a third pair (two more) nor the staggered burst (four) fits,
    # so every later period that does not replay is stepped, unrecorded.
    monkeypatch.setattr(soa_module, "MEMO_OFFER_CAP", 5)
    events = _periods(_PAIR, range(5, 600, 120))
    events += _periods(_STAGGERED, range(60, 600, 120))
    soa = _solo_pair(topology, events, 640)
    assert soa._memo_offers == 4
    assert list(soa._periods) == [((4, 5, 4), (6, 5, 4))]
    assert len(soa._periods[((4, 5, 4), (6, 5, 4))]) == 2
    assert soa.period_cycles_jumped == 3 * 11


@pytest.mark.parametrize("topology, jumped", [("mesh", 15 * 11 + 5 * 13),
                                              ("ring", 17 * 11 + 4 * 17)])
def test_period_replay_is_invisible_to_telemetry(topology, jumped,
                                                 monkeypatch):
    # Pairs and bursts straddle 64-cycle sample marks, with offers and
    # deliveries on both sides of a mark; the last pair runs on into the
    # drain, where the run loop never samples.
    events = _periods(_PAIR, range(59, 1200, 64))
    events += _periods(_STAGGERED, range(88, 1200, 192))
    events += _periods(_PAIR, [1200 - 3])

    def run() -> tuple:
        obs = Obs.telemetry(snapshot_interval=64)
        net = make_network(topology, 16, obs=obs)
        net.run(TracePlayback(list(events)), cycles=1200, drain=True)
        return (_summary(net), _arbiter_starts(net), obs.sampler.series,
                obs.metrics.to_dict(), net.period_cycles_jumped)

    *replayed, jumped_here = run()
    monkeypatch.setattr(SoANetwork, "_forward_period",
                        SimKernel._forward_period)
    *stepped, none = run()
    assert replayed == stepped
    assert jumped_here == jumped and none == 0


@settings(max_examples=15, deadline=None)
@given(topology=st.sampled_from(ROUTED),
       episodes=st.lists(
           st.tuples(st.integers(min_value=0, max_value=60),
                     st.integers(min_value=0, max_value=3)),
           min_size=2, max_size=25),
       tail=st.integers(min_value=1, max_value=30))
def test_property_period_interleavings_match_oracle(topology, episodes,
                                                    tail):
    # Recurring multi-packet periods — contended, staggered, and a lone
    # rotator of their arbiter slots — at gaps from overlapping to idle,
    # so recordings recur from rotated arbiter state, merge into longer
    # periods, and run into the drain.
    templates = [_PAIR, _STAGGERED, [(0, 6, 5, 2)],
                 [(0, 1, 5, 2), (3, 9, 5, 3), (3, 6, 5, 1)]]
    events, cycle = [], 0
    for gap, pick in episodes:
        cycle += gap
        events += _periods(templates[pick], [cycle])
    _solo_pair(topology, events, cycles=cycle + tail)


# -- construction-time validation and drain reporting ----------------------

@pytest.mark.parametrize("soa", [False, True])
@pytest.mark.parametrize("field, value", [
    ("num_vcs", 0), ("buffer_depth", 0), ("router_pipeline_cycles", -1)])
def test_router_geometry_rejected_at_construction(soa, field, value):
    with pytest.raises(ValueError, match=f"{field} must be >= "):
        (make_network if soa else make_oracle)("mesh", 16, **{field: value})


def test_zero_utilization_interval_rejected():
    with pytest.raises(ValueError, match="interval_cycles must be >= 1"):
        UtilizationTracker(num_links=4, interval_cycles=0)


@pytest.mark.parametrize("topology", BACKENDS)
def test_exhausted_drain_is_flagged(topology, caplog):
    traffic = TracePlayback([(0, 1, 14, 6), (0, 2, 14, 6), (1, 3, 14, 6)])
    net = make_network(topology, 16)
    with caplog.at_level(logging.WARNING, logger="repro.noc"):
        net.run(traffic, cycles=2, drain=True, max_drain_cycles=2)
    assert not net.quiescent()
    [record] = caplog.records
    assert record.name == "repro.noc"
    message = record.getMessage()
    assert message.startswith(f"{net.name}: drain budget of 2 cycles")
    assert f"with {net.total_queued_flits()} flits" in message


def test_completed_drain_is_silent(caplog):
    net = make_network("ring", 16)
    with caplog.at_level(logging.WARNING, logger="repro.noc"):
        net.run(TracePlayback([(0, 1, 14, 6)]), cycles=2, drain=True)
    assert net.quiescent() and not caplog.records


# -- adaptive routing -----------------------------------------------------

def test_soa_router_network_rejects_per_flit_routing():
    # west-first routing draws a route per head flit; a fixed route
    # table would silently take one draw per (router, dst) instead.
    with pytest.raises(ValueError, match="mesh_wf"):
        SoANetwork(make_topology("mesh_wf", 16))


def test_noc_latency_mesh_wf_stays_on_the_per_object_network():
    from repro.analysis.engine import canonical_json
    from repro.analysis.tasks import noc_latency

    out = noc_latency({"topology": "mesh_wf", "pattern": "transpose",
                       "load": 0.35, "cycles": 1500, "warmup": 500}, 3)
    assert out["avg_latency"] == 37.07520325203252
    assert hashlib.sha256(canonical_json(out).encode()).hexdigest() == \
        "872284cee1eba851e09c866ec5c9600d584b26f07ac30b567211fb0d68e99887"


# -- end-to-end oracle comparisons ----------------------------------------
#
# Production paths build every network through ``TOPOLOGIES``; these run
# them once as shipped and once with the per-object oracles swapped in,
# and demand identical output.

def test_end_to_end_sweep_matches_the_oracles():
    from repro.analysis.tasks import system_point
    from repro.core.pipelines import CONFIGURATIONS
    from repro.workloads import WORKLOAD_NAMES

    def grid():
        return [system_point({"workload": wl, "configuration": cfg,
                              "shapes": "small"}, 17)
                for wl in WORKLOAD_NAMES for cfg in CONFIGURATIONS.names()]

    records = grid()
    with oracle_topologies():
        assert type(make_network("ring")).__name__ == "Network"
        oracle_records = grid()
    assert records == oracle_records


def test_end_to_end_serve_matches_the_oracle(monkeypatch):
    import repro.serve.daemon as daemon_module
    from repro.serve import ServeConfig, ServeDaemon

    config = ServeConfig(rate=0.08, arrival="bursty", duration=1024,
                         seed=7, fault="dead_link")

    def artifacts(network_class) -> str:
        daemon = ServeDaemon(config)
        assert type(daemon.net) is network_class
        report = daemon.run()
        return json.dumps({"report": report,
                           "events": list(daemon.obs.events.events),
                           "snapshots": list(daemon.obs.sampler.series)},
                          sort_keys=True)

    served = artifacts(daemon_module._ServeNetwork)
    # The ladder walks up to REROUTE, which programs a detour.
    assert json.loads(served)["report"]["ladder"]["recovered_rungs"] == \
        ["REROUTE"]
    monkeypatch.setattr(daemon_module, "_ServeNetwork", OracleServeNetwork)
    assert served == artifacts(OracleServeNetwork)


def test_end_to_end_fault_campaign_matches_the_oracle():
    from repro.analysis.engine import canonical_json
    from repro.faults.campaign import CampaignSpec, run_fault_campaign

    spec = CampaignSpec(fault="dead_link", runs=1, cycles=600,
                        golden_reference=False)
    campaign = run_fault_campaign(spec)
    assert campaign["runs"][0]["ladder"]["recovered_rungs"] == ["REROUTE"]
    report = canonical_json(campaign)
    with oracle_topologies():
        assert canonical_json(run_fault_campaign(spec)) == report
