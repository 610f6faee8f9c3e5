"""Struct-of-arrays NoC backends vs. their per-object oracles.

Every registered topology's struct-of-arrays kernel must reproduce its
per-object oracle (``tests/reference_noc.py``) *bit for bit*: the same
deliveries in the same order (recorded here, per network, from
``SimKernel._deliver``), same arbitration outcomes, same counters, same
utilization timeline — across random traffic, idle/active transitions,
the idle fast-forward, and the production paths end to end.  All assertions are exact equality;
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
from repro.noc import kernel as kernel_module
from repro.noc.kernel import SimKernel
from repro.noc.registry import TOPOLOGIES
from repro.noc.simulation import make_network
from repro.noc import soa as soa_module
from repro.noc.soa import SoAFlumenNetwork, SoANetwork, SoAOptBusNetwork
from repro.noc.stats import UtilizationTracker
from repro.noc.topology import make_topology
from repro.noc.traffic import TracePlayback, TrafficGenerator
from repro.obs import Obs
from repro.obs.metrics import MetricsRegistry
from tests.reference_arbiter import dense_allocate
from tests.reference_noc import (
    ORACLES,
    OracleServeNetwork,
    make_oracle,
    oracle_topologies,
)

BACKENDS = list(TOPOLOGIES.names())

_kernel_deliver = SimKernel._deliver
_kernel_deliver_run = SimKernel._deliver_run


def _recording_deliver(self, packet, delivered_cycle, track, **trace_args):
    """``SimKernel._deliver`` that also logs each delivery on the network,
    in order, as ``(src, dst, create_cycle, delivered_cycle)``."""
    vars(self).setdefault("deliveries", []).append(
        (packet.src, packet.dst, packet.create_cycle, delivered_cycle))
    _kernel_deliver(self, packet, delivered_cycle, track, **trace_args)


def _recording_deliver_run(self, srcs, dsts, created, delivered, sizes):
    """``SimKernel._deliver_run`` logging as :func:`_recording_deliver`."""
    vars(self).setdefault("deliveries", []).extend(zip(
        srcs.tolist(), dsts.tolist(), created.tolist(), delivered.tolist()))
    _kernel_deliver_run(self, srcs, dsts, created, delivered, sizes)


@pytest.fixture(autouse=True, scope="module")
def _record_deliveries():
    # Patched on the class: the busy-period recorder wraps an instance's
    # ``_deliver`` and deletes its own wrapper afterwards.  A bulk run of
    # lone packets delivers them all through ``_deliver_run``.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SimKernel, "_deliver", _recording_deliver)
        patch.setattr(SimKernel, "_deliver_run", _recording_deliver_run)
        yield


def _summary(net) -> dict:
    return {
        "cycle": net.cycle,
        "injected": net.injected_packets,
        "received": net.latency.received,
        "deliveries": getattr(net, "deliveries", []),
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


@settings(max_examples=60, deadline=None)
@given(interval=st.integers(min_value=1, max_value=9),
       lead=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 5)),
                     max_size=4),
       segments=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 25)),
                         max_size=20))
def test_record_segments_equals_repeated_record_cycles(interval, lead,
                                                       segments):
    # Bulk runs hand the tracker arrays of (busy, cycles) segments; the
    # timeline and flush calls must match one record_cycles per segment,
    # from whatever partial interval earlier cycles left open.
    flushes = {"s": [], "k": []}
    trackers = {}
    for kind in flushes:
        tracker = UtilizationTracker(num_links=6, interval_cycles=interval)
        tracker.on_flush = (lambda i, f, kind=kind:
                            flushes[kind].append((i, f)))
        for busy, cycles in lead:
            tracker.record_cycles(busy, cycles)
        trackers[kind] = tracker
    for busy, cycles in segments:
        trackers["s"].record_cycles(busy, cycles)
    trackers["k"].record_segments(
        np.array([b for b, _ in segments], dtype=np.int64),
        np.array([c for _, c in segments], dtype=np.int64))
    stepped, bulk = trackers["s"], trackers["k"]
    assert bulk.timeline == stepped.timeline
    assert flushes["k"] == flushes["s"]
    assert (bulk._busy_in_interval, bulk._cycle_in_interval) == \
        (stepped._busy_in_interval, stepped._cycle_in_interval)
    stepped.finish()
    bulk.finish()
    assert bulk.to_dict() == stepped.to_dict()
    with pytest.raises(ValueError, match="busy links exceeds"):
        bulk.record_segments(np.array([7]), np.array([1]))


def test_trace_playback_next_event_cycle():
    trace = TracePlayback([(5, 0, 1, 2), (9, 2, 3, 1)])
    assert trace.next_event_cycle(0) == 5
    trace.packets_for_cycle(5)
    assert trace.next_event_cycle(5) == 9
    trace.packets_for_cycle(9)
    assert trace.next_event_cycle(9) is None


# -- solo-packet fast-forward ----------------------------------------------
#
# A packet offered alone to a quiescent network is stepped once per
# (src, dst, size) key while recorded, and every later lone packet with
# that key replays the recording — one by one, or as part of a bulk run
# of lone packets.  Each corpus below runs two SoA twins, one taking bulk
# runs from a single event up and one declining them, against the
# per-object oracle (which steps every cycle) and demands exact equality,
# arbiter state included.

ROUTED = ["mesh", "ring"]

#: Solo/period corpus variants: name -> (topology, network kwargs).  The
#: Flumen crossbar runs with both arbiters and both setup modes.
VARIANTS = {
    "mesh": ("mesh", {}),
    "ring": ("ring", {}),
    "optbus": ("optbus", {}),
    "flumen": ("flumen", {}),
    "flumen_sequential": ("flumen", {"arbitration": "sequential"}),
    "flumen_serial_setup": ("flumen", {"pipelined_setup": False}),
    "flumen_sequential_serial_setup": (
        "flumen", {"arbitration": "sequential", "pipelined_setup": False}),
}
SOA_VARIANTS = list(VARIANTS)
CROSSBARS = [v for v in SOA_VARIANTS if v not in ROUTED]


@pytest.fixture(autouse=True)
def _bulk_from_one_event(monkeypatch):
    # Production takes a bulk run from BULK_MIN_EVENTS lone packets on;
    # the corpora are short, so every run of one or more goes bulk here.
    monkeypatch.setattr(kernel_module, "BULK_MIN_EVENTS", 1)


def _arbiter_starts(net) -> list[int]:
    """Every arbiter's next scan start (router networks, in the oracle's
    terms) or rotation state (bus and crossbar), comparable across twins.

    The SoA twin sizes each router's arbiters for the widest router, so
    a narrower router stores an equivalent rotation index in a wider
    space; the first line each arbiter scans next compares exactly.
    """
    if hasattr(net, "arbitration"):
        rr = net._sequential_rr
        return [net._arbiter._priority, rr[0] if isinstance(rr, list) else rr]
    if hasattr(net, "_bus_last"):
        return list(net._bus_last)
    if hasattr(net, "_arbiters"):
        return [arbiter._last for arbiter in net._arbiters]
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


def _oracle_pair(variant, runs, max_drain_cycles=30_000):
    """Run the oracle and two SoA twins through ``runs``; return the twin
    that takes bulk runs.

    Each run is ``(events, cycles)``, drained, on the same networks;
    event cycles count from the cycle the run starts at.  The second twin
    declines every bulk run, so its lone packets replay one by one.
    """
    topology, kwargs = VARIANTS[variant]
    oracle = make_oracle(topology, 16, **kwargs)
    soa, stepwise = (make_network(topology, 16, **kwargs) for _ in "ab")
    stepwise._play_lone_run = lambda traffic, remaining: 0
    for net in (oracle, soa, stepwise):
        for events, cycles in runs:
            trace = [(net.cycle + t, *rest) for t, *rest in events]
            net.run(TracePlayback(trace), cycles=cycles, drain=True,
                    max_drain_cycles=max_drain_cycles)
    for twin in (soa, stepwise):
        assert _summary(twin) == _summary(oracle)
        assert getattr(twin, "ejected_flits", None) == \
            getattr(oracle, "ejected_flits", None)
        assert _arbiter_starts(twin) == _arbiter_starts(oracle)
    assert (soa.solo_cycles_jumped, soa.period_cycles_jumped) == \
        (stepwise.solo_cycles_jumped, stepwise.period_cycles_jumped)
    return soa


def _solo_pair(variant, events, cycles, max_drain_cycles=30_000):
    """Run oracle and SoA twins on one trace; return the bulk twin."""
    return _oracle_pair(variant, [(events, cycles)], max_drain_cycles)


def _replayed_cycles(events, deliveries, lag=0) -> int:
    """Cycles a solo replay covers: every repeat of a key, delivered alone.

    Valid for traces whose packets all travel alone, so ``deliveries``
    (a network's recorded log) follow the sorted trace: the first packet
    of each key is stepped (and recorded); each later one takes
    ``latency + 1 - lag`` cycles from offer to quiescence, ``lag`` being
    the propagation delay a bus or crossbar stamps after its last step.
    """
    seen: set[tuple[int, int, int]] = set()
    total = 0
    for (_, src, dst, size), (*_, created, delivered) in zip(sorted(events),
                                                           deliveries):
        if (src, dst, size) in seen:
            total += delivered - created + 1 - lag
        seen.add((src, dst, size))
    return total


_SOLO_KEYS = [(0, 15, 3), (5, 10, 1), (12, 3, 5), (0, 15, 3), (7, 6, 2)]


@pytest.mark.parametrize("topology", SOA_VARIANTS)
def test_solo_packets_replay_exactly(topology):
    events = [(i * 70, *_SOLO_KEYS[i % len(_SOLO_KEYS)]) for i in range(20)]
    soa = _solo_pair(topology, events, cycles=20 * 70)
    assert soa.solo_cycles_jumped == _replayed_cycles(
        events, soa.deliveries, getattr(soa, "propagation_delay", 0)) > 0


@pytest.mark.parametrize("topology", SOA_VARIANTS)
def test_solo_packet_finishing_in_drain_replays(topology):
    # The last lone packet is offered two cycles before the window ends;
    # its replay runs on into the drain phase.
    events = [(0, 2, 13, 4), (80, 2, 13, 4), (158, 2, 13, 4)]
    soa = _solo_pair(topology, events, cycles=160)
    assert soa.cycle > 160
    # Both repeats replay, the one finishing in the drain included.
    assert soa.solo_cycles_jumped == 2 * (soa.cycle - 158) == \
        _replayed_cycles(events, soa.deliveries,
                         getattr(soa, "propagation_delay", 0))


@pytest.mark.parametrize("topology", SOA_VARIANTS)
def test_solo_packet_past_drain_budget_is_stepped(topology):
    # The last lone packet needs more cycles than the window plus the
    # drain budget leave it, so it must not replay: it is stepped until
    # the budget runs out, undelivered, exactly as the oracle does.
    events = [(0, 2, 13, 4), (158, 2, 13, 4)]
    soa = _solo_pair(topology, events, cycles=160, max_drain_cycles=3)
    assert soa.solo_cycles_jumped == 0
    assert soa.latency.received == 1 and not soa.quiescent()
    assert soa.cycle == 163


@pytest.mark.parametrize("topology", SOA_VARIANTS)
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


@pytest.mark.parametrize("topology", SOA_VARIANTS)
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


@pytest.mark.parametrize("topology", SOA_VARIANTS)
def test_solo_replay_is_invisible_to_telemetry(topology, monkeypatch):
    # The oracle steps idle stretches the twin skips, so it samples at
    # other cycles; compare the twin with its own stepped run instead.
    # Lone packets, recorded and replayed, straddle 64-cycle sample
    # marks, and the last one runs into the drain phase, where the run
    # loop never samples.  The sampler keeps bulk runs off; Flumen, whose
    # reconfiguration counters move mid-period, steps every period.
    events = [(50 + i * 37, *_SOLO_KEYS[i % 3]) for i in range(28)]
    events += [(1111, *_SOLO_KEYS[0]), (1111, 6, 9, 2)]
    events.append((1200 - 3, *_SOLO_KEYS[0]))
    name, kwargs = VARIANTS[topology]

    def run() -> tuple[dict, list, list]:
        obs = Obs.telemetry(snapshot_interval=64)
        net = make_network(name, 16, obs=obs, **kwargs)
        net.run(TracePlayback(list(events)), cycles=1200, drain=True)
        return (_summary(net), _arbiter_starts(net), obs.sampler.series,
                obs.metrics.to_dict(), net.solo_cycles_jumped)

    *replayed, jumped = run()
    for cls in (SoANetwork, SoAFlumenNetwork, SoAOptBusNetwork):
        monkeypatch.setattr(cls, "_replays_periods", False)
    *stepped, none = run()
    assert replayed == stepped
    assert (jumped > 0) == (name != "flumen") and none == 0


@settings(max_examples=25, deadline=None)
@given(topology=st.sampled_from(SOA_VARIANTS),
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
    monkeypatch.setattr(kernel_module, "MEMO_OFFER_CAP", 5)
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
    monkeypatch.setattr(SoANetwork, "_replays_periods", False)
    *stepped, none = run()
    assert replayed == stepped
    assert jumped_here == jumped and none == 0


@settings(max_examples=25, deadline=None)
@given(topology=st.sampled_from(SOA_VARIANTS),
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


_TRAIN = ([(5 * k, 4, 5, 3) for k in range(10)]
          + [(5 * k + 2, 12, 3, 2) for k in range(10)])

#: The ring and mesh period corpora above, as ``(events, cycles)``.
_PERIOD_CORPORA = {
    "contended_pair": (_periods(_PAIR, range(5, 400, 60)), 400),
    "staggered": (_periods(_STAGGERED + [(1, 7, 7, 2)], range(0, 400, 80)),
                  420),
    "long_train": (_periods(_TRAIN, [0, 200, 400]), 600),
    "rotated_by_burst": (_periods(_PAIR, [5, 65, 125, 185])
                         + [(240, 6, 5, 2), (241, 7, 5, 1)]
                         + _periods(_PAIR, [305, 365]), 440),
    "crossing_window_end": (_periods(_PAIR, [5, 65, 125, 185, 245, 297]),
                            300),
    "cut_by_window_end": (_periods(_STAGGERED, [0, 80, 160, 240, 319]), 320),
}

#: (cycles jumped by multi-packet replays, recordings) per bus/crossbar
#: variant, in _PERIOD_CORPORA order.  The wavefront crossbar records a
#: contended period once per diagonal it starts on, so it replays less
#: than the sequential arbiter, whose pointer settles.
_CROSSBAR_JUMPS = {
    "optbus": [(85, 2), (81, 2), (142, 1), (51, 4), (68, 2), (54, 3)],
    "flumen": [(45, 4), (92, 1), (106, 1), (30, 5), (30, 4), (69, 2)],
    "flumen_sequential": [(75, 2), (69, 2), (106, 1), (45, 4), (60, 2),
                          (46, 3)],
    "flumen_serial_setup": [(45, 4), (92, 1), (61, 2), (30, 5), (30, 4),
                            (69, 2)],
    "flumen_sequential_serial_setup": [(75, 2), (69, 2), (122, 1), (45, 4),
                                       (60, 2), (46, 3)],
}


@pytest.mark.parametrize("corpus", list(_PERIOD_CORPORA))
@pytest.mark.parametrize("topology", CROSSBARS)
def test_period_corpora_replay_on_bus_and_crossbar(topology, corpus):
    # Each bus and crossbar variant carries its own arbiter state over a
    # period (the bus round-robin pointers, the sequential pointer, the
    # wavefront diagonal turning once per cycle) and must replay the
    # router corpora exactly as its oracle steps them.
    events, cycles = _PERIOD_CORPORA[corpus]
    soa = _solo_pair(topology, events, cycles)
    expected = _CROSSBAR_JUMPS[topology][list(_PERIOD_CORPORA).index(corpus)]
    assert (soa.period_cycles_jumped, _recordings(soa)) == expected


# -- bulk runs of lone packets ------------------------------------------------
#
# At a quiescent network the run loop plays the trace's next run of lone
# packets — each a recorded one-packet period with no decisive read,
# landing at or after the previous one's end, ending inside the window,
# with the next event landing at or after its end — in one numpy pass.

def _bulk_spy(monkeypatch) -> list[tuple[str, int, int]]:
    """Log ``(network, position, events)`` for every bulk run played."""
    runs: list[tuple[str, int, int]] = []
    play = kernel_module._LoneRuns.play

    def spy(self, net, pos, count):
        runs.append((net.name, pos, count))
        return play(self, net, pos, count)

    monkeypatch.setattr(kernel_module._LoneRuns, "play", spy)
    return runs


@pytest.mark.parametrize("n", [2, 5, 16])
def test_lone_request_reads_no_arbiter_state(n):
    # A lone packet meets no second candidate on any backend: one request
    # line wins whatever the round-robin pointer, and one crossbar pair
    # is granted whatever the wavefront diagonal.
    for last in range(n):
        for line in range(n):
            assert rr_sparse([line], last, n) == line
    arbiter = WavefrontArbiter(n)
    for priority in range(n):
        for i in range(n):
            for j in range(n):
                arbiter._priority = priority
                assert arbiter.allocate_sparse([(i, j)]) == [(i, j)]
                assert arbiter._priority == (priority + 1) % n


@pytest.mark.parametrize("topology", SOA_VARIANTS)
def test_lone_periods_record_no_reads(topology):
    # ...so every recorded one-packet period is read-free and enters the
    # bulk table, from whatever arbiter state it was recorded in.
    keys = [(s, d, z) for s in (0, 5, 12) for d in (3, 9, 15) for z in (1, 4)
            if s != d]
    events = [(i * 60, *keys[i % len(keys)]) for i in range(3 * len(keys))]
    soa = _solo_pair(topology, events, cycles=len(events) * 60)
    assert set(soa._lone) == set(keys)
    for key, recorded in soa._periods.items():
        assert len(key) == 1 and [p.reads for p in recorded] == [()]


def _lone_trace(count=60, gap=40):
    keys = [(0, 15, 3), (5, 10, 1), (12, 3, 5), (7, 6, 2)]
    return [(i * gap, *keys[i % len(keys)]) for i in range(count)]


@pytest.mark.parametrize("topology", SOA_VARIANTS)
def test_bulk_run_stops_at_shared_and_overlapping_offers(topology,
                                                         monkeypatch):
    # A run stops before an event that shares its cycle, and before one
    # whose period the next offer overlaps; both are played packet by
    # packet, and the run after them resumes in bulk.
    runs = _bulk_spy(monkeypatch)
    events = _lone_trace()
    shared, overlapped = 30, 41
    events.append((events[shared][0], 9, 14, 2))
    events.append((events[overlapped][0] + 1, 1, 2, 1))
    soa = _solo_pair(topology, events, cycles=60 * 40)
    played = {pos for _, start, count in runs
              for pos in range(start, start + count)}
    trace = sorted(events)
    blocked = {trace.index(events[shared]), trace.index(events[-2]),
               trace.index(events[overlapped])}
    assert not blocked & played
    assert any(start > max(blocked) for _, start, _ in runs)
    assert soa.latency.received == len(events)


@pytest.mark.parametrize("topology", SOA_VARIANTS)
def test_bulk_run_leaves_a_period_crossing_into_the_drain(topology,
                                                          monkeypatch):
    # The last lone packet lands two cycles before the window closes, so
    # its period ends in the drain: the run stops short of it and it
    # replays on its own.
    runs = _bulk_spy(monkeypatch)
    events = _lone_trace(count=20) + [(20 * 40 + 1, 0, 15, 3)]
    soa = _solo_pair(topology, events, cycles=20 * 40 + 3)
    assert runs and all(pos + count <= 20 for _, pos, count in runs)
    assert soa.cycle > 20 * 40 + 3 and soa.latency.received == 21


@pytest.mark.parametrize("topology", SOA_VARIANTS)
def test_bulk_run_opens_with_an_idle_gap(topology, monkeypatch):
    # A second run on the same network meets recorded keys at once: its
    # first bulk run starts at the run's first cycle, 37 idle cycles
    # before its first packet, and must account them as idle.
    runs = _bulk_spy(monkeypatch)
    later = [(37 + t, *rest) for t, *rest in _lone_trace(count=12)]
    soa = _oracle_pair(topology, [(_lone_trace(count=12), 12 * 40),
                                  (later, 13 * 40)])
    assert runs[-1][1] == 0 and soa.latency.received == 24


@pytest.mark.parametrize("topology", ["mesh", "flumen"])
def test_bulk_run_respects_warmup(topology, monkeypatch):
    # Packets created before the warmup boundary count as received but
    # stay out of the latency histogram and the measured totals.
    runs = _bulk_spy(monkeypatch)
    events = _lone_trace(count=60)
    nets = [make_oracle(topology, 16), make_network(topology, 16)]
    for net in nets:
        net.run(TracePlayback(list(events)), cycles=60 * 40,
                warmup=30 * 40 + 7, drain=True)
    oracle, soa = nets
    assert any(pos < 31 < pos + count for _, pos, count in runs)
    assert soa.latency.to_dict() == oracle.latency.to_dict()
    assert soa.latency.histogram == oracle.latency.histogram
    assert 0 < soa.latency.measured < soa.latency.received


def _play(topology, events, cycles, obs=None, **hooks):
    name, kwargs = VARIANTS[topology]
    net = make_network(name, 16, **kwargs, **({"obs": obs} if obs else {}))
    for hook, args in hooks.items():
        getattr(net, hook)(*args)
    net.run(TracePlayback(list(events)), cycles=cycles, drain=True)
    return net


@pytest.mark.parametrize("case", ["blocked_ports", "reroute", "tracer"])
def test_bulk_runs_decline(case, monkeypatch):
    # Scheduler state no recording keys on (a blocked port, a detour)
    # keeps Flumen from replaying at all; a tracer turns every
    # fast-forward off.
    runs = _bulk_spy(monkeypatch)
    events = _lone_trace()
    hooks = {"blocked_ports": {"block_ports": ({13},)},
             "reroute": {"reroute_pair": (0, 15, 2)}}.get(case, {})
    obs = Obs.active() if case == "tracer" else None
    topologies = ["flumen"] if hooks else SOA_VARIANTS
    for topology in topologies:
        name, kwargs = VARIANTS[topology]
        oracle = make_oracle(name, 16, **kwargs)
        for hook, args in hooks.items():
            getattr(oracle, hook)(*args)
        oracle.run(TracePlayback(list(events)), cycles=60 * 40, drain=True)
        net = _play(topology, events, 60 * 40, obs=obs, **hooks)
        assert _summary(net) == _summary(oracle)
        if hooks:
            assert net.solo_cycles_jumped == net.period_cycles_jumped == 0
    assert runs == []


@pytest.mark.parametrize("topology", SOA_VARIANTS)
def test_bulk_run_ticks_the_sampler_as_replay_does(topology, monkeypatch):
    # A snapshot sampler sees, at each 64-cycle mark inside a period, the
    # offers and deliveries made before it: bulk runs split their
    # counters at those marks, so the series equals per-packet replay's
    # and plain stepping's.  Flumen, whose reconfiguration counters move
    # mid-period, replays nothing under a sampler.
    runs = _bulk_spy(monkeypatch)
    keys = [(0, 15, 3), (5, 10, 1), (12, 3, 5), (7, 6, 2)]
    events = [(i * 29 + i % 5, *keys[i % 4]) for i in range(90)]
    name, kwargs = VARIANTS[topology]

    def run() -> tuple:
        obs = Obs.telemetry(snapshot_interval=64)
        net = make_network(name, 16, obs=obs, **kwargs)
        net.run(TracePlayback(list(events)), cycles=90 * 29, drain=True)
        return (_summary(net), _arbiter_starts(net), obs.sampler.series,
                obs.metrics.to_dict())

    bulk = run()
    assert bool(runs) == (name != "flumen")
    monkeypatch.setattr(SimKernel, "_play_lone_run",
                        lambda self, traffic, remaining: 0)
    stepwise = run()
    for cls in (SoANetwork, SoAFlumenNetwork, SoAOptBusNetwork):
        monkeypatch.setattr(cls, "_replays_periods", False)
    stepped = run()
    assert bulk == stepwise == stepped
    assert len(bulk[2]) > 5


def test_bulk_runs_take_every_backend_past_the_default_length(monkeypatch):
    # At the production threshold a long lone-packet trace still goes
    # bulk on every backend, and matches the oracle.
    monkeypatch.setattr(kernel_module, "BULK_MIN_EVENTS", 16)
    runs = _bulk_spy(monkeypatch)
    for topology in SOA_VARIANTS:
        _solo_pair(topology, _lone_trace(count=80), cycles=80 * 40)
    assert {name for name, _, _ in runs} == {"mesh", "ring", "optbus",
                                              "flumen"}
    assert all(count >= 16 for _, _, count in runs)


@pytest.mark.parametrize("topology", SOA_VARIANTS)
def test_bulk_runs_keep_metrics_exact(topology, monkeypatch):
    # With a live registry (no sampler), a bulk run's counters and
    # latency histogram equal per-packet replay's, and the oracle's.
    runs = _bulk_spy(monkeypatch)
    events = _lone_trace()
    name, kwargs = VARIANTS[topology]
    oracle_obs = Obs(metrics=MetricsRegistry())
    oracle = make_oracle(name, 16, obs=oracle_obs, **kwargs)
    oracle.run(TracePlayback(list(events)), cycles=60 * 40, drain=True)
    bulk_obs = Obs(metrics=MetricsRegistry())
    _play(topology, events, 60 * 40, obs=bulk_obs)
    assert runs
    monkeypatch.setattr(SimKernel, "_play_lone_run",
                        lambda self, traffic, remaining: 0)
    stepwise_obs = Obs(metrics=MetricsRegistry())
    _play(topology, events, 60 * 40, obs=stepwise_obs)
    snapshots = [obs.metrics.to_dict()
                 for obs in (oracle_obs, bulk_obs, stepwise_obs)]
    assert snapshots[1] == snapshots[2] == snapshots[0]


def _sweep_playbacks() -> list[tuple[str, np.ndarray, int]]:
    """``(topology, events, window)`` of every ``_simulate_nop`` trace
    playback in the small system_point grid (the tiny sweep)."""
    from repro.analysis.tasks import system_point
    from repro.core.system import SystemModel
    from repro.workloads import WORKLOAD_NAMES

    playbacks = []
    simulate = SystemModel._simulate_nop

    def capture(self, pipeline, counts, core_cycles):
        events, scale = self._traffic_events(counts, int(core_cycles))
        window = max(1, int(core_cycles) // scale)
        playbacks.append((pipeline.topology, events, window))
        return simulate(self, pipeline, counts, core_cycles)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SystemModel, "_simulate_nop", capture)
        for workload in WORKLOAD_NAMES:
            for configuration in ("ring", "mesh", "optbus", "flumen_i"):
                system_point({"workload": workload,
                              "configuration": configuration,
                              "shapes": "small"}, 17)
    return playbacks


def test_bulk_runs_equal_per_packet_replay_on_sweep_playbacks(monkeypatch):
    from repro.noc import packet as packet_module

    runs = _bulk_spy(monkeypatch)
    playbacks = _sweep_playbacks()
    assert len(playbacks) == 20
    runs.clear()

    def play(topology, events, window):
        packet_module.reset_packet_ids()
        net = make_network(topology, 16)
        trace = TracePlayback(events)
        net.run(trace, cycles=window, drain=True, max_drain_cycles=20_000)
        return (net.result("trace", 0.0).to_dict(), _arbiter_starts(net),
                net.solo_cycles_jumped, net.period_cycles_jumped,
                packet_module.Packet(0, 1, 1, 0).packet_id,
                trace._pos, trace.generated)

    bulk = [play(*playback) for playback in playbacks]
    assert len({name for name, _, _ in runs}) == 4
    monkeypatch.setattr(SimKernel, "_play_lone_run",
                        lambda self, traffic, remaining: 0)
    runs.clear()
    stepwise = [play(*playback) for playback in playbacks]
    assert runs == []
    assert bulk == stepwise


def _reference_traffic_events(nodes, packets, window):
    """The NoP trace as the per-packet loop built it (tuple list)."""
    from repro.core.system import MEMORY_CONTROLLERS

    events = []
    for i in range(packets):
        cycle = (i * window) // max(packets, 1)
        mc = MEMORY_CONTROLLERS[i % len(MEMORY_CONTROLLERS)]
        consumer = (i * 7) % nodes
        if consumer == mc:
            consumer = (consumer + 1) % nodes
        events.append((cycle, mc, consumer, 3))
    return events


def _reference_cosim_events(nodes, packets, window):
    """The co-simulation trace as the per-packet loop built it."""
    free = [n for n in range(nodes // 2, nodes)]
    events = []
    for i in range(packets):
        cycle = (i * window) // max(packets, 1)
        mc = free[0] if i % 2 else free[len(free) // 2]
        if i % 7 == 0:
            consumer = (i * 5) % (nodes // 2)
        else:
            consumer = free[(i * 3) % len(free)]
        if consumer == mc:
            consumer = free[-1]
        events.append((cycle, mc, consumer, 3))
    return events


def _columns(trace: TracePlayback) -> list[tuple[int, int, int, int]]:
    return list(zip(*(col.tolist() for col in (
        trace.cycles, trace.srcs, trace.dsts, trace.sizes))))


@pytest.mark.parametrize("shapes", ["small", "paper"])
def test_trace_columns_equal_the_tuple_lists(shapes, monkeypatch):
    # Both system traces are built with numpy; every sweep point's
    # columns, in play order, must equal sorted() of the tuple list the
    # per-packet loops built.
    from repro.analysis.tasks import system_point
    from repro.core.pipelines import configuration_names
    from repro.core.system import SystemModel
    from repro.workloads import WORKLOAD_NAMES

    checked = []
    traffic_events = SystemModel._traffic_events
    cosim_events = SystemModel._cosim_events

    def check_traffic(self, counts, spread_cycles, extra_packets=0):
        events, scale = traffic_events(self, counts, spread_cycles,
                                       extra_packets)
        packets = (counts.dram_accesses + extra_packets) // scale
        window = max(1, spread_cycles // scale)
        reference = _reference_traffic_events(self.nodes, packets, window)
        assert _columns(TracePlayback(events)) == sorted(reference)
        assert _columns(TracePlayback(reference)) == sorted(reference)
        checked.append("nop")
        return events, scale

    def check_cosim(self, packets, window, size):
        events = cosim_events(self, packets, window, size)
        reference = _reference_cosim_events(self.nodes, packets, window)
        assert _columns(TracePlayback(events)) == sorted(reference)
        checked.append("cosim")
        return events

    monkeypatch.setattr(SystemModel, "_traffic_events", check_traffic)
    monkeypatch.setattr(SystemModel, "_cosim_events", check_cosim)
    for workload in WORKLOAD_NAMES:
        for configuration in configuration_names():
            system_point({"workload": workload,
                          "configuration": configuration,
                          "shapes": shapes}, 0)
    assert checked.count("nop") == 20 and checked.count("cosim") == 5


def test_trace_playback_orders_ties_like_sorted():
    events = [(3, 2, 1, 4), (3, 1, 9, 2), (0, 5, 4, 1), (3, 1, 9, 1),
              (3, 1, 2, 7)]
    trace = TracePlayback(np.array(events))
    assert _columns(trace) == sorted(events)
    assert trace.upcoming(4) == sorted(events)
    assert [(p.src, p.dst, p.size_flits)
            for p in trace.packets_for_cycle(3)] == [
        (5, 4, 1), (1, 2, 7), (1, 9, 1), (1, 9, 2), (2, 1, 4)]
    assert trace.exhausted and trace.generated == 5


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
    from repro.serve.daemon import ServeConfig, ServeDaemon

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
