"""Algorithm 1's one-pass partitioner against the per-request reference.

:meth:`FlumenScheduler._partitioner` evaluates the whole compute backlog
in one pass (free-port map built once, placements found once per size
between grants, β memoised per placement).  These tests drive it and
:class:`~tests.reference_partitioner.ReferenceScheduler` (the rescan it
replaced) from identical seeded states and require exact equality of
everything a pass can touch: grants, stats, buffer order, the event
log, the tracer and the whole metrics registry.  Further tests count
the work one pass does (β evaluations, first-fit scans, event-log
appends), so a regression to per-request rescans or per-request
emission fails here rather than only showing up as wall time.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.core.scheduler as scheduler_module
from repro.config import SchedulerConfig, SystemConfig
from repro.core.accelerator import plan_offload
from repro.core.control_unit import ComputeRequest, MZIMControlUnit
from repro.core.scheduler import ActiveComputation, FlumenScheduler
from repro.faults.ladder import DegradationLadder
from repro.noc.simulation import make_network
from repro.noc.packet import Packet
from repro.obs import Obs
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, CycleTracer
from repro.photonics.fabric import FlumenFabric

from tests.reference_partitioner import ReferenceScheduler

PORTS = 8
NODES = 16
PLAN = plan_offload(8, 8, 8, 8, 8)


def _random_ranges(rng: np.random.Generator) -> list[tuple[int, int]]:
    """Disjoint even-sized port ranges for pre-existing partitions."""
    ranges = []
    lo = int(rng.integers(0, 3))
    while lo < PORTS - 1 and rng.random() < 0.6:
        size = 2 * int(rng.integers(1, 3))
        if lo + size > PORTS:
            break
        ranges.append((lo, lo + size))
        lo += size + int(rng.integers(0, 3))
    return ranges


def _build(cls: type[FlumenScheduler], seed: int,
           traced: bool) -> FlumenScheduler:
    """A scheduler of class ``cls`` in the state ``seed`` draws.

    Both classes see the same sequence of draws, so two calls with the
    same seed and ``traced`` build identical, independent stacks.
    """
    rng = np.random.default_rng(seed)
    cfg = SchedulerConfig(tau_cycles=int(rng.choice([1, 7, 32])),
                          eta=float(rng.choice([0.05, 0.25, 0.4, 0.7])),
                          zeta=float(rng.choice([0.25, 0.5, 1.0])))
    system = SystemConfig().replace(scheduler=cfg)
    obs = Obs.active() if traced else Obs.telemetry()
    net = make_network("flumen", NODES, obs=obs)
    # Buffer occupancies from empty to overflowing, so some placements
    # clear eta and others defer on beta.  Packet ids are explicit: the
    # default factory is a process-global counter.
    packet_ids = iter(range(10 ** 6))
    for src in range(NODES):
        for _ in range(int(rng.integers(0, net.request_buffer_capacity + 4))):
            dst = int(rng.integers(0, NODES - 1))
            net.offer_packet(Packet(src=src, dst=dst + (dst >= src),
                                    size_flits=int(rng.integers(1, 4)),
                                    create_cycle=0,
                                    packet_id=next(packet_ids)))
    control = MZIMControlUnit(net, system, obs=obs)
    ladder = None
    if rng.random() < 0.5:
        ladder = DegradationLadder(PORTS, obs=obs)
        ladder.partition_ports_cap = int(rng.choice([2, 4, 6, 8]))
        for port in rng.choice(PORTS, size=int(rng.integers(0, 3)),
                               replace=False):
            ladder.mark_dead_port(int(port))
    fabric = FlumenFabric(PORTS, obs=obs) if rng.random() < 0.3 else None
    scheduler = cls(control, system, obs=obs, fabric=fabric, ladder=ladder)
    scheduler.cycle = int(rng.integers(0, 4)) * cfg.tau_cycles
    for lo, hi in _random_ranges(rng):
        request = ComputeRequest(node=lo, plan=PLAN, matrix_key="held",
                                 submit_cycle=0, ports_needed=hi - lo,
                                 duration_override=int(rng.integers(5, 40)),
                                 tenant="held", request_id=10_000 + lo)
        comp = ActiveComputation(request=request, lo_port=lo, hi_port=hi,
                                 total_cycles=request.duration_override,
                                 remaining_cycles=request.duration_override,
                                 started=bool(rng.random() < 0.5))
        net.block_ports(control.port_range_endpoints(lo, hi))
        if fabric is not None:
            comp.fabric_partition = fabric.split(lo, hi)
        scheduler.active.append(comp)
    for request_id in range(int(rng.integers(0, 80))):
        control.compute_buffer.append(ComputeRequest(
            node=int(rng.integers(0, NODES)), plan=PLAN, matrix_key="k",
            submit_cycle=int(rng.integers(0, scheduler.cycle + 1)),
            ports_needed=int(rng.choice([2, 4, 6, 8])),
            duration_override=(None if rng.random() < 0.2
                               else int(rng.integers(3, 60))),
            tenant=f"tenant{int(rng.integers(0, 4))}",
            request_id=request_id))
    return scheduler


def _state(scheduler: FlumenScheduler) -> dict:
    """Everything a partitioner pass can change, in comparable form."""
    obs = scheduler.obs
    beta = obs.metrics.histogram("core.beta")
    fabric = scheduler.fabric
    return {
        "grants": [(c.request.request_id, c.lo_port, c.hi_port,
                    c.total_cycles, c.remaining_cycles, c.grant_cycle,
                    c.started) for c in scheduler.active],
        "stats": dataclasses.asdict(scheduler.stats),
        "buffer": [r.request_id for r in scheduler.control.compute_buffer],
        "events": list(obs.events.events),
        "dropped": obs.events.dropped,
        "tracer": list(obs.tracer.events),
        "beta": (list(beta.bucket_counts), beta.count, beta.total),
        "deferrals": obs.metrics.counter("core.partition_deferrals").value,
        "metrics": obs.metrics.to_dict(),
        "blocked": sorted(scheduler.control.network.blocked_ports),
        "fabric": (None if fabric is None else
                   [(p.lo, p.hi, p.kind.name) for p in fabric.partitions]),
        "completions": dict(scheduler.completions),
    }


@pytest.mark.parametrize("traced", [False, True],
                         ids=["untraced", "traced"])
@pytest.mark.parametrize("seed", range(40))
def test_one_pass_matches_reference_scan(seed, traced):
    fast = _build(FlumenScheduler, seed, traced)
    ref = _build(ReferenceScheduler, seed, traced)
    assert _state(fast) == _state(ref)
    fast._partitioner()
    ref._partitioner()
    assert _state(fast) == _state(ref)
    # Keep going through the lifecycle: completions free ports, the
    # network drains buffers (beta moves), and tau-periodic passes see
    # the backlog the previous pass left.
    for _ in range(150):
        for scheduler in (fast, ref):
            scheduler.tick()
            scheduler.control.network.step()
    assert _state(fast) == _state(ref)


def _one_free_range_backlog(sizes):
    """A scheduler whose only free range, ports [6, 8), has beta 1.0.

    One queued request per entry of ``sizes`` (its ``ports_needed``).
    """
    system = SystemConfig().replace(
        scheduler=SchedulerConfig(eta=0.4, zeta=0.5))
    net = make_network("flumen", NODES)
    control = MZIMControlUnit(net, system)
    scheduler = FlumenScheduler(control, system)
    request = ComputeRequest(node=0, plan=PLAN, matrix_key="held",
                             submit_cycle=0, ports_needed=6,
                             request_id=-1)
    scheduler.active.append(ActiveComputation(
        request=request, lo_port=0, hi_port=6, total_cycles=100,
        remaining_cycles=100))
    # Ports [6, 8) cover endpoints 12-15; fill their buffers.
    for src in range(12, NODES):
        for _ in range(net.request_buffer_capacity):
            net.offer_packet(Packet(src=src, dst=0, size_flits=1,
                                    create_cycle=0))
    for request_id, size in enumerate(sizes):
        control.compute_buffer.append(ComputeRequest(
            node=0, plan=PLAN, matrix_key="k", submit_cycle=0,
            ports_needed=size, request_id=request_id))
    return scheduler


def _count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name`` so each call appends its arguments to a list."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_one_pass_evaluates_beta_once_per_placement(monkeypatch):
    """500 requests for the one free range: one beta evaluation, not 500.

    The per-request rescan evaluates beta once per request.
    """
    scheduler = _one_free_range_backlog([2] * 500)
    net = scheduler.control.network
    beta_calls = _count_calls(monkeypatch, net, "buffer_utilization")
    scheduler._partitioner()

    assert scheduler.stats.granted == 0
    assert scheduler.stats.deferred_evaluations == 500
    assert [r.request_id for r in scheduler.control.compute_buffer] \
        == list(range(500))
    assert beta_calls == [([12, 13, 14, 15],)]


def test_one_pass_scans_each_size_once_between_grants(monkeypatch):
    """First-fit runs once per size, and not at all past a failed size."""
    scheduler = _one_free_range_backlog([2, 4, 6, 8] * 100)
    scans = _count_calls(monkeypatch, scheduler_module, "_first_fit")
    scheduler._partitioner()

    assert scheduler.stats.deferred_evaluations == 400
    # Size 2 finds (6, 8); size 4 fails, so 6 and 8 defer unscanned.
    assert [size for _, size in scans] == [2, 4]


SERVE_TENANTS = [f"t{i:02d}" for i in range(12)]


def _serve_backlog(cls: type[FlumenScheduler], seed: int,
                   traced: bool) -> FlumenScheduler:
    """A serve-shaped state: a deep backlog under a bounded event log.

    Hundreds of queued requests from twelve tenants, nearly all needing
    two ports, so each pass defers long runs of them; the occasional
    four-port request takes a different placement and can be granted
    between two runs.  Short partitions complete within the tick loop
    and free ports for later passes.  As in :func:`_build`, equal
    arguments build identical, independent stacks.
    """
    rng = np.random.default_rng(seed)
    cfg = SchedulerConfig(tau_cycles=int(rng.choice([1, 7])), eta=0.4,
                          zeta=0.5)
    system = SystemConfig().replace(scheduler=cfg)
    obs = Obs(metrics=MetricsRegistry(),
              tracer=CycleTracer() if traced else NULL_TRACER,
              events=EventLog(max_events=96))
    net = make_network("flumen", NODES, obs=obs)
    packet_ids = iter(range(10 ** 6))
    for src in range(NODES):
        for _ in range(int(rng.integers(0, net.request_buffer_capacity + 2))):
            dst = int(rng.integers(0, NODES - 1))
            net.offer_packet(Packet(src=src, dst=dst + (dst >= src),
                                    size_flits=int(rng.integers(1, 3)),
                                    create_cycle=0,
                                    packet_id=next(packet_ids)))
    control = MZIMControlUnit(net, system, obs=obs)
    scheduler = cls(control, system, obs=obs)
    for request_id in range(int(rng.integers(200, 400))):
        control.compute_buffer.append(ComputeRequest(
            node=int(rng.integers(0, NODES)), plan=PLAN, matrix_key="k",
            submit_cycle=0,
            ports_needed=4 if rng.random() < 0.05 else 2,
            duration_override=int(rng.integers(3, 25)),
            tenant=SERVE_TENANTS[int(rng.integers(0, 12))],
            request_id=request_id))
    return scheduler


@pytest.mark.parametrize("traced", [False, True],
                         ids=["untraced", "traced"])
@pytest.mark.parametrize("seed", range(8))
def test_serve_backlog_matches_reference_scan(seed, traced):
    """Deep equal-size backlog, grants between deferral runs, bounded log."""
    fast = _serve_backlog(FlumenScheduler, seed, traced)
    ref = _serve_backlog(ReferenceScheduler, seed, traced)
    for _ in range(120):
        for scheduler in (fast, ref):
            scheduler.tick()
            scheduler.control.network.step()
        assert _state(fast) == _state(ref)
    assert fast.stats.granted > 0
    assert fast.stats.deferred_evaluations > 1000
    assert fast.obs.events.dropped > 0


def test_pass_appends_deferrals_in_runs(monkeypatch):
    """No per-request ``partition_defer`` emit; one batch per run.

    A pass appends at most grants + 1 batches (runs are cut only by
    grants), and the batches carry every deferral exactly once.
    """
    scheduler = _serve_backlog(FlumenScheduler, seed=3, traced=False)
    scheduler.cfg = dataclasses.replace(scheduler.cfg, tau_cycles=1)
    log = scheduler.obs.events
    singles = _count_calls(monkeypatch, log, "emit")
    # Rows per batch, counted at call time: the caller reuses its list.
    batches: list[int] = []
    real_emit_many = log.emit_many

    def counting_emit_many(event_type, cycle, rows):
        batches.append(len(rows))
        real_emit_many(event_type, cycle, rows)

    monkeypatch.setattr(log, "emit_many", counting_emit_many)
    split_runs = 0
    for _ in range(120):
        granted = scheduler.stats.granted
        deferred = scheduler.stats.deferred_evaluations
        singles.clear()
        batches.clear()
        scheduler.tick()
        scheduler.control.network.step()
        assert [a for a in singles if a[0] == "partition_defer"] == []
        grants = scheduler.stats.granted - granted
        assert len(batches) <= grants + 1
        assert sum(batches) \
            == scheduler.stats.deferred_evaluations - deferred
        split_runs += len(batches) > 1
    assert split_runs > 0
