"""The scheduler-plus-network driver: ``FlumenScheduler.run``/``drain``.

Every co-simulation in the package — the system model's Algorithm 1
co-run, the fault campaigns, the ``alg1_mix`` task and the serve daemon
— alternates ``scheduler.tick()`` and ``network.step()`` through this
one driver.  These tests pin the parts it owns: closing every run the
same way (trailing utilization interval, run timer), warning when a
drain budget runs out, and fast-forwarding cycles on which nothing but
countdowns happen byte-identically to stepping them — through the one
network-side skip, which refuses to pass the network's horizon.
"""

import json
import logging
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.system as system_module
from repro.config import SystemConfig
from repro.core.accelerator import plan_offload
from repro.core.control_unit import ComputeRequest, MZIMControlUnit
from repro.core.scheduler import FlumenScheduler
from repro.faults.campaign import CampaignSpec, _CampaignRun
from repro.noc.packet import Packet
from repro.noc.simulation import make_network
from repro.noc.soa import SoAFlumenNetwork
from repro.obs import Obs
from repro.serve.daemon import ServeConfig, ServeDaemon, _ServeNetwork
from repro.workloads.image_blur import ImageBlur
from tests.reference_noc import make_oracle


def _assert_closed(net) -> None:
    interval = net.utilization.interval_cycles
    # A partial last interval exists, so the flush is exercised.
    assert net.cycle % interval
    assert len(net.utilization.timeline) == math.ceil(net.cycle / interval)


def _stack(obs=None):
    system = SystemConfig()
    net = make_network("flumen", 16, obs=obs or Obs.telemetry())
    control = MZIMControlUnit(net, system, obs=net.obs)
    return net, control, FlumenScheduler(control, system, obs=net.obs)


def _submit(control, duration: int) -> None:
    control.compute_buffer.append(ComputeRequest(
        node=0, plan=plan_offload(8, 8, 8, 8, 8), matrix_key="k",
        submit_cycle=0, ports_needed=4, duration_override=duration,
        request_id=0))


class TestRunBookkeeping:
    def test_campaign_run_flushes_trailing_interval(self):
        obs = Obs.telemetry()
        run = _CampaignRun(CampaignSpec(cycles=300, runs=1,
                                        golden_reference=False), 0,
                           obs=obs)
        run.execute()
        _assert_closed(run.net)
        timers = obs.metrics.to_dict()["timers"]
        assert timers["noc.run_seconds{topology=flumen}"]["count"] == 1

    def test_serve_session_flushes_trailing_interval(self):
        daemon = ServeDaemon(ServeConfig(duration=150, seed=0, rate=0.05,
                                         tenants=2))
        report = daemon.run()
        assert report["drained"]
        _assert_closed(daemon.net)
        final = daemon.obs.sampler.series[-1]["metrics"]["timers"]
        assert final["noc.run_seconds{topology=flumen}"]["count"] == 1

    def test_window_and_drain_book_one_run(self):
        net, control, scheduler = _stack()
        _submit(control, duration=130)
        with net.running():
            scheduler.run(50)
            scheduler.drain()
        _assert_closed(net)
        timers = net.obs.metrics.to_dict()["timers"]
        assert timers["noc.run_seconds{topology=flumen}"]["count"] == 1


class TestDrainBudget:
    def test_exhausted_budget_warns(self, caplog):
        net, control, scheduler = _stack()
        _submit(control, duration=500)
        with caplog.at_level(logging.WARNING, logger="repro.noc"):
            assert not scheduler.drain(max_cycles=5)
        warnings = [r for r in caplog.records if r.name == "repro.noc"]
        assert len(warnings) == 1
        message = warnings[0].getMessage()
        assert message.startswith("flumen: drain budget of 5 cycles")
        assert "1 compute requests unfinished" in message

    def test_finished_drain_is_silent(self, caplog):
        net, control, scheduler = _stack()
        _submit(control, duration=20)
        with caplog.at_level(logging.WARNING, logger="repro.noc"):
            assert scheduler.drain(max_cycles=5_000)
        assert not [r for r in caplog.records if r.name == "repro.noc"]
        assert scheduler.stats.completed == 1


def _cosim(monkeypatch, configuration: str, skip: bool) -> dict:
    """One traced-telemetry system run; its outputs and stepped cycles."""
    nets = []
    build = system_module.make_network

    def counted(*args, **kwargs):
        net = build(*args, **kwargs)
        step = net.step

        def counting_step():
            net.stepped += 1
            step()
        net.stepped = 0
        net.step = counting_step
        nets.append(net)
        return net

    with monkeypatch.context() as patch:
        patch.setattr(system_module, "make_network", counted)
        if not skip:
            # The driver skips only while the scheduler's countdown
            # allows it, so a countdown of 0 steps every cycle.
            patch.setattr(FlumenScheduler, "quiet_countdown",
                          lambda self: 0)
        obs = Obs.telemetry()
        run = system_module.SystemModel(obs=obs).run(
            ImageBlur(height=64, width=64), configuration)
    return {
        "run": run,
        "timelines": [list(net.utilization.timeline) for net in nets],
        "events": json.dumps(list(obs.events.events), sort_keys=True),
        "snapshots": json.dumps(obs.sampler.series, sort_keys=True),
        "stepped": sum(net.stepped for net in nets),
    }


class TestCoSimSkip:
    @pytest.mark.parametrize("configuration", ["flumen_a", "mesh"])
    def test_skipping_equals_stepping(self, monkeypatch, configuration):
        skipped = _cosim(monkeypatch, configuration, skip=True)
        stepped = _cosim(monkeypatch, configuration, skip=False)
        assert skipped["run"] == stepped["run"]
        assert repr(skipped["run"]) == repr(stepped["run"])
        for key in ("timelines", "events", "snapshots"):
            assert skipped[key] == stepped[key], key
        assert skipped["snapshots"] != "[]"
        if configuration == "flumen_a":
            assert skipped["stepped"] < stepped["stepped"]
        else:
            # The baselines run no scheduler co-simulation: their trace
            # plays through SimKernel.run, which the scheduler's
            # countdown does not gate, so both runs step the same cycles.
            assert skipped["stepped"] == stepped["stepped"]


def _pinned_or_skipping(patch, skip: bool) -> list[bool]:
    """Pin every Flumen horizon to the current cycle unless ``skip``
    (the driver then steps every cycle); return the list the skips
    append ``quiescent()`` to."""
    skips = []
    if skip:
        skip_idle = SoAFlumenNetwork._skip_idle

        def counted(net, cycles):
            skips.append(net.quiescent())
            skip_idle(net, cycles)
        patch.setattr(SoAFlumenNetwork, "_skip_idle", counted)
    else:
        patch.setattr(SoAFlumenNetwork, "quiet_until",
                      lambda net: net.cycle)
    return skips


def _telemetry(obs) -> dict:
    return {"events": json.dumps(list(obs.events.events), sort_keys=True),
            "snapshots": json.dumps(obs.sampler.series, sort_keys=True)}


def _serve_session(monkeypatch, skip: bool) -> dict:
    with monkeypatch.context() as patch:
        skips = _pinned_or_skipping(patch, skip)
        daemon = ServeDaemon(ServeConfig(duration=512, seed=0, rate=0.2,
                                         tenants=12))
        report = json.dumps(daemon.run(), sort_keys=True)
    return {"report": report, **_telemetry(daemon.obs), "skips": skips}


def _campaign_drain(monkeypatch, skip: bool) -> dict:
    # The window steps every cycle (random traffic); its drain skips.
    with monkeypatch.context() as patch:
        skips = _pinned_or_skipping(patch, skip)
        obs = Obs.telemetry()
        run = _CampaignRun(CampaignSpec(fault="laser_degradation",
                                        cycles=600, runs=1,
                                        golden_reference=False), 0,
                           obs=obs)
        record = json.dumps(run.execute(), sort_keys=True)
    return {"report": record, **_telemetry(obs),
            "timeline": list(run.net.utilization.timeline), "skips": skips}


class TestCoSimSkipCallers:
    """Every other ``_drive`` caller skips busy networks to their
    horizon and equals the same run stepped cycle by cycle."""

    @pytest.mark.parametrize("run", [_serve_session, _campaign_drain],
                             ids=["serve", "campaign_drain"])
    def test_skipping_equals_stepping(self, monkeypatch, run):
        skipped = run(monkeypatch, skip=True)
        stepped = run(monkeypatch, skip=False)
        assert False in skipped.pop("skips")
        assert stepped.pop("skips") == []
        assert skipped == stepped
        assert skipped["snapshots"] != "[]"


def _refusals(net):
    """Step ``net`` to quiescence, yielding it at every busy cycle after
    checking that a skip one cycle past its horizon raises and leaves it
    untouched."""
    while not net.quiescent():
        horizon = net.quiet_until()
        before = pickle.dumps(net)
        with pytest.raises(RuntimeError, match="horizon"):
            net.skip_idle_cycles(horizon - net.cycle + 1)
        assert pickle.dumps(net) == before
        yield net
        net.step()


def _skip_equals_stepping(net, cycles: int) -> None:
    """A skip of ``cycles`` is pickle-equal to stepping them."""
    state = pickle.dumps(net)
    skipped, stepped = pickle.loads(state), pickle.loads(state)
    skipped.skip_idle_cycles(cycles)
    for _ in range(cycles):
        stepped.step()
    assert pickle.dumps(skipped) == pickle.dumps(stepped)


def _flumen_states(net) -> set[str]:
    states = {"buffered source"} if net._waiting_sources else set()
    if net._pending_srcs:
        states.add("pending pre-grant")
    if net.blocked_ports:
        states.add("blocked ports")
    for src in net._order:
        # A circuit is in setup until its first flit crosses, on the
        # cycle its calendar names.
        states.add("circuit in setup" if net._start[src] > net.cycle
                   else "circuit in transfer")
        if (src, net._packets[src].dst) in net.reroute_penalties:
            states.add("rerouted circuit")
    return states


BUSY_STATES = {"buffered source", "circuit in setup", "circuit in transfer",
               "pending pre-grant", "blocked ports", "rerouted circuit"}


def _busy_flumen(make):
    """A Flumen network that passes through every state of BUSY_STATES:
    a pre-granted second packet, a detoured pair, a blocked source and a
    blocked destination, unblocked on cycle 30; yields it per cycle."""
    net = make()
    net.reroute_pair(2, 9, 6)
    net.block_ports({3, 12})
    for src, dst, size in ((0, 5, 6), (0, 5, 6), (1, 5, 2), (2, 9, 4),
                           (3, 7, 3), (4, 12, 5)):
        net.offer_packet(Packet(src=src, dst=dst, size_flits=size,
                                create_cycle=0))
    while not net.quiescent():
        if net.cycle == 30:
            net.unblock_ports({3, 12})
        yield net
        net.step()


class TestQuiescentSkip:
    """The kernel's default horizon (``SimKernel.quiet_until``): a
    backend without an event calendar — ring, mesh, optbus — is skipped
    only while quiescent."""

    @pytest.mark.parametrize("topology", ["ring", "mesh", "optbus"])
    def test_busy_network_is_refused(self, topology):
        net = make_network(topology, 16)
        net.offer_packet(Packet(src=0, dst=5, size_flits=4,
                                create_cycle=0))
        for busy in _refusals(net):
            # The kernel's default horizon: every busy cycle is stepped.
            assert busy.quiet_until() == busy.cycle
        assert net.cycle > 1 and net.quiet_until() is None
        cycle = net.cycle
        net.skip_idle_cycles(7)
        assert net.cycle == cycle + 7


class TestHorizonSkip:
    """``SimKernel.skip_idle_cycles`` is the one network-side skip, for
    trace playback and the co-simulation driver alike: it refuses to
    pass the network's horizon (``quiet_until``), busy or not, and a
    skip up to the horizon equals stepping there."""

    @pytest.mark.parametrize("make", [
        lambda: make_network("flumen", 16), lambda: _ServeNetwork(16)],
        ids=["soa", "serve"])
    def test_flumen_refuses_past_the_horizon(self, make):
        seen, skipped = set(), set()
        for net in _busy_flumen(make):
            states = _flumen_states(net)
            seen |= states
            horizon = net.quiet_until()
            if horizon is None:
                continue
            assert horizon >= net.cycle
            before = pickle.dumps(net)
            with pytest.raises(RuntimeError, match="horizon"):
                net.skip_idle_cycles(horizon - net.cycle + 1)
            assert pickle.dumps(net) == before
            if horizon > net.cycle:
                skipped |= states
        assert seen == BUSY_STATES
        # Busy cycles are skipped, blocked ports and circuits included.
        assert {"circuit in setup", "circuit in transfer",
                "blocked ports", "buffered source"} <= skipped

    @pytest.mark.parametrize("make", [
        lambda: make_network("flumen", 16), lambda: _ServeNetwork(16)],
        ids=["soa", "serve"])
    def test_skip_to_the_horizon_equals_stepping(self, make):
        skips = 0
        for net in _busy_flumen(make):
            horizon = net.quiet_until()
            # Unbounded while only blocked work waits: any length holds.
            cycles = 5 if horizon is None else horizon - net.cycle
            if cycles:
                _skip_equals_stepping(net, cycles)
                skips += 1
        assert skips > 10
        cycle = net.cycle
        assert net.quiet_until() is None
        net.skip_idle_cycles(7)
        assert net.cycle == cycle + 7

    @settings(max_examples=16, deadline=None)
    @given(arbitration=st.sampled_from(["wavefront", "sequential"]),
           pipelined=st.booleans(),
           reconfig=st.integers(min_value=0, max_value=4),
           load=st.floats(min_value=0.05, max_value=0.6),
           seed=st.integers(min_value=0, max_value=10**6))
    def test_property_horizon_skips_equal_stepping(
            self, arbitration, pipelined, reconfig, load, seed):
        # Random traffic, multicasts, blocks and detours: on every cycle
        # a skip past the horizon is refused untouched, a skip to it
        # equals stepping, and the stepped network keeps pace with the
        # per-object oracle.
        rng = random.Random(seed)
        kwargs = {"arbitration": arbitration, "pipelined_setup": pipelined,
                  "reconfig_cycles": reconfig,
                  "request_buffer_capacity": rng.randint(1, 4)}
        net = make_network("flumen", 8, **kwargs)
        oracle = make_oracle("flumen", 8, **kwargs)
        for cycle in range(160):
            calls = []
            if cycle < 120:
                for src in range(8):
                    if rng.random() < load:
                        dsts = rng.sample([d for d in range(8) if d != src],
                                          2 if rng.random() < 0.1 else 1)
                        calls.append(("offer_packet", Packet(
                            src=src, dst=dsts[0],
                            size_flits=rng.randint(1, 6),
                            create_cycle=cycle,
                            multicast_dsts=tuple(dsts) if len(dsts) > 1
                            else ())))
            if rng.random() < 0.05:
                calls.append(("block_ports", set(rng.sample(range(8), 2))))
            if rng.random() < 0.08:
                calls.append(("unblock_ports", set(net.blocked_ports)))
            if rng.random() < 0.03:
                calls.append(("reroute_pair", rng.randrange(8),
                              rng.randrange(8), rng.randint(0, 5)))
            for name, *args in calls:
                getattr(net, name)(*args)
                getattr(oracle, name)(*args)
            horizon = net.quiet_until()
            if horizon is not None:
                before = pickle.dumps(net)
                with pytest.raises(RuntimeError, match="horizon"):
                    net.skip_idle_cycles(horizon - net.cycle + 1)
                assert pickle.dumps(net) == before
            cycles = 4 if horizon is None else horizon - net.cycle
            if cycles:
                _skip_equals_stepping(net, cycles)
            net.step()
            oracle.step()
            assert (net.latency.histogram, net.flit_hops,
                    net.total_queued_flits(), net.reconfigurations,
                    net.arbiter_conflicts) == (
                oracle.latency.histogram, oracle.flit_hops,
                oracle.total_queued_flits(), oracle.reconfigurations,
                oracle.arbiter_conflicts)

    def test_driver_skips_busy_networks_up_to_the_horizon(self,
                                                          monkeypatch):
        skips = []
        skip_idle = SoAFlumenNetwork._skip_idle

        def checked(net, cycles):
            horizon = net.quiet_until()
            assert horizon is None or net.cycle + cycles <= horizon
            skips.append(net.quiescent())
            skip_idle(net, cycles)
        monkeypatch.setattr(SoAFlumenNetwork, "_skip_idle", checked)
        report = ServeDaemon(ServeConfig(duration=512, seed=0, rate=0.2,
                                         tenants=12)).run()
        assert report["drained"]
        served = len(skips)
        assert 0 < served and not all(skips)
        system_module.SystemModel().run(ImageBlur(height=64, width=64),
                                        "flumen_a")
        corun = skips[served:]
        # Most of the co-run's skips cross a busy network.
        assert corun and corun.count(False) > corun.count(True)
