"""The scheduler-plus-network driver: ``FlumenScheduler.run``/``drain``.

Every co-simulation in the package — the system model's Algorithm 1
co-run, the fault campaigns, the ``alg1_mix`` task and the serve daemon
— alternates ``scheduler.tick()`` and ``network.step()`` through this
one driver.  These tests pin the parts it owns: closing every run the
same way (trailing utilization interval, run timer), warning when a
drain budget runs out, and fast-forwarding idle cycles byte-identically
to stepping them — through the one network-side skip, which refuses a
network that is not quiescent.
"""

import json
import logging
import math
import pickle

import pytest

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


def _refusals(net):
    """Step ``net`` to quiescence, yielding it at every busy cycle after
    checking that the guarded skip refuses it and leaves it untouched."""
    while not net.quiescent():
        before = pickle.dumps(net)
        with pytest.raises(RuntimeError, match="non-quiescent"):
            net.skip_idle_cycles(1)
        assert pickle.dumps(net) == before
        yield net
        net.step()


def _flumen_states(net) -> set[str]:
    states = {"buffered source"} if net._waiting_sources else set()
    if net._pending_srcs:
        states.add("pending pre-grant")
    for src in net._order:
        states.add("circuit in setup" if net._setup_left[src]
                   else "circuit in transfer")
    return states


class TestQuiescentSkip:
    """``SimKernel.skip_idle_cycles`` is the one network-side skip, for
    trace playback and the co-simulation driver alike: it refuses any
    network that is not quiescent and otherwise jumps the clock."""

    @pytest.mark.parametrize("make", [
        lambda: make_network("flumen", 16), lambda: _ServeNetwork(16)],
        ids=["soa", "serve"])
    def test_flumen_refuses_every_busy_state(self, make):
        net = make()
        for _ in range(2):  # the second packet is pre-granted
            net.offer_packet(Packet(src=0, dst=5, size_flits=6,
                                    create_cycle=0))
        seen = set().union(*map(_flumen_states, _refusals(net)))
        assert seen == {"buffered source", "circuit in setup",
                        "circuit in transfer", "pending pre-grant"}
        cycle = net.cycle
        net.skip_idle_cycles(7)
        assert net.cycle == cycle + 7

    @pytest.mark.parametrize("topology", ["ring", "mesh", "optbus"])
    def test_busy_network_is_refused(self, topology):
        net = make_network(topology, 16)
        net.offer_packet(Packet(src=0, dst=5, size_flits=4,
                                create_cycle=0))
        assert sum(1 for _ in _refusals(net)) > 1
        cycle = net.cycle
        net.skip_idle_cycles(7)
        assert net.cycle == cycle + 7

    def test_driver_skips_only_quiescent_networks(self, monkeypatch):
        quiescent = []
        skip_idle = SoAFlumenNetwork._skip_idle

        def checked(net, cycles):
            quiescent.append(net.quiescent())
            skip_idle(net, cycles)
        monkeypatch.setattr(SoAFlumenNetwork, "_skip_idle", checked)
        report = ServeDaemon(ServeConfig(duration=512, seed=0, rate=0.2,
                                         tenants=12)).run()
        assert report["drained"]
        served = len(quiescent)
        system_module.SystemModel().run(ImageBlur(height=64, width=64),
                                        "flumen_a")
        assert 0 < served < len(quiescent)
        assert all(quiescent)
