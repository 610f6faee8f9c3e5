"""Integration tests for the end-to-end system model (Figures 13-15).

These run the full pipeline on *reduced* workload shapes so the suite
stays fast; the benchmarks run the paper shapes.
"""

import math

import pytest

from repro.core.pipelines import CONFIGURATIONS
from repro.core.system import SystemModel
from repro.obs import Obs
from repro.workloads import make_workload
from repro.workloads.image_blur import ImageBlur
from repro.workloads.jpeg import JPEGWorkload
from repro.workloads.rotation3d import Rotation3D
from repro.workloads.vgg16_fc import VGG16FC


@pytest.fixture(scope="module")
def model():
    return SystemModel()


@pytest.fixture(scope="module")
def blur_runs(model):
    return model.run_all(ImageBlur(height=64, width=64))


class TestBasics:
    def test_unknown_configuration_rejected(self, model):
        with pytest.raises(ValueError):
            model.run(Rotation3D(vertices=34), "torus")

    def test_all_configurations_produce_results(self, blur_runs):
        assert set(blur_runs) == set(CONFIGURATIONS.names())
        for run in blur_runs.values():
            assert run.runtime_s > 0
            assert run.energy.total > 0

    def test_edp_is_energy_times_delay(self, blur_runs):
        run = blur_runs["mesh"]
        assert run.edp == pytest.approx(run.energy.total * run.runtime_s)


class TestFlumenAcceleration:
    def test_flumen_a_faster_than_baselines(self, blur_runs):
        fa = blur_runs["flumen_a"]
        for cfg in ("ring", "mesh", "optbus", "flumen_i"):
            assert fa.runtime_s < blur_runs[cfg].runtime_s, cfg

    def test_flumen_a_lower_energy(self, blur_runs):
        fa = blur_runs["flumen_a"]
        for cfg in ("ring", "mesh", "optbus", "flumen_i"):
            assert fa.energy.total < blur_runs[cfg].energy.total, cfg

    def test_flumen_a_offloads_macs(self, blur_runs):
        assert blur_runs["flumen_a"].offloaded_macs > 0
        assert blur_runs["mesh"].offloaded_macs == 0

    def test_core_energy_drops_under_acceleration(self, blur_runs):
        # Section 5.4.1: compute moves off the cores.
        assert blur_runs["flumen_a"].energy.core < \
            blur_runs["mesh"].energy.core

    def test_dram_energy_unchanged(self, blur_runs):
        # Section 5.4.1: the same data still comes from DRAM.
        mesh = blur_runs["mesh"].energy.dram
        fa = blur_runs["flumen_a"].energy.dram
        assert fa == pytest.approx(mesh, rel=0.2)

    def test_l1_l2_energy_reduced(self, blur_runs):
        mesh = blur_runs["mesh"]
        fa = blur_runs["flumen_a"]
        assert fa.energy.l1 < mesh.energy.l1
        assert fa.energy.l2 <= mesh.energy.l2

    def test_mzim_energy_only_under_acceleration(self, blur_runs):
        assert blur_runs["flumen_a"].energy.mzim > 0
        for cfg in ("ring", "mesh", "optbus", "flumen_i"):
            assert blur_runs[cfg].energy.mzim == 0.0


class TestBaselineOrdering:
    def test_electrical_nop_energy_exceeds_photonic(self, blur_runs):
        assert blur_runs["mesh"].energy.nop > \
            blur_runs["flumen_i"].energy.nop

    def test_ring_nop_energy_worst(self, blur_runs):
        assert blur_runs["ring"].energy.nop == max(
            blur_runs[c].energy.nop
            for c in ("ring", "mesh", "optbus", "flumen_i"))

    def test_flumen_i_close_to_optbus(self, blur_runs):
        # Section 5.4.1: Flumen-I consumes similar energy to OptBus.
        fi = blur_runs["flumen_i"].energy.total
        ob = blur_runs["optbus"].energy.total
        assert fi == pytest.approx(ob, rel=0.15)


class TestWorkloadTrends:
    def test_vgg_speedup_lowest(self, model):
        # Section 5.4.2: the big low-reuse kernel benefits least.
        vgg = model.run_all(VGG16FC(outputs=250, inputs=1024))
        rot = model.run_all(Rotation3D())
        vgg_speedup = vgg["mesh"].runtime_s / vgg["flumen_a"].runtime_s
        rot_speedup = rot["mesh"].runtime_s / rot["flumen_a"].runtime_s
        assert vgg_speedup < rot_speedup

    def test_rotation_needs_no_accumulation(self, model):
        run = model.run(Rotation3D(), "flumen_a")
        assert run.offloaded_macs == 16 * 306

    def test_jpeg_speedup_positive(self, model):
        runs = model.run_all(JPEGWorkload(height=64, width=64))
        assert runs["mesh"].runtime_s / runs["flumen_a"].runtime_s > 1.0


class TestSchedulerCoSimulation:
    """The Algorithm 1 co-simulation keeps ``SimKernel.run``'s bookkeeping."""

    @staticmethod
    def _run_flumen_a(monkeypatch, obs=None, on_build=None):
        """Run small rotation3d under flumen_a; returns the co-sim net."""
        import repro.core.system as system

        built = []
        make_network = system.make_network

        def capture(*args, **kwargs):
            net = make_network(*args, **kwargs)
            if on_build is not None:
                on_build(net)
            built.append(net)
            return net

        monkeypatch.setattr(system, "make_network", capture)
        model = SystemModel() if obs is None else SystemModel(obs=obs)
        model.run(make_workload("rotation3d", "small"), "flumen_a")
        return built[-1]

    def test_trailing_utilization_interval_is_flushed(self, monkeypatch):
        net = self._run_flumen_a(monkeypatch)
        interval = net.utilization.interval_cycles
        assert net.cycle % interval  # a partial trailing interval exists
        assert len(net.utilization.timeline) == math.ceil(
            net.cycle / interval)

    def test_trailing_link_busy_counter_is_traced(self, monkeypatch):
        obs = Obs.active()
        net = self._run_flumen_a(monkeypatch, obs=obs)
        busy = [e for e in obs.tracer.events
                if e["name"] == "link_busy_fraction"]
        # The last counter closes the partial interval, stamped at its
        # nominal end.
        interval = net.utilization.interval_cycles
        assert busy[-1]["ts"] == math.ceil(net.cycle / interval) * interval
        assert busy[-1]["args"]["busy"] == net.utilization.timeline[-1]

    def test_run_hooks_fire_around_the_loop(self, monkeypatch):
        # The hooks are where electrical backends publish noc.flit_hops.
        calls = []

        def record_hooks(net):
            for hook in ("_begin_run", "_end_run"):
                original = getattr(net, hook)
                monkeypatch.setattr(
                    net, hook, lambda hook=hook, original=original: (
                        calls.append((hook, net.cycle)), original()))

        net = self._run_flumen_a(monkeypatch, on_build=record_hooks)
        assert calls == [("_begin_run", 0), ("_end_run", net.cycle)]
