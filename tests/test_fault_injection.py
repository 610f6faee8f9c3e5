"""Fault injection: stuck MZIs and what self-configuration can recover.

A fabricated mesh can have phase shifters stuck at a fixed value (driver
or heater failure).  These tests quantify the blast radius of a single
stuck device on communication and computation, and check what
matrix-inversion self-configuration recovers: any programmable offset,
even one that clips ``theta`` at the physical range, but not a stuck
device, which is why the fault ladder escalates past recalibration.
"""

import math

import numpy as np
import pytest

from repro.faults.injector import FaultyMesh
from repro.photonics.calibration import (
    PhaseOffsets,
    PhysicalMesh,
    calibrate_by_decomposition,
    matrix_error,
)
from repro.photonics.clements import decompose, random_unitary
from repro.photonics.devices import BAR_THETA, MZIState
from repro.photonics.routing import (
    program_point_to_point,
    received_power,
)
from repro.photonics.svd import program_svd


def stick_mzi(mesh, index: int, theta: float = BAR_THETA):
    """Return a mesh copy with one MZI stuck at a fixed theta."""
    from repro.photonics.clements import MZIMesh

    mzis = [m if i != index else MZIState(m.top_mode, theta, m.phi, m.column)
            for i, m in enumerate(mesh.mzis)]
    return MZIMesh(n=mesh.n, mzis=mzis, output_phases=mesh.output_phases)


class TestCommunicationFaults:
    def test_stuck_bar_reroutes_power_somewhere(self):
        mesh = program_point_to_point({0: 7, 7: 0}, 8)
        # Find an MZI actually in the cross state on the 0->7 path.
        for idx, mzi in enumerate(mesh.mzis):
            if abs(mzi.theta) < 1e-9:
                broken = stick_mzi(mesh, idx)
                break
        else:
            pytest.skip("no cross-state MZI to break")
        power = received_power(broken, 0)
        assert power.sum() == pytest.approx(1.0)  # energy conserved
        assert power[7] < 1.0 - 1e-6               # but misdelivered

    def test_unaffected_paths_survive(self):
        # A fault on one path leaves disjoint paths intact when the stuck
        # MZI carries no power for them.
        mesh = program_point_to_point({0: 1, 6: 7}, 8)
        hops = mesh.mzis_per_path()
        assert hops[1, 0] >= 0 and hops[7, 6] >= 0
        # Stick an MZI whose modes are outside both paths' mode range.
        for idx, mzi in enumerate(mesh.mzis):
            if mzi.top_mode in (3,):
                broken = stick_mzi(mesh, idx)
                break
        else:
            pytest.skip("no mid-mesh MZI found")
        p0 = received_power(broken, 0)
        assert p0[1] > 0.99 or p0.argmax() == 1


class TestComputationFaults:
    def test_single_stuck_mzi_bounded_error(self):
        m = np.random.default_rng(0).standard_normal((6, 6))
        prog = program_svd(m)
        broken_u = stick_mzi(prog.u_mesh, 0, theta=1.0)
        from repro.photonics.svd import SVDProgram
        broken = SVDProgram(n=6, v_dagger_mesh=prog.v_dagger_mesh,
                            u_mesh=broken_u, sigma=prog.sigma,
                            scale=prog.scale)
        approx = (broken.scale * broken.matrix()).real
        rel = np.abs(approx - m).max() / np.abs(m).max()
        assert 0.0 < rel < 1.0  # corrupted but not catastrophic

    def test_fault_severity_grows_with_displacement(self):
        m = np.random.default_rng(1).standard_normal((6, 6))
        prog = program_svd(m)
        target = prog.u_mesh.mzis[3].theta
        errors = []
        for delta in (0.05, 0.3, 1.0):
            stuck = float(np.clip(target + delta, 0, math.pi))
            broken_u = stick_mzi(prog.u_mesh, 3, theta=stuck)
            err = np.abs(broken_u.matrix()
                         - prog.u_mesh.matrix()).max()
            errors.append(err)
        assert errors == sorted(errors)


class TestSelfHealing:
    def test_decomposition_removes_a_large_theta_offset(self):
        u = random_unitary(5, np.random.default_rng(3))
        ideal = decompose(u)
        # MZI 2's theta driver has a large fixed offset; theta is still
        # programmable, so the one-shot calibration removes it exactly.
        offsets = PhaseOffsets.none(ideal.num_mzis)
        offsets.theta[2] = 0.4
        mesh = PhysicalMesh(ideal, offsets)
        assert matrix_error(mesh.measure(), u) > 0.05
        exact = calibrate_by_decomposition(mesh, u)
        assert exact.final_error < 1e-9

    def test_decomposition_recovers_when_theta_clips(self):
        u = random_unitary(5, np.random.default_rng(4))
        ideal = decompose(u)
        offsets = PhaseOffsets.none(ideal.num_mzis)
        # Push a near-bar MZI past the physical range: the first
        # iteration clips, the second mops up.
        worst = int(np.argmax([m.theta for m in ideal.mzis]))
        offsets.theta[worst] = 1.0
        mesh = PhysicalMesh(ideal, offsets)
        result = calibrate_by_decomposition(mesh, u)
        assert result.history[1] > 1e-3
        assert result.final_error < 1e-9
        assert result.sweeps_used == 2

    @pytest.mark.parametrize("seed", range(3))
    def test_stuck_mzi_stays_above_the_ladder_threshold(self, seed):
        # A stuck theta cannot be programmed around: the probe error
        # stays above the campaign's 0.05 error_threshold, so the
        # ladder goes on to SHRINK.
        rng = np.random.default_rng(seed)
        u = random_unitary(8, rng)
        mesh = FaultyMesh(decompose(u))
        mesh.stick(int(rng.integers(mesh.num_mzis)), BAR_THETA)
        result = calibrate_by_decomposition(mesh, u)
        assert result.final_error > 0.05
