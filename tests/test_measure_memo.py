"""``PhysicalMesh.measure`` against the per-MZI path it replaced.

``measure`` builds the realized transfer matrix from phase arrays and
memoizes it on the realized-phase bytes.  :func:`reference_measure` is
the path it replaced, kept here as the oracle: rebuild an
:class:`MZIState` list with the realized phases (stuck devices
included), then sweep it one MZI at a time with the scalar Eq. 1
(:func:`~repro.photonics.devices.mzi_transfer`).  Every comparison is
exact.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.photonics.calibration as calibration
from repro.faults.campaign import CampaignSpec, run_fault_campaign
from repro.faults.injector import FaultyMesh
from repro.faults.ladder import Rung
from repro.faults.recovery import FabricRecovery
from repro.photonics.calibration import (
    PhaseOffsets,
    PhysicalMesh,
    calibrate_by_decomposition,
)
from repro.photonics.clements import decompose, random_unitary
from repro.photonics.devices import MZIState
from repro.photonics.registry import make_mesh


def reference_measure(mesh: PhysicalMesh) -> np.ndarray:
    """The realized matrix, rebuilt MZI by MZI from scalar phases."""
    structure = mesh._structure
    mzis = []
    for i, mzi in enumerate(structure.mzis):
        theta = float(np.clip(
            mesh.programmed[i, 0] + mesh._offsets.theta[i], 0.0, math.pi))
        phi = mesh.programmed[i, 1] + mesh._offsets.phi[i]
        mzis.append(MZIState(mzi.top_mode, theta, phi, mzi.column))
    for index, theta in getattr(mesh, "stuck", {}).items():
        mzis[index] = mzis[index].with_phases(theta, mzis[index].phi)
    u = np.eye(structure.n, dtype=complex)
    for mzi in mzis:
        m = mzi.top_mode
        u[m:m + 2] = mzi.transfer @ u[m:m + 2]
    return np.diag(structure.output_phases) @ u


def assert_matches(mesh: PhysicalMesh) -> None:
    measured = mesh.measure()
    assert measured.tobytes() == reference_measure(mesh).tobytes()


@pytest.fixture
def sweeps(monkeypatch):
    """Count the column sweeps ``measure`` runs (memo misses)."""
    calls = []
    real = calibration.sweep_columns

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(calibration, "sweep_columns", counting)
    return calls


def faulty(n=8, seed=3, sigma=0.05, architecture=None):
    rng = np.random.default_rng(seed)
    u = random_unitary(n, rng)
    ideal = (decompose(u) if architecture is None
             else make_mesh(architecture).decompose(u))
    offsets = PhaseOffsets.random(ideal.num_mzis, sigma, rng)
    return u, FaultyMesh(ideal, offsets, architecture=architecture)


class TestMatchesReference:
    @pytest.mark.parametrize("architecture", [None, "reck", "bricks"])
    def test_fresh_mesh(self, architecture):
        _, mesh = faulty(architecture=architecture)
        assert_matches(mesh)

    def test_program(self):
        _, mesh = faulty()
        assert_matches(mesh)
        mesh.program(4, 0.7, -2.5)
        assert_matches(mesh)
        mesh.program(0, -1.0, 9.0)  # theta clips at 0, phi past 2*pi
        assert_matches(mesh)
        mesh.program(1, 4.0, -7.0)  # theta clips at pi
        assert_matches(mesh)

    def test_direct_programmed_writes(self, sweeps):
        # Write one entry in place, measure, restore: no hook sees it.
        _, mesh = faulty()
        assert_matches(mesh)
        saved = mesh.programmed[5, 1]
        mesh.programmed[5, 1] = saved + 0.25
        assert_matches(mesh)
        mesh.programmed[5, 1] = saved
        assert_matches(mesh)
        assert len(sweeps) == 3

    def test_drift(self, sweeps):
        _, mesh = faulty()
        rng = np.random.default_rng(11)
        for _ in range(3):
            mesh.drift(0.01, rng)  # in-place offset writes
            assert_matches(mesh)
        assert len(sweeps) == 3

    def test_stick(self):
        _, mesh = faulty()
        assert_matches(mesh)
        mesh.stick(6, 0.0)
        assert_matches(mesh)
        mesh.stick(2, math.pi / 2)
        mesh.program(2, 0.1, 0.2)  # the pin wins over programming
        assert_matches(mesh)

    def test_stick_fault_domain(self):
        _, mesh = faulty(architecture="bricks")
        mesh.stick(3, 1.1)
        assert len(mesh.stuck) >= 1
        assert_matches(mesh)

    def test_calibration_loops(self):
        u, mesh = faulty(n=4, sigma=0.1)
        calibrate_by_decomposition(mesh, u, iterations=1)
        assert_matches(mesh)

    def test_shrink_replacement(self):
        recovery = FabricRecovery(ports=8, nodes=16, seed=5,
                                  rng=np.random.default_rng(5))
        old = recovery.domain.mesh
        old.stick(0, 0.0)
        assert_matches(old)
        recovery.ladder.partition_ports_cap = 4
        recovery._act_shrink(cycle=100)
        new = recovery.domain.mesh
        assert new is not old and new.num_mzis == 6
        assert_matches(new)
        assert_matches(old)

    @pytest.mark.parametrize("fault, expected_rungs", [
        ("phase_drift", {Rung.RECALIBRATE}),
        ("stuck_mzi", {Rung.RECALIBRATE, Rung.SHRINK}),
    ])
    def test_every_campaign_measurement(self, fault, expected_rungs,
                                        monkeypatch):
        # Drift, sticks, recalibration and shrink as a campaign drives
        # them: every measurement must equal the oracle.
        real = PhysicalMesh.measure
        checked = []
        rungs = set()

        def checking(self):
            measured = real(self)
            assert measured.tobytes() == reference_measure(self).tobytes()
            checked.append(1)
            return measured

        real_action = FabricRecovery.run_ladder_action

        def noting(self, cycle):
            rungs.add(self.ladder.rung)
            return real_action(self, cycle)

        monkeypatch.setattr(PhysicalMesh, "measure", checking)
        monkeypatch.setattr(FabricRecovery, "run_ladder_action", noting)
        run_fault_campaign(CampaignSpec(fault=fault, runs=1, cycles=900,
                                        golden_reference=False))
        assert len(checked) > 10
        assert expected_rungs <= rungs


class TestMemo:
    def test_hits_still_count_measurements(self, sweeps):
        _, mesh = faulty()
        first = mesh.measure()
        for _ in range(4):
            assert np.array_equal(mesh.measure(), first)
        assert mesh.measurements == 5
        assert len(sweeps) == 1

    def test_returned_matrix_is_a_copy(self):
        _, mesh = faulty()
        first = mesh.measure()
        expected = first.copy()
        first[:] = 0.0
        second = mesh.measure()
        assert second.tobytes() == expected.tobytes()
        assert second is not first
        second[0, 0] = 99.0
        assert mesh.measure().tobytes() == expected.tobytes()

    def test_restored_phases_recompute_exactly(self, sweeps):
        # The single slot holds the latest key only; returning to an
        # older state misses and recomputes the same bytes.
        _, mesh = faulty()
        first = mesh.measure()
        mesh.program(3, 1.0, 1.0)
        mesh.measure()
        ideal = mesh._structure.mzis[3]
        mesh.program(3, ideal.theta, ideal.phi)
        assert mesh.measure().tobytes() == first.tobytes()
        assert len(sweeps) == 3
