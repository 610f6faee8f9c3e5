"""Tests for in-situ mesh self-configuration."""

import numpy as np
import pytest

from repro.photonics.calibration import (
    PhaseOffsets,
    PhysicalMesh,
    calibrate_to,
    matrix_error,
)
from repro.photonics.clements import decompose, random_unitary


def target(n=6, seed=1):
    return random_unitary(n, np.random.default_rng(seed))


class TestPhysicalMesh:
    def test_zero_offsets_realize_ideal(self):
        u = target()
        mesh = PhysicalMesh(decompose(u), PhaseOffsets.none(15))
        assert matrix_error(mesh.measure(), u) < 1e-12

    def test_offsets_corrupt_the_matrix(self):
        u = target()
        mesh = PhysicalMesh(decompose(u),
                            PhaseOffsets.random(15, 0.1))
        assert matrix_error(mesh.measure(), u) > 0.05

    def test_offset_count_checked(self):
        with pytest.raises(ValueError):
            PhysicalMesh(decompose(target()), PhaseOffsets.none(3))

    @pytest.mark.parametrize("theta_shape, phi_shape", [
        ((15,), (3,)),      # would fail only later, in measure()
        ((15,), (40,)),     # the extra entries would be ignored
        ((15,), (1,)),      # would broadcast over the whole mesh
        ((1,), (15,)),
        ((15, 1), (15,)),
        ((15,), ()),
    ])
    def test_offset_shapes_checked(self, theta_shape, phi_shape):
        offsets = PhaseOffsets(theta=np.zeros(theta_shape),
                               phi=np.zeros(phi_shape))
        with pytest.raises(ValueError, match="expected"):
            PhysicalMesh(decompose(target()), offsets)

    def test_measurements_counted(self):
        mesh = PhysicalMesh(decompose(target()), PhaseOffsets.none(15))
        mesh.measure()
        mesh.measure()
        assert mesh.measurements == 2

    def test_program_changes_realization(self):
        u = target()
        mesh = PhysicalMesh(decompose(u), PhaseOffsets.none(15))
        before = mesh.measure().copy()
        mesh.program(0, 0.5, 0.5)
        assert not np.allclose(mesh.measure(), before)


class TestDecompositionCalibration:
    @pytest.mark.parametrize("sigma", [0.02, 0.1, 0.3])
    def test_machine_precision_recovery(self, sigma):
        u = target(8, 3)
        offsets = PhaseOffsets.random(28, sigma,
                                      np.random.default_rng(4))
        result = calibrate_to(u, offsets)
        assert result.final_error < 1e-9
        assert result.sweeps_used <= 2

    def test_history_monotone(self):
        u = target(6, 5)
        offsets = PhaseOffsets.random(15, 0.2, np.random.default_rng(6))
        result = calibrate_to(u, offsets)
        assert result.history == sorted(result.history, reverse=True)

    def test_improvement_reported(self):
        u = target(6, 7)
        offsets = PhaseOffsets.random(15, 0.1, np.random.default_rng(8))
        result = calibrate_to(u, offsets)
        assert result.improvement > 1e6

