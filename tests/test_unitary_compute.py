"""Tests for the single-mesh unitary compute path and thermal drift."""

import numpy as np
import pytest

from repro.photonics.clements import random_unitary
from repro.photonics.noise import drift_tolerance, perturb_mesh_phases
from repro.photonics.svd import (
    is_unitary_matrix,
    program_matrix,
    program_svd,
    program_unitary,
    UnitaryProgram,
)
from repro.workloads.dct import dct_matrix
from repro.workloads.rotation3d import rotation_matrix


class TestUnitaryProgram:
    def test_dct_fits_single_mesh(self):
        # Section 5.4.1: DCT maps to the full 8-input unitary MZIM.
        prog = program_unitary(dct_matrix(8))
        assert isinstance(prog, UnitaryProgram)
        assert prog.num_mzis == 28          # N(N-1)/2
        assert prog.mesh_columns <= 8       # single mesh depth

    def test_half_the_mzis_of_svd(self):
        d = dct_matrix(8)
        assert program_unitary(d).num_mzis < program_svd(d).num_mzis / 2

    def test_exact_product(self):
        d = dct_matrix(8)
        x = np.random.default_rng(0).standard_normal((8, 6))
        prog = program_unitary(d)
        assert np.allclose(prog.apply(x.astype(complex)).real, d @ x,
                           atol=1e-12)

    def test_rotation_matrix_is_unitary_kernel(self):
        r = rotation_matrix(0.3, 0.4, 0.5)
        prog = program_unitary(r)
        v = np.random.default_rng(1).standard_normal(4)
        assert np.allclose(prog.apply(v.astype(complex)).real, r @ v,
                           atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            program_unitary(np.ones((4, 4)))

    def test_no_rescaling_needed(self):
        assert program_unitary(dct_matrix(8)).scale == 1.0


class TestProgramMatrixDispatch:
    def test_unitary_gets_single_mesh(self):
        assert isinstance(program_matrix(dct_matrix(8)), UnitaryProgram)

    def test_general_gets_svd(self):
        prog = program_matrix(np.random.default_rng(2)
                              .standard_normal((4, 4)))
        assert not isinstance(prog, UnitaryProgram)

    def test_is_unitary_matrix(self):
        assert is_unitary_matrix(dct_matrix(8))
        assert not is_unitary_matrix(2 * np.eye(3))


class TestThermalDrift:
    def test_perturbed_mesh_stays_unitary(self):
        mesh = program_unitary(random_unitary(
            6, np.random.default_rng(3))).mesh
        drifted = perturb_mesh_phases(mesh, 0.02,
                                      np.random.default_rng(4))
        m = drifted.matrix()
        assert np.allclose(m.conj().T @ m, np.eye(6), atol=1e-9)

    def test_zero_drift_is_identity_operation(self):
        u = random_unitary(5, np.random.default_rng(5))
        mesh = program_unitary(u).mesh
        same = perturb_mesh_phases(mesh, 0.0)
        assert np.allclose(same.matrix(), u, atol=1e-12)

    def test_error_grows_with_drift(self):
        m = np.random.default_rng(6).standard_normal((8, 8))
        tol = drift_tolerance(m, [0.001, 0.01, 0.1])
        errs = [tol[s] for s in (0.001, 0.01, 0.1)]
        assert errs == sorted(errs)

    def test_small_drift_small_error(self):
        # 1 mrad RMS drift keeps matrix error well under 1%.
        m = np.random.default_rng(7).standard_normal((8, 8))
        assert drift_tolerance(m, [0.001])[0.001] < 0.01

    def test_theta_clipped_to_physical_range(self):
        mesh = program_unitary(random_unitary(
            4, np.random.default_rng(8))).mesh
        drifted = perturb_mesh_phases(mesh, 2.0,
                                      np.random.default_rng(9))
        for mzi in drifted.mzis:
            assert 0.0 <= mzi.theta <= np.pi + 1e-12
