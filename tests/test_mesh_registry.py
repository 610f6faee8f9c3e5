"""Mesh-architecture registry: semantics, properties, and e2e plumbing.

Three layers of coverage (ISSUE 8 / DESIGN.md §16):

* registry mechanics — the one-slot register/lookup/temporary contract
  shared with ``noc/registry``;
* architecture properties — hypothesis-driven invariants every
  registrant must satisfy (unitarity, ``propagate == matrix @ a``,
  decompose∘matrix reconstruction, bit-identity of the columnized
  kernels with the per-MZI oracles),
  plus the bricks mesh's parity/depth/fault-domain structure;
* end-to-end plumbing — SVD programming, fabric compute partitions,
  calibration, the energy model, and the ``mesh_comparison`` sweep task
  all running under every registered architecture.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.photonics.batch import plan_signature
from repro.photonics.bricks import bricks_depth, decompose_bricks
from repro.photonics.clements import (
    _reference_trace_hops,
    decompose,
    random_unitary,
)
from repro.photonics.registry import MESHES, make_mesh

ALL_MESHES = MESHES.names()


def haar(n, seed):
    return random_unitary(n, np.random.default_rng(seed))


# ----------------------------------------------------------------------
# registry mechanics
# ----------------------------------------------------------------------


class TestRegistrySemantics:
    def test_builtins_registered(self):
        assert set(ALL_MESHES) >= {"clements", "reck", "bricks"}

    def test_unknown_name_lists_registrations(self):
        with pytest.raises(ValueError, match="unknown mesh architecture"):
            make_mesh("moebius")
        with pytest.raises(ValueError, match="clements"):
            MESHES.get("moebius")

    def test_every_builtin_has_one_slot(self):
        # One architecture per name, simulating with the columnized
        # kernels.
        u = haar(6, 0)
        fields = np.arange(6) + 1j
        for name in ("clements", "reck", "bricks"):
            arch = make_mesh(name)
            assert arch.name == name
            mesh = arch.decompose(u)
            assert np.array_equal(mesh.propagate(fields),
                                  mesh._reference_propagate(fields))

    def test_instance_passes_through(self):
        arch = make_mesh("reck")
        assert make_mesh(arch) is arch

    def test_temporary_mesh_registers_and_cleans_up(self):
        def factory(**kwargs):
            return make_mesh("clements")

        with MESHES.temporary("probe", factory):
            assert "probe" in MESHES.names()
            assert make_mesh("probe").name == "clements"
        assert "probe" not in MESHES.names()

    def test_duplicate_registration_rejected(self):
        def factory(**kwargs):
            return make_mesh("clements")

        with MESHES.temporary("probe", factory):
            with pytest.raises(ValueError, match="already registered"):
                MESHES.register("probe", factory)
            assert MESHES.get("probe") is factory

    def test_temporary_shadows_a_builtin_and_restores_it(self):
        builtin = MESHES.get("reck")

        def factory(**kwargs):
            return make_mesh("clements")

        with MESHES.temporary("reck", factory):
            assert make_mesh("reck").name == "clements"
        assert MESHES.get("reck") is builtin
        assert make_mesh("reck").name == "reck"


# ----------------------------------------------------------------------
# architecture properties (hypothesis, over the whole registry)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_MESHES)
class TestArchitectureProperties:
    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(min_value=2, max_value=10),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_reconstruction_and_unitarity(self, name, n, seed):
        arch = make_mesh(name)
        u = haar(n, seed)
        mesh = arch.decompose(u)
        m = mesh.matrix()
        assert np.allclose(m, u, atol=1e-10)
        assert np.allclose(m @ m.conj().T, np.eye(n), atol=1e-10)

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(min_value=2, max_value=10),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_propagate_is_matrix_action(self, name, n, seed):
        arch = make_mesh(name)
        u = haar(n, seed)
        mesh = arch.decompose(u)
        rng = np.random.default_rng(seed ^ 0xABCD)
        fields = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        out = mesh.propagate(fields)
        assert np.allclose(out, mesh.matrix() @ fields, atol=1e-10)

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(min_value=2, max_value=10),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_vectorized_matches_oracle_bitwise(self, name, n, seed):
        arch = make_mesh(name)
        mesh = arch.decompose(haar(n, seed))
        rng = np.random.default_rng(seed ^ 0x1234)
        fields = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.array_equal(mesh.propagate(fields),
                              mesh._reference_propagate(fields))
        assert np.array_equal(np.asarray(mesh.mzis_per_path()),
                              np.asarray(_reference_trace_hops(mesh)))

    def test_accounting_contract(self, name):
        arch = make_mesh(name)
        for n in (2, 4, 8, 13):
            mesh = arch.decompose(haar(n, n + 7))
            assert mesh.num_mzis == arch.program_mzi_count(n)
            assert mesh.num_columns <= arch.depth(n)
            assert 0 < arch.device_count(n) <= arch.program_mzi_count(n)
            assert arch.passes(n) >= 1
            for index in (0, mesh.num_mzis // 2, mesh.num_mzis - 1):
                domain = arch.fault_domain(mesh, index)
                assert index in domain

    def test_column_metadata_is_phase_independent(self, name):
        arch = make_mesh(name)
        a = arch.decompose(haar(6, 1))
        b = arch.decompose(haar(6, 2))
        assert plan_signature(a) == plan_signature(b)


# ----------------------------------------------------------------------
# the bricks mesh specifically
# ----------------------------------------------------------------------


class TestBricksMesh:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_bit_identical_to_clements(self, n):
        u = haar(n, 3 * n + 1)
        clem, brick = decompose(u), decompose_bricks(u)
        assert np.array_equal(clem.matrix(), brick.matrix())
        fields = haar(n, n)[:, 0]
        assert np.array_equal(clem.propagate(fields),
                              brick.propagate(fields))

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_parity_constraint_and_depth_bound(self, n):
        mesh = decompose_bricks(haar(n, n + 5))
        for mzi in mesh.mzis:
            assert mzi.column % 2 == mzi.top_mode % 2
        assert mesh.num_columns <= bricks_depth(n)

    def test_fault_domain_spans_all_passes(self):
        arch = make_mesh("bricks")
        mesh = arch.decompose(haar(8, 11))
        for index in range(mesh.num_mzis):
            domain = arch.fault_domain(mesh, index)
            top = mesh.mzis[index].top_mode
            assert domain == tuple(
                i for i, m in enumerate(mesh.mzis) if m.top_mode == top)
            assert len(domain) >= 1

    def test_stuck_device_pins_every_pass(self):
        from repro.faults.injector import FaultyMesh
        from repro.photonics.devices import BAR_THETA

        arch = make_mesh("bricks")
        target = haar(8, 21)
        plain = FaultyMesh(arch.decompose(target))
        plain.stick(3, BAR_THETA)
        widened = FaultyMesh(arch.decompose(target), architecture=arch)
        widened.stick(3, BAR_THETA)
        assert set(plain.stuck) == {3}
        assert set(widened.stuck) == set(arch.fault_domain(
            arch.decompose(target), 3))
        assert len(widened.stuck) > 1


# ----------------------------------------------------------------------
# end-to-end plumbing under every architecture
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_MESHES)
class TestEndToEnd:
    def test_svd_program_applies_the_matrix(self, name):
        from repro.photonics.svd import clear_svd_cache, program_svd

        clear_svd_cache()
        rng = np.random.default_rng(97)
        matrix = rng.standard_normal((8, 8))
        program = program_svd(matrix, architecture=name)
        vectors = rng.standard_normal((8, 4))
        assert np.allclose(program.apply(vectors), matrix @ vectors,
                           atol=1e-9)

    def test_fabric_compute_partition(self, name):
        from repro.photonics.fabric import FlumenFabric

        fabric = FlumenFabric(8, mesh_architecture=name)
        rng = np.random.default_rng(13)
        matrix = rng.standard_normal((4, 4))
        part = fabric.split(0, 4, matrix=matrix)
        assert part.svd is not None
        vec = rng.standard_normal(4)
        assert np.allclose(part.svd.apply(vec), matrix @ vec, atol=1e-9)

    def test_calibration_recovers_offsets(self, name):
        from repro.photonics.calibration import (
            PhaseOffsets,
            calibrate_to,
        )

        target = haar(8, 31)
        offsets = PhaseOffsets.random(28, 0.05,
                                      np.random.default_rng(32))
        result = calibrate_to(target, offsets, architecture=name)
        assert result.final_error < 1e-9

    def test_energy_model_accounting(self, name):
        from repro.photonics.compute_energy import MZIMComputeModel

        arch = make_mesh(name)
        model = MZIMComputeModel(architecture=name)
        n = 8
        assert model.svd_mzi_count(n) == 2 * arch.device_count(n) + n
        assert model.mesh_columns(n) == 2 * arch.depth(n) + 1
        assert model.matmul_energy(n, 4).total > 0

    def test_mesh_comparison_task(self, name):
        from repro.analysis.tasks import mesh_comparison

        record = mesh_comparison({"architecture": name, "ports": 8}, 17)
        assert record["architecture"] == name
        assert record["decomposition_error"] < 1e-10
        assert record["recalibrated_error"] < 1e-9
        assert record["drift_error"] > record["decomposition_error"]
        assert record["stuck_error"] > 0
        assert record["measured_columns"] <= record["depth_bound"]
        assert record["energy_per_mac_j"] > 0


class TestDefaultPathUnchanged:
    def test_clements_counts_match_paper_formulas(self):
        from repro.photonics.compute_energy import MZIMComputeModel

        model = MZIMComputeModel()
        assert model.architecture == "clements"
        for n in (2, 8, 64):
            assert model.svd_mzi_count(n) == n * n
            assert model.mesh_columns(n) == 2 * n + 1

    def test_svd_cache_shared_between_default_and_explicit(self):
        from repro.photonics.svd import (
            clear_svd_cache,
            program_svd,
            svd_cache_stats,
        )

        clear_svd_cache()
        matrix = np.random.default_rng(5).standard_normal((6, 6))
        program_svd(matrix)
        assert svd_cache_stats()["misses"] == 1
        program_svd(matrix, architecture="clements")
        stats = svd_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        # A different architecture is a different cache entry.
        program_svd(matrix, architecture="reck")
        assert svd_cache_stats()["misses"] == 2
