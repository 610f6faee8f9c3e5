"""Tests for the Reck triangular decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.photonics.clements import (
    DecompositionError,
    decompose,
    random_unitary,
)
from repro.photonics.reck import decompose_reck, depth_comparison


def haar(n, seed):
    return random_unitary(n, np.random.default_rng(seed))


class TestReckDecomposition:
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 12])
    def test_reconstruction_machine_precision(self, n):
        u = haar(n, n)
        mesh = decompose_reck(u)
        assert np.allclose(mesh.matrix(), u, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_mzi_count_matches_clements(self, n):
        assert decompose_reck(haar(n, n)).num_mzis == n * (n - 1) // 2

    @pytest.mark.parametrize("n", [3, 4, 8, 12])
    def test_triangular_depth_is_2n_minus_3(self, n):
        assert decompose_reck(haar(n, n + 7)).num_columns == 2 * n - 3

    def test_single_mode(self):
        mesh = decompose_reck(np.array([[1j]]))
        assert mesh.num_mzis == 0

    def test_rejects_non_unitary(self):
        with pytest.raises(DecompositionError):
            decompose_reck(np.ones((4, 4)))

    def test_propagation_matches(self):
        u = haar(6, 9)
        mesh = decompose_reck(u)
        a = np.random.default_rng(10).standard_normal(6).astype(complex)
        assert np.allclose(mesh.propagate(a), u @ a, atol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 10**6))
    def test_property_reck_equals_clements_matrix(self, n, seed):
        u = haar(n, seed)
        assert np.allclose(decompose_reck(u).matrix(),
                           decompose(u).matrix(), atol=1e-10)


class TestDepthComparison:
    def test_clements_is_shallower(self):
        cmp8 = depth_comparison(8)
        assert cmp8["clements"] < cmp8["reck"]
        assert cmp8["clements"] == 8
        assert cmp8["reck"] == 13

    def test_gap_widens_with_size(self):
        small = depth_comparison(4)
        big = depth_comparison(16)
        assert (big["reck"] - big["clements"]) > \
            (small["reck"] - small["clements"])

    def test_covers_every_registered_mesh(self):
        from repro.photonics.registry import MESHES

        assert set(depth_comparison(8)) == set(MESHES.names())

    def test_seed_controls_the_sample(self):
        # An int seed and an equally-seeded Generator agree, and the
        # default is seed 0 — not (as before) the mesh size.
        assert depth_comparison(8, 5) == \
            depth_comparison(8, np.random.default_rng(5))
        assert depth_comparison(8) == depth_comparison(8, 0)
