"""Tests for the five benchmark workloads (Section 4.2)."""

import numpy as np
import pytest

from repro.workloads import paper_workloads, small_workloads
from repro.workloads.base import verify_photonic
from repro.workloads.dct import (
    blocks_from_plane,
    dct2,
    dct_matrix,
    idct2,
    plane_from_blocks,
)
from repro.workloads.image_blur import (
    ImageBlur,
    gaussian_kernel_3x3,
    synthetic_image,
)
from repro.workloads.jpeg import (
    JPEGWorkload,
    magnitude_category,
    rgb_to_ycbcr,
    run_length_decode,
    run_length_encode,
    zigzag_order,
)
from repro.workloads.resnet50_conv3 import ResNet50Conv3
from repro.workloads.rotation3d import (
    Rotation3D,
    rotation_matrix,
    wireframe_vertices,
)
from repro.workloads.vgg16_fc import VGG16FC


class TestPaperShapes:
    """MAC counts and shapes the paper states explicitly."""

    def test_image_blur_macs_about_1_7m(self):
        assert ImageBlur().total_macs() == 256 * 256 * 3 * 9  # 1.77 M

    def test_vgg16_fc_macs_about_4_1m(self):
        assert VGG16FC().total_macs() == 1000 * 4096  # 4.096 M

    def test_resnet_macs(self):
        # ~8 M multiply+add operations = 3.6 M fused MACs.
        macs = ResNet50Conv3().total_macs()
        assert macs == 56 * 56 * 128 * 9
        assert 7e6 < 2 * macs < 9e6

    def test_jpeg_block_count_is_1536(self):
        assert JPEGWorkload().luma_blocks == 1536

    def test_jpeg_macs_about_1_6m(self):
        # 1536 blocks x 2 passes x 8 MVMs x 64 MACs = 1.57 M.
        assert JPEGWorkload().total_macs() == 1536 * 2 * 8 * 64

    def test_rotation_vertices_306(self):
        wl = Rotation3D()
        assert wl.vertices.shape == (4, 306)
        assert wl.total_macs() == 4 * 4 * 306


class TestNumericalEquivalence:
    @pytest.mark.parametrize("idx", range(5))
    def test_photonic_matches_reference(self, idx):
        wl = small_workloads()[idx]
        err = verify_photonic(wl)
        assert err < 1e-6


class TestImageBlur:
    def test_gaussian_kernel_normalized(self):
        k = gaussian_kernel_3x3()
        assert k.sum() == pytest.approx(1.0)
        assert k[1, 1] == k.max()

    def test_blur_smooths(self):
        wl = ImageBlur(height=32, width=32)
        out = wl.reference()
        orig = wl.image.transpose(2, 0, 1)
        assert np.var(np.diff(out[0][5:-5], axis=0)) < \
            np.var(np.diff(orig[0][5:-5], axis=0))

    def test_synthetic_image_deterministic(self):
        a = synthetic_image(16, 16, seed=3)
        b = synthetic_image(16, 16, seed=3)
        assert np.array_equal(a, b)

    def test_phase_vector_count(self):
        wl = ImageBlur(height=32, width=32)
        assert wl.phases()[0].vectors == 32 * 32


class TestVGG16FC:
    def test_low_reuse_flag(self):
        assert VGG16FC().phases()[0].weight_reuse == 1

    def test_bias_applied(self):
        wl = VGG16FC(outputs=8, inputs=16)
        no_bias = wl.weights @ wl.activations
        assert not np.allclose(wl.reference(), no_bias)


class TestResNet:
    def test_depthwise_structure(self):
        wl = ResNet50Conv3(height=8, width=8, channels=16)
        w = wl._weight_matrix()
        # Each row holds at most 9 taps (quantized taps can be zero).
        taps = np.count_nonzero(w, axis=1)
        assert (taps <= 9).all()
        assert taps.max() == 9

    def test_nonzero_block_fraction_sparse_at_scale(self):
        assert ResNet50Conv3().nonzero_block_fraction == pytest.approx(
            9.0 / 144.0)


class TestDCT:
    def test_dct_matrix_orthonormal(self):
        d = dct_matrix(8)
        assert np.allclose(d @ d.T, np.eye(8), atol=1e-12)

    def test_dct_idct_roundtrip(self):
        rng = np.random.default_rng(0)
        block = rng.standard_normal((8, 8))
        assert np.allclose(idct2(dct2(block)), block, atol=1e-12)

    def test_dc_coefficient_is_mean(self):
        block = np.full((8, 8), 3.0)
        coeffs = dct2(block)
        assert coeffs[0, 0] == pytest.approx(24.0)  # 8 * mean
        assert np.allclose(coeffs.ravel()[1:], 0.0, atol=1e-12)

    def test_block_split_roundtrip(self):
        rng = np.random.default_rng(1)
        plane = rng.standard_normal((32, 24))
        blocks = blocks_from_plane(plane)
        assert blocks.shape == (12, 8, 8)
        assert np.allclose(plane_from_blocks(blocks, 32, 24), plane)

    def test_block_split_requires_divisible(self):
        with pytest.raises(ValueError):
            blocks_from_plane(np.ones((10, 16)))


class TestJPEGPipeline:
    def test_zigzag_is_a_permutation(self):
        zz = zigzag_order(8)
        assert sorted(zz) == list(range(64))
        assert zz[0] == 0 and zz[1] == 1  # starts right then down-left

    def test_rle_roundtrip(self):
        ac = np.zeros(63)
        ac[[3, 10, 40]] = [5, -2, 7]
        assert np.allclose(run_length_decode(run_length_encode(ac)), ac)

    def test_rle_long_zero_runs(self):
        ac = np.zeros(63)
        ac[40] = 9  # needs two ZRL markers
        pairs = run_length_encode(ac)
        assert (15, 0) in pairs
        assert np.allclose(run_length_decode(pairs), ac)

    def test_magnitude_category(self):
        assert magnitude_category(0) == 0
        assert magnitude_category(1) == 1
        assert magnitude_category(-3) == 2
        assert magnitude_category(255) == 8

    def test_ycbcr_white_maps_to_luma_255(self):
        white = np.full((1, 1, 3), 255.0)
        out = rgb_to_ycbcr(white)
        assert out[0, 0, 0] == pytest.approx(255.0)
        assert out[0, 0, 1] == pytest.approx(128.0)

    def test_compression_achieves_ratio(self):
        wl = JPEGWorkload(height=64, width=64)
        assert wl.compression_ratio() > 3.0

    def test_decode_bounded_error(self):
        wl = JPEGWorkload(height=64, width=64)
        planes = wl.compress()
        rec = wl.compressor.decode_plane(planes["y"])
        orig = rgb_to_ycbcr(wl.image)[..., 0]
        rmse = float(np.sqrt(np.mean((rec - orig) ** 2)))
        assert rmse < 20.0

    def test_quality_scale_trades_size_for_error(self):
        coarse = JPEGWorkload(height=64, width=64)
        coarse.compressor.quality_scale = 4.0
        fine = JPEGWorkload(height=64, width=64)
        fine.compressor.quality_scale = 0.5
        assert coarse.compression_ratio() > fine.compression_ratio()

    def test_rejects_unaligned_dimensions(self):
        with pytest.raises(ValueError):
            JPEGWorkload(height=30, width=48)

    def test_photonic_dct_matches_reference(self):
        wl = JPEGWorkload(height=32, width=32)
        assert np.allclose(wl.photonic(), wl.reference(), atol=1e-8)


class TestRotation3D:
    def test_rotation_matrix_orthogonal(self):
        r = rotation_matrix(0.3, 0.5, 0.7)
        assert np.allclose(r @ r.T, np.eye(4), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0)

    def test_rotation_preserves_vertex_norms(self):
        assert Rotation3D().rotations_preserve_length()

    def test_homogeneous_coordinate_untouched(self):
        wl = Rotation3D(vertices=34)
        assert np.allclose(wl.reference()[3], 1.0)

    def test_wireframe_on_unit_sphere(self):
        v = wireframe_vertices(306)
        norms = np.linalg.norm(v[:3], axis=0)
        assert np.allclose(norms, 1.0, atol=1e-9)

    def test_no_partial_sums(self):
        plan_phase = Rotation3D().phases()[0]
        assert plan_phase.cols == 4  # fits a 4-input SVD MZIM


class TestWorkloadFactories:
    def test_paper_workloads_all_named(self):
        names = {wl.name for wl in paper_workloads()}
        assert names == {"image_blur", "vgg16_fc", "resnet50_conv3",
                         "jpeg", "rotation3d"}

    def test_address_streams_nonempty(self):
        for wl in small_workloads():
            streams = list(wl.address_streams())
            assert streams
            for _phase, stream in streams:
                assert any(True for _ in stream)
