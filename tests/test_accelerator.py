"""Tests for the compute-offload mapping (Section 3.3, Figure 7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accelerator import (
    BlockMatmul,
    conv2d_as_matmul,
    im2col,
    kernels_to_matrix,
    pad_to_blocks,
    pad_vectors,
    plan_offload,
)


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def conv2d(volume, kernels, stride=1, padding=0):
    """Convolution through the Figure 7 weight x input product."""
    weights, cols, (out_h, out_w) = conv2d_as_matmul(
        volume, kernels, stride, padding)
    return (weights @ cols).reshape(weights.shape[0], out_h, out_w)


def conv2d_reference(volume, kernels, stride=1, padding=0):
    """Direct sliding-window convolution, the oracle for :func:`conv2d`."""
    volume = np.asarray(volume)
    if volume.ndim == 2:
        volume = volume[:, :, np.newaxis]
    kernels = np.asarray(kernels)
    if kernels.ndim == 3:
        kernels = kernels[:, :, :, np.newaxis]
    padded = np.pad(volume, ((padding, padding), (padding, padding), (0, 0)))
    num, kh, kw, _ = kernels.shape
    out_h = (padded.shape[0] - kh) // stride + 1
    out_w = (padded.shape[1] - kw) // stride + 1
    out = np.empty((num, out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            window = padded[i * stride:i * stride + kh,
                            j * stride:j * stride + kw]
            out[:, i, j] = np.tensordot(kernels, window, axes=3)
    return out


class TestPadding:
    def test_pad_to_blocks_shape(self):
        p = pad_to_blocks(np.ones((5, 9)), 4)
        assert p.shape == (8, 12)

    def test_pad_preserves_content(self):
        m = rand((5, 9), 1)
        p = pad_to_blocks(m, 4)
        assert np.allclose(p[:5, :9], m)
        assert np.allclose(p[5:, :], 0.0)
        assert np.allclose(p[:, 9:], 0.0)

    def test_exact_multiple_unchanged(self):
        m = rand((8, 8), 2)
        assert pad_to_blocks(m, 4).shape == (8, 8)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            pad_to_blocks(np.ones(4), 2)

    def test_rejects_bad_block(self):
        with pytest.raises(ValueError):
            pad_to_blocks(np.ones((2, 2)), 0)

    def test_pad_vectors_1d_becomes_column(self):
        v = pad_vectors(np.ones(5), 4)
        assert v.shape == (8, 1)


class TestPlanOffload:
    def test_paper_equation_2_block_grid(self):
        # (20 x 30) on an 8-input MZIM: i=3, j=4 sub-blocks.
        plan = plan_offload(20, 30, 5, 8, 8)
        assert (plan.block_rows, plan.block_cols) == (3, 4)
        assert plan.matrix_switches == 12

    def test_partial_sums_need_j_minus_1_adds(self):
        # b_0 = sum_k M_0k a_k: (j-1) adds per output element per vector.
        plan = plan_offload(8, 32, 2, 8, 8)
        assert plan.block_cols == 4
        assert plan.partial_sum_adds == 3 * 8 * 2

    def test_single_block_needs_no_accumulation(self):
        plan = plan_offload(4, 4, 306, 4, 8)
        assert not plan.needs_accumulation
        assert plan.partial_sum_adds == 0

    def test_windows_batch_by_wavelength(self):
        plan = plan_offload(8, 8, 20, 8, 8)
        assert plan.optical_windows == 3  # ceil(20/8)

    def test_macs_offloaded(self):
        plan = plan_offload(10, 12, 7, 8, 8)
        assert plan.macs_offloaded == 10 * 12 * 7

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            plan_offload(0, 4, 1, 8, 8)
        with pytest.raises(ValueError):
            plan_offload(4, 4, 1, 1, 8)
        with pytest.raises(ValueError):
            plan_offload(4, 4, 1, 8, 0)


class TestBlockMatmul:
    @pytest.mark.parametrize("shape,block", [
        ((8, 8), 8), ((20, 30), 8), ((5, 17), 4), ((16, 16), 8),
    ])
    def test_matches_numpy(self, shape, block):
        m = rand(shape, shape[0])
        a = rand((shape[1], 3), shape[1])
        bm = BlockMatmul(m, block)
        assert np.allclose(bm(a), m @ a, atol=1e-9)

    def test_single_vector(self):
        m = rand((8, 8), 5)
        v = rand(8, 6)
        bm = BlockMatmul(m, 8)
        out = bm(v)
        assert out.shape == (8,)
        assert np.allclose(out, m @ v, atol=1e-10)

    def test_zero_blocks_skipped(self):
        m = np.zeros((16, 16))
        m[:8, :8] = rand((8, 8), 7)
        bm = BlockMatmul(m, 8)
        assert bm.nonzero_blocks == 1
        a = rand((16, 2), 8)
        assert np.allclose(bm(a), m @ a, atol=1e-10)

    def test_custom_mvm_hook_called_per_window(self):
        m = rand((8, 8), 9)
        calls = []

        def spy(program, window):
            calls.append(window.shape[1])
            return program.apply(window.astype(complex)).real

        bm = BlockMatmul(m, 8, wavelengths=4)
        a = rand((8, 10), 10)
        out = bm(a, mvm=spy)
        assert np.allclose(out, m @ a, atol=1e-9)
        assert calls == [4, 4, 2]  # 10 vectors in windows of 4

    def test_plan_matches_structure(self):
        bm = BlockMatmul(rand((20, 30), 11), 8)
        plan = bm.plan(5)
        assert plan.matrix_switches == bm.block_rows * bm.block_cols

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            BlockMatmul(np.ones(5), 4)

    @settings(max_examples=15, deadline=None)
    @given(rows=st.integers(2, 20), cols=st.integers(2, 20),
           q=st.integers(1, 6), seed=st.integers(0, 10**6))
    def test_property_block_matmul_exact(self, rows, cols, q, seed):
        m = rand((rows, cols), seed)
        a = rand((cols, q), seed + 1)
        bm = BlockMatmul(m, 4)
        assert np.allclose(bm(a), m @ a, atol=1e-8)


class TestIm2col:
    def test_output_shape(self):
        cols = im2col(np.ones((6, 7, 2)), (3, 3))
        assert cols.shape == (18, 4 * 5)

    def test_known_patch_content(self):
        plane = np.arange(16.0).reshape(4, 4)
        cols = im2col(plane, (2, 2))
        # First receptive field: rows 0-1, cols 0-1.
        assert cols[:, 0].tolist() == [0.0, 1.0, 4.0, 5.0]

    def test_stride(self):
        cols = im2col(np.ones((6, 6)), (2, 2), stride=2)
        assert cols.shape == (4, 9)

    def test_padding_grows_output(self):
        no_pad = im2col(np.ones((4, 4)), (3, 3))
        padded = im2col(np.ones((4, 4)), (3, 3), padding=1)
        assert no_pad.shape[1] == 4
        assert padded.shape[1] == 16

    def test_kernel_too_large_rejected(self):
        with pytest.raises(ValueError):
            im2col(np.ones((2, 2)), (3, 3))


class TestConvAsMatmul:
    def test_matches_direct_convolution(self):
        vol = rand((7, 9, 3), 20)
        kern = rand((5, 3, 3, 3), 21)
        w, cols, (oh, ow) = conv2d_as_matmul(vol, kern, padding=1)
        out = (w @ cols).reshape(5, oh, ow)
        # Verify one output element by hand.
        padded = np.pad(vol, ((1, 1), (1, 1), (0, 0)))
        expected = float(np.sum(padded[2:5, 3:6, :] * kern[1]))
        assert out[1, 2, 3] == pytest.approx(expected)

    def test_weight_matrix_shape_matches_figure_7(self):
        kern = rand((6, 3, 3, 4), 22)
        w = kernels_to_matrix(kern)
        assert w.shape == (6, 3 * 3 * 4)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            conv2d_as_matmul(np.ones((5, 5, 2)), np.ones((1, 3, 3, 3)))

    def test_reference_shape(self):
        vol, kern = np.ones((6, 6, 2)), rand((4, 3, 3, 2), 23)
        out = conv2d(vol, kern, padding=1)
        assert out.shape == (4, 6, 6)
        assert np.allclose(out, conv2d_reference(vol, kern, padding=1))

    @pytest.mark.parametrize("stride, padding", [(1, 0), (2, 0), (2, 1),
                                                 (3, 2)])
    def test_matches_sliding_window(self, stride, padding):
        vol, kern = rand((8, 7, 3), 25), rand((4, 3, 2, 3), 26)
        assert np.allclose(conv2d(vol, kern, stride, padding),
                           conv2d_reference(vol, kern, stride, padding))

    def test_identity_kernel_is_identity(self):
        vol = rand((5, 5), 24)
        kern = np.zeros((1, 3, 3))
        kern[0, 1, 1] = 1.0
        out = conv2d(vol, kern, padding=1)
        assert np.allclose(out[0], vol)
