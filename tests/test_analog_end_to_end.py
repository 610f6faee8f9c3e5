"""End-to-end analog-precision checks: the '8-bit equivalent' claim.

Runs whole workload kernels through the quantized + noisy analog chain
and verifies task-level outputs survive — the operational meaning of
Table 1's "equivalent precision: 8 bits".
"""

import numpy as np
import pytest

from repro.core.accelerator import BlockMatmul
from repro.photonics.noise import AnalogMVM
from repro.workloads.dct import blocks_from_plane, dct_matrix
from repro.workloads.rotation3d import Rotation3D
from repro.workloads.vgg16_fc import VGG16FC
from repro.workloads.image_blur import synthetic_image
from repro.workloads.jpeg import rgb_to_ycbcr


def analog_hook(seed=0, bits=8):
    rng = np.random.default_rng(seed)

    def hook(program, window):
        return AnalogMVM(program, bits=bits, rng=rng)(window)

    return hook


class TestVGGAnalog:
    def test_top_k_ranking_survives_analog_chain(self):
        wl = VGG16FC(outputs=64, inputs=128)
        matmul = BlockMatmul(wl.weights, 8)
        exact = wl.weights @ wl.activations
        noisy = matmul(wl.activations, mvm=analog_hook(1))
        top_exact = set(np.argsort(exact)[-10:])
        top_noisy = set(np.argsort(noisy)[-10:])
        # An FC layer's large activations dominate quantization noise:
        # most of the top-10 ranking survives.
        assert len(top_exact & top_noisy) >= 6

    def test_relative_error_consistent_with_8_bits(self):
        wl = VGG16FC(outputs=64, inputs=128)
        matmul = BlockMatmul(wl.weights, 8)
        exact = wl.weights @ wl.activations
        noisy = matmul(wl.activations, mvm=analog_hook(2))
        rel = np.abs(noisy - exact).max() / np.abs(exact).max()
        assert rel < 0.25


class TestRotationAnalog:
    def test_rotated_object_keeps_shape(self):
        wl = Rotation3D(vertices=34)
        matmul = BlockMatmul(wl.matrix, 4)
        noisy = matmul(wl.vertices, mvm=analog_hook(3))
        exact = wl.reference()
        # Vertex positions within a few percent of the unit sphere.
        err = np.abs(noisy[:3] - exact[:3]).max()
        assert err < 0.1


class TestDCTAnalog:
    def test_dc_coefficients_track_exact(self):
        plane = rgb_to_ycbcr(synthetic_image(32, 32))[..., 0] - 128.0
        blocks = blocks_from_plane(plane)
        d = dct_matrix(8)
        matmul = BlockMatmul(d, 8)
        num = len(blocks)
        flat = blocks.transpose(0, 2, 1).reshape(num * 8, 8).T
        exact = (d @ flat)
        noisy = matmul(flat, mvm=analog_hook(4))
        # DC rows (row 0 of D) carry the block means — the perceptually
        # dominant coefficients; they must track within a few LSB.
        scale = np.abs(exact[0]).max()
        assert np.abs(noisy[0] - exact[0]).max() / scale < 0.1


class TestBitDepthSweep:
    @pytest.mark.parametrize("bits,bound", [(4, 1.0), (6, 0.4), (8, 0.25)])
    def test_error_shrinks_with_adc_resolution(self, bits, bound):
        wl = VGG16FC(outputs=32, inputs=64)
        matmul = BlockMatmul(wl.weights, 8)
        exact = wl.weights @ wl.activations
        noisy = matmul(wl.activations, mvm=analog_hook(5, bits=bits))
        rel = np.abs(noisy - exact).max() / np.abs(exact).max()
        assert rel < bound
