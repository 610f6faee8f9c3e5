"""Smoke tests: the example scripts run end to end.

Heavier examples are exercised through their importable pieces at reduced
sizes; ``quickstart`` runs whole.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def test_quickstart_runs():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "Flumen MZIM" in result.stdout
    assert "advantage" in result.stdout


def test_jpeg_pipeline_photonic_dct_plug_in():
    sys.path.insert(0, str(EXAMPLES))
    try:
        from jpeg_pipeline import photonic_dct_fn
    finally:
        sys.path.pop(0)
    from repro.workloads.jpeg import JPEGWorkload

    wl = JPEGWorkload(height=32, width=32)
    cpu = wl.compress(dct_fn=None)
    mzim = wl.compress(dct_fn=photonic_dct_fn())
    assert sum(p.bits for p in cpu.values()) == \
        sum(p.bits for p in mzim.values())


def test_image_blur_demo_psnr_helper():
    sys.path.insert(0, str(EXAMPLES))
    try:
        from image_blur_demo import psnr
    finally:
        sys.path.pop(0)
    ref = np.zeros((4, 4))
    assert psnr(ref, ref) == float("inf")
    assert psnr(np.full((4, 4), 255.0), np.zeros((4, 4))) == 0.0


def test_mini_cnn_classifies_perfectly():
    sys.path.insert(0, str(EXAMPLES))
    try:
        from mini_cnn_inference import (
            forward,
            make_dataset,
            make_network,
        )
    finally:
        sys.path.pop(0)
    from repro.core.accelerator import BlockMatmul

    xs, ys = make_dataset(n=20)
    kernels, readout = make_network()
    preds = forward(xs, kernels, readout,
                    lambda w: BlockMatmul(w, mzim_size=8))
    assert (preds == ys).all()


def test_network_explorer_importable():
    sys.path.insert(0, str(EXAMPLES))
    try:
        import network_explorer
    finally:
        sys.path.pop(0)
    assert callable(network_explorer.latency_curves)
    assert callable(network_explorer.energy_comparison)
