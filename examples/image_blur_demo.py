#!/usr/bin/env python3
"""Image blur through the photonic interconnect, with analog noise.

Reproduces the paper's flagship workload end to end: a 3x3 Gaussian blur
lowered to matrix multiplication (Figure 7), executed on SVD MZIM circuits,
first with ideal optics and then through the 8-bit analog chain
(quantization + detector noise), reporting the image-quality cost.

Run:  python examples/image_blur_demo.py
"""

import numpy as np

from repro.analysis.report import format_table
from repro.core.accelerator import BlockMatmul, im2col
from repro.core.system import SystemModel
from repro.photonics.noise import AnalogMVM
from repro.workloads.image_blur import ImageBlur


def psnr(reference: np.ndarray, candidate: np.ndarray,
         peak: float = 255.0) -> float:
    mse = float(np.mean((reference - candidate) ** 2))
    return float("inf") if mse == 0 else 10.0 * np.log10(peak ** 2 / mse)


def main() -> None:
    workload = ImageBlur(height=64, width=64)  # small for a quick demo
    print(f"image: {workload.image.shape}, "
          f"MACs: {workload.total_macs():,}")

    reference = workload.reference()
    ideal = workload.photonic()
    print(f"ideal optics max error: {np.abs(ideal - reference).max():.2e}")

    # Analog chain: 8-bit quantization + detector noise per window.
    cols = im2col(workload.image, (3, 3), stride=1, padding=1)
    matmul = BlockMatmul(workload._weight_matrix(), 8)
    rng = np.random.default_rng(3)

    def analog_pass(program, window):
        mvm = AnalogMVM(program, bits=8, rng=rng)
        return mvm(window)

    noisy = matmul(cols, mvm=analog_pass).reshape(reference.shape)
    err = np.abs(noisy - reference)
    print(f"8-bit analog chain: PSNR {psnr(reference, noisy):.1f} dB, "
          f"mean pixel error {err.mean():.1f}/255 — the cost of analog "
          f"computation (quantized partials accumulate noise across the "
          f"{matmul.block_cols} column blocks)\n")

    print("=== System-level outcome (Figures 13-15 slice) ===")
    model = SystemModel()
    runs = model.run_all(workload)
    rows = []
    for cfg in ("ring", "mesh", "optbus", "flumen_i", "flumen_a"):
        r = runs[cfg]
        rows.append([cfg, f"{r.runtime_s * 1e6:.1f} us",
                     f"{r.energy.total * 1e6:.1f} uJ",
                     f"{r.edp * 1e9:.3f} nJ*s"])
    print(format_table(["config", "runtime", "energy", "EDP"], rows))
    fa, mesh = runs["flumen_a"], runs["mesh"]
    print(f"\nFlumen-A vs Mesh: {mesh.runtime_s / fa.runtime_s:.1f}x faster, "
          f"{mesh.energy.total / fa.energy.total:.1f}x less energy, "
          f"{mesh.edp / fa.edp:.1f}x lower EDP")


if __name__ == "__main__":
    main()
