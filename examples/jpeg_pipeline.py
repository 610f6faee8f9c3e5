#!/usr/bin/env python3
"""Full JPEG compression with the DCT computed in the interconnect.

The 8x8 DCT matrix is orthogonal, so it maps onto the full 8-input unitary
MZIM (Section 5.4.1).  This example runs the complete baseline-JPEG
pipeline — color conversion, photonic block DCT, quantization, zig-zag,
run-length + entropy coding — then decodes and reports rate/distortion.

Run:  python examples/jpeg_pipeline.py
"""

import numpy as np

from repro.analysis.report import format_table
from repro.core.accelerator import BlockMatmul
from repro.workloads.dct import dct_matrix
from repro.workloads.jpeg import JPEGWorkload, rgb_to_ycbcr


def photonic_dct_fn(mzim_size: int = 8):
    """A dct_fn plug-in for the encoder that routes through the MZIM."""
    matmul = BlockMatmul(dct_matrix(8), mzim_size)

    def run(blocks: np.ndarray) -> np.ndarray:
        num = len(blocks)
        stage1 = matmul(blocks.transpose(0, 2, 1).reshape(num * 8, 8).T)
        stage1 = stage1.T.reshape(num, 8, 8).transpose(0, 2, 1)
        stage2 = matmul(stage1.reshape(num * 8, 8).T)
        return stage2.T.reshape(num, 8, 8)

    return run


def main() -> None:
    workload = JPEGWorkload(height=128, width=192)  # quarter-size demo
    luma_blocks = workload.luma_blocks
    print(f"image {workload.image.shape}, {luma_blocks} luma DCT blocks "
          f"({workload.total_macs():,} MACs)")

    rows = []
    for label, dct_fn in [("CPU DCT", None),
                          ("MZIM DCT", photonic_dct_fn())]:
        planes = workload.compress(dct_fn=dct_fn)
        bits = sum(p.bits for p in planes.values())
        raw = workload.height * workload.width * 24
        rec = workload.compressor.decode_plane(planes["y"])
        orig = rgb_to_ycbcr(workload.image)[..., 0]
        rmse = float(np.sqrt(np.mean((rec - orig) ** 2)))
        rows.append([label, f"{bits / 8 / 1024:.1f} KiB",
                     f"{raw / bits:.2f}:1", f"{rmse:.2f}"])
    print(format_table(
        ["DCT engine", "compressed size", "ratio", "luma RMSE"], rows))
    print("\nThe photonic DCT is numerically identical to the CPU DCT "
          "(the MZIM implements the orthogonal matrix exactly), so the "
          "bitstreams match; acceleration changes energy/latency, not "
          "output quality.")


if __name__ == "__main__":
    main()
