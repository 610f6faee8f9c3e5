"""Per-MZI and per-block loops: the oracles for the photonic kernels.

These are the photonic hot paths as they ran before vectorization: one
2x2 matmul per MZI in propagation order, one power trace per input
port, and one optical pass per non-zero block of a block matmul.
``MZIMesh.propagate`` and ``matrix`` (one stacked matmul per physical
column, ``clements.sweep_columns``), ``clements._trace_hops`` (every
input traced at once) and ``block_matmul_many`` (one stacked dispatch
for a whole fleet) must reproduce them *bit for bit*.
"""

from __future__ import annotations

import numpy as np

from repro.core.accelerator import BlockMatmul, pad_vectors
from repro.photonics.clements import MZIMesh


def reference_propagate(mesh: MZIMesh, fields: np.ndarray) -> np.ndarray:
    """Propagate ``fields`` (``(n,)`` or ``(n, p)``) MZI by MZI."""
    out = np.asarray(fields, dtype=complex).copy()
    if out.shape[0] != mesh.n:
        raise ValueError(
            f"expected leading dimension {mesh.n}, got {out.shape[0]}")
    for mzi in mesh.mzis:
        m = mzi.top_mode
        out[m:m + 2, ...] = mzi.transfer @ out[m:m + 2, ...]
    phases = mesh.output_phases
    if out.ndim > 1:
        phases = phases[:, np.newaxis]
    return phases * out


def reference_trace_hops(mesh: MZIMesh) -> np.ndarray:
    """Per-path MZI counts (``mesh.mzis_per_path()``), one input at a time."""
    n = mesh.n
    hops = -np.ones((n, n), dtype=int)
    for i in range(n):
        power = np.zeros(n)
        power[i] = 1.0
        count = np.zeros(n, dtype=int)
        for mzi in mesh.mzis:
            m = mzi.top_mode
            p_in = power[m] + power[m + 1]
            if p_in <= 1e-15:
                continue
            t = np.abs(mzi.transfer) ** 2
            new = t @ power[m:m + 2]
            # The MZI hop count carried forward is the power-weighted depth.
            depth = max(count[m] if power[m] > 1e-15 else 0,
                        count[m + 1] if power[m + 1] > 1e-15 else 0) + 1
            power[m:m + 2] = new
            count[m] = depth if new[0] > 1e-15 else count[m]
            count[m + 1] = depth if new[1] > 1e-15 else count[m + 1]
        for o in range(n):
            if power[o] > 1e-12:
                hops[o, i] = count[o]
    return hops


def sequential_block_matmul(matmul: BlockMatmul,
                            vectors: np.ndarray) -> np.ndarray:
    """``matmul(vectors)`` on ideal optics, one block program at a time.

    Block partials are accumulated ``bj``-ascending per block row, the
    order ``block_matmul_many`` must keep: float addition is
    order-sensitive.
    """
    vectors = np.asarray(vectors, dtype=float)
    squeeze = vectors.ndim == 1
    batch = pad_vectors(vectors, matmul.mzim_size)
    n = matmul.mzim_size
    q = batch.shape[1]
    out = np.zeros((matmul.block_rows * n, q))
    for bi in range(matmul.block_rows):
        acc = np.zeros((n, q))
        for bj in range(matmul.block_cols):
            program = matmul.programs.get((bi, bj))
            if program is None:  # all-zero block
                continue
            chunk = batch[bj * n:(bj + 1) * n, :]
            acc += program.apply(chunk.astype(complex)).real
        out[bi * n:(bi + 1) * n, :] = acc
    result = out[:matmul.matrix.shape[0], :]
    return result[:, 0] if squeeze else result
