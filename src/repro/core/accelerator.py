"""Compute-offload mapping: block matrix multiplication and convolution.

Implements Section 3.3's computation organization:

* Equation (2): zero-pad an arbitrary ``n x m`` matrix to multiples of the
  MZIM port count ``N``;
* Equation (3): block matrix multiplication — each ``N x N`` sub-block is
  programmed into the MZIM in turn, the photonic pass produces partial
  sums, and the chiplets accumulate them;
* Figure 7: convolutional layers lowered to matrix multiplication via
  im2col;
* WDM batching: ``p`` input vectors ride ``p`` wavelengths through one
  optical pass.

:class:`OffloadPlan` captures the operation counts the system model and
energy accounting consume: how many MZIM windows run, how many matrix
switches (phase reprogramming events) occur, and how many partial-sum
additions remain on the cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.photonics.svd import SVDProgram, program_svd


def pad_to_blocks(matrix: np.ndarray, block: int) -> np.ndarray:
    """Zero-pad both dimensions up to the nearest multiple of ``block``.

    Equation (2)'s ``M-hat``.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"need a 2-D matrix, got shape {matrix.shape}")
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    rows = math.ceil(matrix.shape[0] / block) * block
    cols = math.ceil(matrix.shape[1] / block) * block
    padded = np.zeros((rows, cols), dtype=matrix.dtype)
    padded[:matrix.shape[0], :matrix.shape[1]] = matrix
    return padded


def pad_vectors(vectors: np.ndarray, block: int) -> np.ndarray:
    """Zero-pad the leading dimension of a vector batch to ``block``."""
    vectors = np.asarray(vectors)
    if vectors.ndim == 1:
        vectors = vectors[:, np.newaxis]
    rows = math.ceil(vectors.shape[0] / block) * block
    padded = np.zeros((rows, vectors.shape[1]), dtype=vectors.dtype)
    padded[:vectors.shape[0], :] = vectors
    return padded


@dataclass(frozen=True)
class OffloadPlan:
    """Operation counts for offloading ``M (n x m) @ A (m x q)`` to an
    ``N``-input MZIM with ``p`` compute wavelengths."""

    mzim_size: int
    wavelengths: int
    rows: int
    cols: int
    vectors: int
    #: Sub-block grid (i x j in the paper's notation).
    block_rows: int
    block_cols: int
    #: Distinct matrices programmed into the MZIM.
    matrix_switches: int
    #: Optical passes: each pass computes up to ``p`` MVMs.
    optical_windows: int
    #: Total N-element MVMs computed photonic-side.
    mvms: int
    #: Element additions the cores perform to merge block partial sums.
    partial_sum_adds: int
    #: MAC operations the offload removes from the cores.
    macs_offloaded: int

    @property
    def needs_accumulation(self) -> bool:
        """True when cores must merge partial sums (block_cols > 1)."""
        return self.block_cols > 1


def plan_offload(rows: int, cols: int, vectors: int, mzim_size: int,
                 wavelengths: int) -> OffloadPlan:
    """Build the offload plan for an ``(rows x cols) @ (cols x vectors)``
    product on an ``mzim_size``-input MZIM (Section 3.3.1)."""
    if min(rows, cols, vectors) < 1:
        raise ValueError("matrix dimensions and vector count must be >= 1")
    if mzim_size < 2:
        raise ValueError(f"MZIM size must be >= 2, got {mzim_size}")
    if wavelengths < 1:
        raise ValueError("need at least one compute wavelength")
    block_rows = math.ceil(rows / mzim_size)
    block_cols = math.ceil(cols / mzim_size)
    blocks = block_rows * block_cols
    windows_per_block = math.ceil(vectors / wavelengths)
    mvms = blocks * vectors
    # Each output element needs (block_cols - 1) adds per vector to merge
    # block partials; the padded rows that fall outside the true output are
    # still computed optically but never accumulated.
    partial_adds = (block_cols - 1) * rows * vectors
    return OffloadPlan(
        mzim_size=mzim_size,
        wavelengths=wavelengths,
        rows=rows,
        cols=cols,
        vectors=vectors,
        block_rows=block_rows,
        block_cols=block_cols,
        matrix_switches=blocks,
        optical_windows=blocks * windows_per_block,
        mvms=mvms,
        partial_sum_adds=partial_adds,
        macs_offloaded=rows * cols * vectors,
    )


class BlockMatmul:
    """Executable block matrix multiplication on SVD MZIM circuits.

    Programs one SVD circuit per ``N x N`` sub-block (phases precomputed,
    as Section 3.3.3 prescribes) and evaluates the product by optical
    propagation, accumulating block partials exactly as the chiplets would.
    """

    def __init__(self, matrix: np.ndarray, mzim_size: int,
                 wavelengths: int = 8) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("need a 2-D matrix")
        self.matrix = matrix
        self.mzim_size = mzim_size
        self.wavelengths = wavelengths
        self.padded = pad_to_blocks(matrix, mzim_size)
        n = mzim_size
        self.block_rows = self.padded.shape[0] // n
        self.block_cols = self.padded.shape[1] // n
        #: Precomputed per-block SVD programs (the "matrix memory").
        #: All-zero blocks contribute nothing and are never programmed,
        #: matching a controller that skips them.
        self.programs: dict[tuple[int, int], SVDProgram] = {}
        for bi in range(self.block_rows):
            for bj in range(self.block_cols):
                block = self.padded[bi * n:(bi + 1) * n, bj * n:(bj + 1) * n]
                if np.any(block):
                    self.programs[(bi, bj)] = program_svd(block)

    @property
    def nonzero_blocks(self) -> int:
        """Blocks that actually get programmed into the MZIM."""
        return len(self.programs)

    def plan(self, vectors: int) -> OffloadPlan:
        return plan_offload(self.matrix.shape[0], self.matrix.shape[1],
                            vectors, self.mzim_size, self.wavelengths)

    def __call__(self, vectors: np.ndarray,
                 mvm: "callable | None" = None) -> np.ndarray:
        """Compute ``matrix @ vectors`` through the photonic block plan.

        ``mvm(program, window)`` may replace the ideal optical pass (e.g.
        with :class:`repro.photonics.noise.AnalogMVM`); it is called once
        per non-zero block and wavelength window.  Without it the job is
        a fleet of one for :func:`block_matmul_many`: the exact SVD
        propagation of every block through one stacked
        ``(B, k, 2, 2)`` kernel pass (:mod:`repro.photonics.batch`).
        """
        if mvm is None:
            return block_matmul_many([(self, vectors)])[0]
        vectors = np.asarray(vectors, dtype=float)
        squeeze = vectors.ndim == 1
        batch = pad_vectors(vectors, self.mzim_size)
        n = self.mzim_size
        q = batch.shape[1]
        out = np.zeros((self.block_rows * n, q))
        for bi in range(self.block_rows):
            acc = np.zeros((n, q))
            for bj in range(self.block_cols):
                program = self.programs.get((bi, bj))
                if program is None:  # all-zero block
                    continue
                chunk = batch[bj * n:(bj + 1) * n, :]
                for lo in range(0, q, self.wavelengths):
                    hi = min(lo + self.wavelengths, q)
                    window = chunk[:, lo:hi]
                    acc[:, lo:hi] += mvm(program, window)
            out[bi * n:(bi + 1) * n, :] = acc
        result = out[:self.matrix.shape[0], :]
        return result[:, 0] if squeeze else result


def block_matmul_many(
        jobs: "list[tuple[BlockMatmul, np.ndarray]]") -> list[np.ndarray]:
    """Evaluate many block matmuls through one fleet-wide stacked dispatch.

    Gathers every non-zero block MVM of every job — the unit of work one
    optical pass performs — and hands the whole fleet to
    :func:`repro.photonics.batch.apply_jobs`, which runs each group of
    layout-compatible units as one ``(B, k, 2, 2)`` kernel pass.
    Ideal optics: wavelength windowing only affects timing, so each
    block's whole batch propagates in one pass.  Per-job block partials
    are then accumulated ``bj``-ascending per block row, so each result
    is bit-identical to evaluating the job one block program at a time
    (``tests/reference_photonics.py``).
    """
    from repro.photonics.batch import apply_jobs

    prepared = []  # (matmul, padded batch, squeeze flag) per job
    payloads = []  # (program, chunk) per block unit, fleet-wide
    units = []  # (job index, bi) addressing each payload's partial sum
    for job_idx, (matmul, vectors) in enumerate(jobs):
        vectors = np.asarray(vectors, dtype=float)
        squeeze = vectors.ndim == 1
        batch = pad_vectors(vectors, matmul.mzim_size)
        prepared.append((matmul, batch, squeeze))
        n = matmul.mzim_size
        for bi in range(matmul.block_rows):
            for bj in range(matmul.block_cols):
                program = matmul.programs.get((bi, bj))
                if program is None:  # all-zero block
                    continue
                payloads.append(
                    (program, batch[bj * n:(bj + 1) * n, :].astype(complex)))
                units.append((job_idx, bi))
    partials = apply_jobs(payloads)

    accs = [np.zeros((matmul.block_rows * matmul.mzim_size, batch.shape[1]))
            for matmul, batch, _ in prepared]
    # Units were gathered bj-ascending per (job, bi), so this walk adds
    # block partials in exactly a block-by-block loop's order — float
    # addition is order-sensitive, and bit-identity depends on it.
    for (job_idx, bi), partial in zip(units, partials):
        n = prepared[job_idx][0].mzim_size
        accs[job_idx][bi * n:(bi + 1) * n, :] += partial.real
    results = []
    for (matmul, _, squeeze), acc in zip(prepared, accs):
        result = acc[:matmul.matrix.shape[0], :]
        results.append(result[:, 0] if squeeze else result)
    return results


def im2col(volume: np.ndarray, kernel_hw: tuple[int, int],
           stride: int = 1, padding: int = 0) -> np.ndarray:
    """Lower an input volume to the receptive-field matrix (Figure 7b).

    ``volume`` has shape ``(height, width, channels)``; the result has one
    *column* per receptive field of shape
    ``(kh * kw * channels, out_h * out_w)``.
    """
    volume = np.asarray(volume)
    if volume.ndim == 2:
        volume = volume[:, :, np.newaxis]
    kh, kw = kernel_hw
    if padding:
        volume = np.pad(volume,
                        ((padding, padding), (padding, padding), (0, 0)))
    h, w, c = volume.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("kernel larger than (padded) input")
    columns = np.empty((kh * kw * c, out_h * out_w), dtype=volume.dtype)
    idx = 0
    for y in range(0, out_h * stride, stride):
        for x in range(0, out_w * stride, stride):
            patch = volume[y:y + kh, x:x + kw, :]
            columns[:, idx] = patch.ravel()
            idx += 1
    return columns


def kernels_to_matrix(kernels: np.ndarray) -> np.ndarray:
    """Ravel a kernel bank to the weight matrix (Figure 7b).

    ``kernels`` has shape ``(num_kernels, kh, kw, channels)``; each row of
    the result is one raveled kernel.
    """
    kernels = np.asarray(kernels)
    if kernels.ndim == 3:
        kernels = kernels[:, :, :, np.newaxis]
    return kernels.reshape(kernels.shape[0], -1)


def conv2d_as_matmul(volume: np.ndarray, kernels: np.ndarray,
                     stride: int = 1, padding: int = 0
                     ) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
    """Convolution layer as weight-matrix x input-matrix (Figure 7).

    Returns ``(weight_matrix, input_matrix, (out_h, out_w))`` such that
    ``weight_matrix @ input_matrix`` reshaped to
    ``(num_kernels, out_h, out_w)`` is the convolution's output volume.
    """
    volume = np.asarray(volume)
    if volume.ndim == 2:
        volume = volume[:, :, np.newaxis]
    kernels = np.asarray(kernels)
    if kernels.ndim == 3:
        kernels = kernels[:, :, :, np.newaxis]
    kh, kw = kernels.shape[1], kernels.shape[2]
    if kernels.shape[3] != volume.shape[2]:
        raise ValueError(
            f"kernel channels {kernels.shape[3]} do not match input "
            f"channels {volume.shape[2]}")
    cols = im2col(volume, (kh, kw), stride, padding)
    weights = kernels_to_matrix(kernels)
    h = volume.shape[0] + 2 * padding
    w = volume.shape[1] + 2 * padding
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    return weights, cols, (out_h, out_w)

