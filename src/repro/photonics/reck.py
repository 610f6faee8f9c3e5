"""Reck triangular decomposition — the classic alternative mesh.

Reck et al. (1994) factor an ``N x N`` unitary into ``N(N-1)/2`` MZIs
arranged as a *triangle*: the same device count as Clements' rectangle,
but depth ``2N - 3`` instead of ``N``.  The paper builds on Clements
(reference [10]) precisely because the rectangle halves the worst-case
optical depth and balances path lengths; this module exists to quantify
that choice (see ``benchmarks/bench_ablation_decomposition.py``).

Algorithm: null the last row left to right by left-multiplying embedded
``T(theta, phi)`` factors acting on modes ``(col, col+1)``; recurse on the
leading ``(N-1) x (N-1)`` block.  The accumulated factors then satisfy
``T_k ... T_1 U = D``, so ``U = T_1^dag ... T_k^dag D``; daggered factors
commute through the diagonal with the same rule as Clements
(:mod:`repro.photonics.clements`).
"""

from __future__ import annotations

import cmath

import numpy as np

from repro.photonics.clements import (
    DecompositionError,
    MZIMesh,
    _assign_columns,
    _left_null_phases,
    is_unitary,
)
from repro.photonics.devices import MZIState, mzi_transfer


def decompose_reck(unitary: np.ndarray, tol: float = 1e-9) -> MZIMesh:
    """Factor ``unitary`` into a triangular (Reck) MZI mesh program."""
    u = np.array(unitary, dtype=complex)
    if not is_unitary(u, tol):
        raise DecompositionError("input matrix is not unitary")
    n = u.shape[0]
    mesh = MZIMesh(n=n)
    if n == 1:
        mesh.output_phases = np.array([u[0, 0]], dtype=complex)
        return mesh

    left_ops: list[tuple[int, float, float]] = []
    for col in range(n - 1):
        # Sweep the sub-diagonal of this column bottom-up: each step
        # nulls u[m+1, col] with an MZI on rows (m, m+1).
        for m in range(n - 2, col - 1, -1):
            theta, phi = _left_null_phases(u[m, col], u[m + 1, col])
            t = mzi_transfer(theta, phi)
            u[m:m + 2, :] = t @ u[m:m + 2, :]
            u[m + 1, col] = 0.0
            left_ops.append((m, theta, phi))
    return _finalize(mesh, u, left_ops, n)


def _finalize(mesh: MZIMesh, u: np.ndarray,
              left_ops: list[tuple[int, float, float]], n: int) -> MZIMesh:
    diag = np.diag(u).copy()
    if not np.allclose(np.abs(diag), 1.0, atol=1e-6):
        raise DecompositionError(
            "Reck reduction did not reach a diagonal unitary")
    # U = T_1^dag ... T_k^dag D: commute each dagger through D
    # (innermost/last-recorded first), as in the Clements finalization.
    commuted: list[tuple[int, float, float]] = []
    for m, theta, phi in reversed(left_ops):
        d1, d2 = diag[m], diag[m + 1]
        phi_new = cmath.phase(d1 * d2.conjugate())
        e_theta = cmath.exp(1j * theta)
        diag[m] = -e_theta * cmath.exp(-1j * phi) * d2
        diag[m + 1] = -e_theta * d2
        commuted.append((m, theta, phi_new))
    commuted.reverse()
    # U = D' . T'_1 ... T'_k: rightmost factor hits the input first, so
    # propagation order is the reversed list.
    propagation = [MZIState(m, theta, phi)
                   for m, theta, phi in reversed(commuted)]
    mesh.mzis = _assign_columns(propagation, n)
    mesh.output_phases = diag
    return mesh


def depth_comparison(n: int,
                     rng: np.random.Generator | int | None = None
                     ) -> dict[str, int]:
    """Measured mesh depth (columns) of every registered architecture.

    ``rng`` seeds the sample unitary explicitly (a Generator or an int
    seed; ``None`` = seed 0) — previously the seed was derived from ``n``
    itself, which conflated mesh size with the random draw and made
    cross-size comparisons statistically meaningless.
    """
    from repro.photonics.clements import random_unitary
    from repro.photonics.registry import MESHES, make_mesh
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(0 if rng is None else rng)
    u = random_unitary(n, rng)
    return {name: make_mesh(name).decompose(u).num_columns
            for name in MESHES.names()}
