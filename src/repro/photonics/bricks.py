"""Recirculating brick mesh — the first non-rectangular architecture.

A *brick* is one physical column pair holding ``N - 1`` MZIs: an even
sub-column coupling modes ``(0,1), (2,3), ...`` and an odd sub-column
coupling ``(1,2), (3,4), ...`` (arxiv 2604.18160).  Light recirculates
through the brick, and the drivers reprogram the phases between passes,
so the *virtual* mesh — the program — is as deep as needed while the
hardware stays two sub-columns wide.  The tradeoff the ``mesh_comparison``
sweep quantifies: ~``2/N`` of the devices of a rectangle (so far less
static hold power), but every pass re-incurs the insertion loss of both
sub-columns, and a stuck device pins its phase in *every* pass.

The decomposition reuses the Clements factorization verbatim and only
re-packs the physical column assignment under the parity constraint
(virtual column ``c`` maps to sub-column ``c % 2`` of pass ``c // 2``, so
an MZI on modes ``(m, m+1)`` can only occupy columns with ``c % 2 ==
m % 2``).  The per-mode application order of the 2x2 factors is
unchanged, so programmed phases, reconstructed matrices, and propagation
results are bit-identical to Clements — only the column labels, and with
them the depth/loss/energy accounting, differ.
"""

from __future__ import annotations

import numpy as np

from repro.photonics.clements import MZIMesh, decompose
from repro.photonics.devices import MZIState


def _assign_brick_columns(mzis: tuple[MZIState, ...],
                          n: int) -> list[MZIState]:
    """Greedily pack MZIs into parity-constrained virtual columns.

    Same greedy scheme as :func:`repro.photonics.clements._assign_columns`
    with one extra rule: an MZI on modes ``(m, m+1)`` may only land in a
    column of matching parity, bumping forward one column when the first
    free slot has the wrong one.  Columns stay strictly increasing along
    every mode, so the columnized propagation plan remains valid.
    """
    mode_free_at = [0] * n
    placed: list[MZIState] = []
    for mzi in mzis:
        m = mzi.top_mode
        col = max(mode_free_at[m], mode_free_at[m + 1])
        if col % 2 != m % 2:
            col += 1
        placed.append(MZIState(m, mzi.theta, mzi.phi, col))
        mode_free_at[m] = col + 1
        mode_free_at[m + 1] = col + 1
    return placed


def decompose_bricks(unitary: np.ndarray, tol: float = 1e-9) -> MZIMesh:
    """Factor ``unitary`` into a recirculating-brick mesh program.

    The phases come from the Clements factorization unchanged; only the
    column packing differs.  See the module docstring for why this is
    numerically bit-identical.
    """
    mesh = decompose(unitary, tol)
    return MZIMesh(n=mesh.n, mzis=_assign_brick_columns(mesh.mzis, mesh.n),
                   output_phases=mesh.output_phases)


def bricks_depth(n: int) -> int:
    """Worst-case virtual columns of a size-``n`` brick program.

    The parity bump delays each Clements column by at most one, so the
    ``n``-column rectangle re-packs into at most ``n + 1`` virtual
    columns (measured depths stay at or under this bound).
    """
    if n < 2:
        return 0
    return n + 1


def bricks_device_count(n: int) -> int:
    """Physical MZIs in one brick: the even + odd sub-columns."""
    if n < 2:
        return 0
    return n - 1


def bricks_passes(n: int) -> int:
    """Recirculation passes: each pass covers both sub-columns."""
    depth = bricks_depth(n)
    return (depth + 1) // 2 if depth else 1


def brick_fault_domain(mesh: MZIMesh, index: int) -> tuple[int, ...]:
    """All virtual MZIs served by ``index``'s physical device.

    A physical brick device is identified by its mode pair; every pass
    reuses it, so a stuck device pins the phase of every virtual MZI on
    the same ``top_mode``.
    """
    top = mesh.mzis[index].top_mode
    return tuple(i for i, mzi in enumerate(mesh.mzis)
                 if mzi.top_mode == top)
