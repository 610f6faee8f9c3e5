"""Clements decomposition of unitary matrices onto rectangular MZI meshes.

An ``N x N`` unitary is realized by ``N*(N-1)/2`` Mach-Zehnder
interferometers arranged in a rectangular mesh of ``N`` columns, plus a
single column of output phase shifters (Clements et al., *Optica* 2016 —
reference [10] of the paper).  This module implements:

* :func:`decompose` — factor a unitary into an :class:`MZIMesh` program,
* :class:`MZIMesh` — the program, an immutable value: MZI states in
  propagation order plus the output phase screen, with physical column
  assignment,
* :meth:`MZIMesh.matrix` — exact reconstruction (used by tests to verify the
  factorization to machine precision),
* :meth:`MZIMesh.propagate` — forward E-field propagation of input vectors,
  the operation the photonic hardware performs.

The MZI convention is the paper's Eq. (1); see
:func:`repro.photonics.devices.mzi_transfer`.

Derivation notes (kept here because sign conventions are the classic bug
farm of MZIM code): with ``T`` from Eq. (1) acting on modes ``(m, m+1)``,

* right-nulling: ``(U @ T^dag)[r, m] = -j e^{j theta/2}
  (u e^{-j phi} sin(theta/2) + v cos(theta/2))`` with ``u = U[r, m]``,
  ``v = U[r, m+1]``; solved by ``phi = -angle(-v/u)``,
  ``theta = 2 atan(|v/u|)``.
* left-nulling: ``(T @ U)[m+1, c] = j e^{-j theta/2}
  (e^{j phi} cos(theta/2) u - sin(theta/2) v)`` with ``u = U[m, c]``,
  ``v = U[m+1, c]``; solved by ``phi = angle(v/u)``,
  ``theta = 2 atan(|u/v|)``.
* commutation of a daggered left factor through the diagonal:
  ``T^dag(theta, phi) D = D' T(theta, phi')`` with
  ``phi' = angle(d_m conj(d_{m+1}))``,
  ``d'_m = -e^{j theta} e^{-j phi} d_{m+1}`` and
  ``d'_{m+1} = -e^{j theta} d_{m+1}``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.photonics.devices import MZIState, mzi_transfer, mzi_transfers

_NULL_TOL = 1e-12
#: Row offsets of the two modes an MZI couples, ``(top, top + 1)``.
_PAIR = np.array([0, 1], dtype=np.intp)


class DecompositionError(ValueError):
    """Raised when the input matrix is not (numerically) unitary."""


@dataclass(frozen=True, eq=False)
class MZIMesh:
    """A programmed rectangular MZI mesh: an immutable value.

    Attributes
    ----------
    n:
        Number of optical modes (mesh ports).
    mzis:
        MZI states in *propagation order*: ``mzis[0]`` is in the first
        column light encounters.  Stored as a tuple.
    output_phases:
        Complex unit phasors applied at the ``n`` outputs (the Clements
        phase screen).  Stored as a read-only copy; ``None`` means all
        ones.

    A mesh is never written after construction: a different program is
    a new mesh.  So the column plan, the propagation plan and the hop
    matrix are each built at most once per mesh and never invalidated.
    """

    n: int
    mzis: tuple[MZIState, ...] = ()
    output_phases: np.ndarray | None = None

    def __post_init__(self) -> None:
        phases = (np.ones(self.n, dtype=complex)
                  if self.output_phases is None
                  else np.array(self.output_phases, dtype=complex))
        phases.setflags(write=False)
        object.__setattr__(self, "mzis", tuple(self.mzis))
        object.__setattr__(self, "output_phases", phases)

    def __eq__(self, other: object) -> bool:
        """Equal programs: the same MZI states and output phases (the
        array compared by value)."""
        if not isinstance(other, MZIMesh):
            return NotImplemented
        return (self.n == other.n and self.mzis == other.mzis
                and np.array_equal(self.output_phases, other.output_phases))

    def __hash__(self) -> int:
        return hash((self.n, self.mzis))

    def __setstate__(self, state: dict) -> None:
        """Unpickle with the read-only arrays read-only again.

        numpy does not pickle the flag, so ``output_phases`` and a
        memoized hop matrix would otherwise come back writable.
        """
        for name in ("output_phases", "_hops"):
            if name in state:
                state[name].setflags(write=False)
        self.__dict__.update(state)

    @property
    def num_mzis(self) -> int:
        return len(self.mzis)

    @property
    def num_columns(self) -> int:
        """Number of physical mesh columns in use."""
        if not self.mzis:
            return 0
        return 1 + max(mzi.column for mzi in self.mzis)

    @cached_property
    def _column_plan(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The structural plan: ``(mode_pairs, mzi_indices)`` per column.

        Each entry names one mode-disjoint batch (a physical column) as a
        ``(k, 2)`` array of the mode pairs ``(top, top + 1)`` its MZIs
        couple and a ``(k,)`` array of their indices.  It depends only
        on where the MZIs sit, not on their phases.
        """
        return [
            (np.array([self.mzis[i].top_mode for i in batch],
                      dtype=np.intp)[:, np.newaxis] + _PAIR,
             np.array(batch, dtype=np.intp))
            for batch in _disjoint_batches(self.mzis, self.n)
        ]

    @cached_property
    def _propagation_plan(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The columnized plan: ``(mode_pairs, transfers)`` per column.

        Each entry batches the 2x2 transfers of one physical column —
        pairwise-disjoint mode pairs, so they apply in any order — as a
        ``(k, 2)`` row index and a ``(k, 2, 2)`` stacked transfer array.
        """
        transfers = mzi_transfers(
            np.array([mzi.theta for mzi in self.mzis], dtype=float),
            np.array([mzi.phi for mzi in self.mzis], dtype=float))
        return [(rows, transfers[index])
                for rows, index in self._column_plan]

    def matrix(self) -> np.ndarray:
        """Reconstruct the implemented unitary exactly.

        ``matrix() @ a`` equals :meth:`propagate` applied to ``a``: both
        sweep the same plan through :func:`sweep_columns`, this one over
        the identity.
        """
        u = sweep_columns(self._propagation_plan,
                          np.eye(self.n, dtype=complex))
        return np.diag(self.output_phases) @ u

    def propagate(self, fields: np.ndarray) -> np.ndarray:
        """Propagate input E-fields through the mesh.

        Parameters
        ----------
        fields:
            Shape ``(n,)`` for one wavelength or ``(n, p)`` for ``p``
            wavelengths carried simultaneously (WDM); every wavelength sees
            the same broadband MZI transformation (Section 2.2).

        One batched 2x2 matmul per physical column (:func:`sweep_columns`;
        a ``(n,)`` input is swept as ``(n, 1)``) replaces the per-MZI
        Python loop (kept as :meth:`_reference_propagate`); the batched
        form is bit-identical, not merely close — see DESIGN.md §13.
        """
        out = np.array(fields, dtype=complex)
        if out.shape[0] != self.n:
            raise ValueError(
                f"expected leading dimension {self.n}, got {out.shape[0]}")
        sweep_columns(self._propagation_plan,
                      out[:, np.newaxis] if out.ndim == 1 else out)
        phases = self.output_phases
        if out.ndim > 1:
            phases = phases[:, np.newaxis]
        return phases * out

    def _reference_propagate(self, fields: np.ndarray) -> np.ndarray:
        """Per-MZI propagation oracle (the pre-vectorization loop).

        Kept verbatim so property tests can assert the columnized
        :meth:`propagate` reproduces it exactly.
        """
        out = np.asarray(fields, dtype=complex).copy()
        if out.shape[0] != self.n:
            raise ValueError(
                f"expected leading dimension {self.n}, got {out.shape[0]}")
        for mzi in self.mzis:
            m = mzi.top_mode
            out[m:m + 2, ...] = mzi.transfer @ out[m:m + 2, ...]
        phases = self.output_phases
        if out.ndim > 1:
            phases = phases[:, np.newaxis]
        return phases * out

    def mzis_per_path(self) -> np.ndarray:
        """Count MZIs traversed from each input to each output.

        Returns an ``(n, n)`` integer matrix ``hops`` where ``hops[o, i]``
        is the number of MZIs on the *configured* optical path from input
        ``i`` to output ``o``; ``-1`` marks unconnected pairs (no optical
        power flows).  Power is traced through splitting states, so a
        broadcast source has several connected outputs; for splitting paths the
        count is the worst (deepest) branch.  Used for per-path loss
        accounting (Section 5.2).

        Built once per mesh (the fabric asks three times per
        reconfiguration) and returned as a shared read-only array — copy
        before mutating.
        """
        return self._hops

    @cached_property
    def _hops(self) -> np.ndarray:
        hops = _trace_hops(self)
        hops.setflags(write=False)
        return hops

    def column_of(self, index: int) -> int:
        """Physical column of the ``index``-th MZI in propagation order."""
        return self.mzis[index].column


def _trace_hops(mesh: MZIMesh) -> np.ndarray:
    """Exact per-path MZI counts via power tracing, all inputs at once.

    Vectorizes :func:`_reference_trace_hops` across the ``n`` input
    ports: ``power[mode, source]`` starts as the identity and every MZI
    mixes its two mode rows with one batched 2x2 matmul.  The batched
    matmul produces bit-identical powers to the reference's per-input
    ``t @ power[m:m+2]``, so the thresholded integer hop counts are
    exactly equal (asserted by the property tests).
    """
    n = mesh.n
    power = np.eye(n)
    count = np.zeros((n, n), dtype=int)
    for mzi in mesh.mzis:
        m = mzi.top_mode
        p0 = power[m]
        p1 = power[m + 1]
        active = (p0 + p1) > 1e-15
        if not active.any():
            continue
        t = np.abs(mzi.transfer) ** 2
        pairs = np.stack((p0, p1), axis=1)[..., None]  # (n, 2, 1)
        mixed = np.matmul(t, pairs)[..., 0]            # (n, 2)
        # The MZI hop count carried forward is the power-weighted depth.
        depth = np.maximum(np.where(p0 > 1e-15, count[m], 0),
                           np.where(p1 > 1e-15, count[m + 1], 0)) + 1
        new0 = np.where(active, mixed[:, 0], p0)
        new1 = np.where(active, mixed[:, 1], p1)
        count[m] = np.where(active & (new0 > 1e-15), depth, count[m])
        count[m + 1] = np.where(active & (new1 > 1e-15), depth,
                                count[m + 1])
        power[m] = new0
        power[m + 1] = new1
    return np.where(power > 1e-12, count, -1)


def _reference_trace_hops(mesh: MZIMesh) -> np.ndarray:
    """Per-input hop-tracing oracle (the pre-vectorization loop)."""
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


def sweep_columns(plan: list[tuple[np.ndarray, np.ndarray]],
                  out: np.ndarray) -> np.ndarray:
    """Apply a columnized plan in place to ``out`` of shape ``(..., n, q)``.

    ``plan`` holds ``(mode_pairs (k, 2), transfers (..., k, 2, 2))`` per
    physical column, as :attr:`MZIMesh._propagation_plan` holds it (or,
    with a leading fleet axis, :func:`repro.photonics.batch.stack_meshes`).
    Each column mixes its disjoint mode pairs with one stacked 2x2
    ``np.matmul``, gathering and scattering the pairs with one row
    index: the one kernel behind :meth:`MZIMesh.propagate`,
    :meth:`MZIMesh.matrix`,
    :meth:`~repro.photonics.calibration.PhysicalMesh.measure` and
    :func:`~repro.photonics.batch.propagate_stacked`.  Returns ``out``.
    """
    for rows, transfers in plan:
        out[..., rows, :] = np.matmul(transfers, out[..., rows, :])
    return out


def _disjoint_batches(mzis: tuple[MZIState, ...], n: int) -> list[list[int]]:
    """Group propagation-order MZIs (by index) into mode-disjoint batches.

    Prefers the physical column assignment (:func:`_assign_columns`
    guarantees strictly increasing columns along every shared mode, so
    applying whole columns in ascending order feeds every MZI exactly
    the operands the propagation-order loop would).  Hand-built meshes
    without a consistent assignment fall back to greedy segmentation:
    cut a new batch whenever an incoming MZI touches a mode already
    used in the current one.
    """
    last_col = [-1] * n
    by_col: dict[int, list[int]] = {}
    for i, mzi in enumerate(mzis):
        col = mzi.column
        m = mzi.top_mode
        if col < 0 or col <= last_col[m] or col <= last_col[m + 1]:
            break  # inconsistent columns: fall back to segmentation
        last_col[m] = last_col[m + 1] = col
        by_col.setdefault(col, []).append(i)
    else:
        return [by_col[col] for col in sorted(by_col)]
    batches: list[list[int]] = []
    current: list[int] = []
    used: set[int] = set()
    for i, mzi in enumerate(mzis):
        m = mzi.top_mode
        if m in used or m + 1 in used:
            batches.append(current)
            current = []
            used = set()
        current.append(i)
        used.add(m)
        used.add(m + 1)
    if current:
        batches.append(current)
    return batches


def _assign_columns(mzis: list[MZIState], n: int) -> list[MZIState]:
    """Greedily pack MZIs (in propagation order) into physical columns."""
    mode_free_at = [0] * n  # earliest column each mode is free
    placed: list[MZIState] = []
    for mzi in mzis:
        m = mzi.top_mode
        col = max(mode_free_at[m], mode_free_at[m + 1])
        placed.append(MZIState(m, mzi.theta, mzi.phi, col))
        mode_free_at[m] = col + 1
        mode_free_at[m + 1] = col + 1
    return placed


def _right_null_phases(u: complex, v: complex) -> tuple[float, float]:
    """Phases nulling ``u e^{-j phi} sin + v cos`` (right-multiplication)."""
    if abs(u) < _NULL_TOL and abs(v) < _NULL_TOL:
        return 0.0, 0.0
    if abs(u) < _NULL_TOL:
        return math.pi, 0.0
    phi = -cmath.phase(-v / u) if abs(v) >= _NULL_TOL else 0.0
    theta = 2.0 * math.atan(abs(v) / abs(u))
    return theta, phi


def _left_null_phases(u: complex, v: complex) -> tuple[float, float]:
    """Phases nulling ``e^{j phi} cos u - sin v`` (left-multiplication)."""
    if abs(u) < _NULL_TOL and abs(v) < _NULL_TOL:
        return 0.0, 0.0
    if abs(v) < _NULL_TOL:
        return math.pi, 0.0
    phi = cmath.phase(v / u) if abs(u) >= _NULL_TOL else 0.0
    theta = 2.0 * math.atan(abs(u) / abs(v))
    return theta, phi


def _apply_right_dagger(u_mat: np.ndarray, m: int, theta: float,
                        phi: float) -> None:
    """In-place ``u_mat <- u_mat @ T^dag`` on columns ``(m, m+1)``."""
    t_dag = mzi_transfer(theta, phi).conj().T
    u_mat[:, m:m + 2] = u_mat[:, m:m + 2] @ t_dag


def _apply_left(u_mat: np.ndarray, m: int, theta: float, phi: float) -> None:
    """In-place ``u_mat <- T @ u_mat`` on rows ``(m, m+1)``."""
    t = mzi_transfer(theta, phi)
    u_mat[m:m + 2, :] = t @ u_mat[m:m + 2, :]


def is_unitary(matrix: np.ndarray, tol: float = 1e-9) -> bool:
    """Check unitarity: ``U^dag U == I`` within ``tol``."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    n = matrix.shape[0]
    return bool(np.allclose(matrix.conj().T @ matrix, np.eye(n), atol=tol))


def decompose(unitary: np.ndarray, tol: float = 1e-9) -> MZIMesh:
    """Factor ``unitary`` into a rectangular MZI mesh program.

    Returns an :class:`MZIMesh` whose :meth:`~MZIMesh.matrix` reproduces the
    input to machine precision.  Raises :class:`DecompositionError` when the
    input is not unitary.
    """
    u = np.array(unitary, dtype=complex)
    if not is_unitary(u, tol):
        raise DecompositionError("input matrix is not unitary")
    n = u.shape[0]
    if n == 1:
        return MZIMesh(n=1, output_phases=u[0])

    left_ops: list[tuple[int, float, float]] = []   # (mode, theta, phi)
    right_ops: list[tuple[int, float, float]] = []

    for diag in range(n - 1):
        if diag % 2 == 0:
            # Null along the diagonal from the right: U <- U @ T^dag.
            for j in range(diag + 1):
                row, col = n - 1 - j, diag - j
                theta, phi = _right_null_phases(u[row, col], u[row, col + 1])
                _apply_right_dagger(u, col, theta, phi)
                u[row, col] = 0.0
                right_ops.append((col, theta, phi))
        else:
            # Null along the diagonal from the left: U <- T @ U.
            for j in range(diag + 1):
                row, col = n - 1 - diag + j, j
                m = row - 1
                theta, phi = _left_null_phases(u[m, col], u[row, col])
                _apply_left(u, m, theta, phi)
                u[row, col] = 0.0
                left_ops.append((m, theta, phi))

    diag_phases = np.diag(u).copy()
    if not np.allclose(np.abs(diag_phases), 1.0, atol=1e-6):
        raise DecompositionError(
            "reduction did not terminate in a diagonal unitary; "
            "input was probably not unitary enough")

    # U = T^dag_L1 ... T^dag_Lk  D  T_Rm ... T_R1.  Commute each daggered
    # left factor through D (innermost, i.e. last-recorded, first).
    commuted: list[tuple[int, float, float]] = []
    for m, theta, phi in reversed(left_ops):
        d1, d2 = diag_phases[m], diag_phases[m + 1]
        phi_new = cmath.phase(d1 * d2.conjugate())
        e_theta = cmath.exp(1j * theta)
        diag_phases[m] = -e_theta * cmath.exp(-1j * phi) * d2
        diag_phases[m + 1] = -e_theta * d2
        commuted.append((m, theta, phi_new))
    commuted.reverse()

    # U = D' . T'_L1 ... T'_Lk . T_Rm ... T_R1: the product applies the
    # rightmost factor to the input first, so propagation order is the
    # reversed factor list.
    factor_order = commuted + list(reversed(right_ops))
    propagation = [MZIState(m, theta, phi)
                   for m, theta, phi in reversed(factor_order)]
    return MZIMesh(n=n, mzis=_assign_columns(propagation, n),
                   output_phases=diag_phases)


def random_unitary(n: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Draw a Haar-random ``n x n`` unitary (QR of a complex Ginibre matrix)."""
    rng = rng or np.random.default_rng()
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    # Normalize phases so the distribution is Haar.
    d = np.diag(r)
    return q * (d / np.abs(d))
