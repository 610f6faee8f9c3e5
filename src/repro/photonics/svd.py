"""SVD MZIM circuits: non-unitary matrix multiplication in the optical domain.

Section 3.1.1 / Figure 4 of the paper: an arbitrary matrix ``M`` is realized
as ``M = U @ Sigma @ V*`` where ``U`` and ``V*`` are unitary MZI meshes and
``Sigma`` is a column of attenuating MZIs.  Because attenuators cannot
amplify, ``M`` must first be scaled by its spectral norm so that all singular
values fall in ``[0, 1]`` (Section 3.3.1); the electronic side scales the
result back after detection.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.photonics.clements import MZIMesh
from repro.photonics.registry import decomposer


@dataclass(frozen=True, eq=False)
class SVDProgram:
    """A programmed SVD MZIM: ``M_s = U @ diag(sigma) @ V*``.

    ``scale`` is the factor removed from the original matrix so the
    implemented singular values obey ``0 <= sigma_i <= 1``; callers multiply
    detected outputs by ``scale`` to recover ``M @ a``.

    A program is an immutable value, like its two meshes: ``sigma`` is
    stored as a read-only copy, and a different program is a new
    object.  So :func:`program_svd` can hand the same cached program to
    every caller.
    """

    n: int
    v_dagger_mesh: MZIMesh
    u_mesh: MZIMesh
    sigma: np.ndarray
    scale: float

    def __post_init__(self) -> None:
        sigma = np.array(self.sigma)
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)

    def __eq__(self, other: object) -> bool:
        """Equal programs: equal meshes, scale and ``sigma`` (the array
        compared by value)."""
        if not isinstance(other, SVDProgram):
            return NotImplemented
        return (self.n == other.n and self.scale == other.scale
                and self.v_dagger_mesh == other.v_dagger_mesh
                and self.u_mesh == other.u_mesh
                and np.array_equal(self.sigma, other.sigma))

    def __hash__(self) -> int:
        return hash((self.n, self.v_dagger_mesh, self.u_mesh, self.scale))

    def __setstate__(self, state: dict) -> None:
        """Unpickle with ``sigma`` read-only again (numpy does not
        pickle the flag)."""
        state["sigma"].setflags(write=False)
        self.__dict__.update(state)

    @property
    def attenuator_thetas(self) -> np.ndarray:
        """theta programming of the Sigma attenuator column (power = sigma^2).

        An attenuating MZI transmits amplitude ``sin(theta/2)``, so a
        singular value ``sigma`` needs ``theta = 2 asin(sigma)`` (the E-field
        carries ``sigma`` directly, power carries ``sigma^2``).
        """
        return np.array([2.0 * math.asin(min(1.0, s)) for s in self.sigma])

    @property
    def num_mzis(self) -> int:
        """MZIs used: two unitary meshes plus the attenuator column = N^2."""
        return self.v_dagger_mesh.num_mzis + self.u_mesh.num_mzis + self.n

    def matrix(self) -> np.ndarray:
        """Reconstruct the *scaled* implemented matrix ``M / scale``."""
        return (self.u_mesh.matrix()
                @ np.diag(self.sigma.astype(complex))
                @ self.v_dagger_mesh.matrix())

    def propagate(self, fields: np.ndarray) -> np.ndarray:
        """Optical forward pass: ``(M / scale) @ fields`` on E-fields.

        ``fields`` may be ``(n,)`` or ``(n, p)`` for ``p`` WDM wavelengths
        (Section 3.3.1: each input vector rides its own wavelength).
        """
        mid = self.v_dagger_mesh.propagate(fields)
        sig = self.sigma[:, np.newaxis] if mid.ndim > 1 else self.sigma
        return self.u_mesh.propagate(sig * mid)

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """Full matrix product with rescaling: returns ``M @ vectors``."""
        return self.scale * self.propagate(vectors)


def spectral_scale(matrix: np.ndarray) -> float:
    """Spectral norm ``||M||_2`` used to pre-scale matrices (Section 3.3.1).

    Returns 1.0 for an all-zero matrix so division is always safe.
    """
    norm = float(np.linalg.norm(matrix, ord=2)) if matrix.size else 0.0
    return norm if norm > 0.0 else 1.0


#: Content-hash cache of programmed SVD circuits.  Repeated offloads of
#: the same workload matrix (every sweep point re-programs the same
#: blocks) skip the SVD + double Clements decomposition entirely, and
#: reuse the propagation plans the cached meshes already built.
_SVD_CACHE: OrderedDict[tuple, SVDProgram] = OrderedDict()
_SVD_CACHE_CAPACITY = 128
_svd_cache_hits = 0
_svd_cache_misses = 0


def _matrix_key(m: np.ndarray, architecture: str) -> tuple:
    digest = hashlib.sha256(np.ascontiguousarray(m).tobytes()).hexdigest()
    return (m.shape, digest, architecture)


def svd_cache_stats() -> dict:
    """Hit/miss/size counters for the :func:`program_svd` memo."""
    return {"hits": _svd_cache_hits, "misses": _svd_cache_misses,
            "size": len(_SVD_CACHE), "capacity": _SVD_CACHE_CAPACITY}


def clear_svd_cache() -> None:
    """Drop all memoized SVD programs and reset the counters."""
    global _svd_cache_hits, _svd_cache_misses
    _SVD_CACHE.clear()
    _svd_cache_hits = 0
    _svd_cache_misses = 0


def program_svd(matrix: np.ndarray,
                architecture: str | None = None) -> SVDProgram:
    """Program an ``N x N`` SVD MZIM to implement ``matrix``.

    The matrix must be square (pad with :func:`repro.core.accelerator.pad_to_blocks`
    first); it may be complex.  Raises ``ValueError`` for non-square input.
    ``architecture`` picks the mesh arrangement from
    :mod:`repro.photonics.registry` (``None`` = the Clements default).

    Programs are memoized by matrix content hash + architecture name
    (LRU, 128 entries).  Programs are immutable, so a hit returns the
    cached :class:`SVDProgram` itself.
    """
    global _svd_cache_hits, _svd_cache_misses
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"SVD MZIM needs a square matrix, got {m.shape}")
    arch_name = "clements" if architecture is None else architecture
    key = _matrix_key(m, arch_name)
    cached = _SVD_CACHE.get(key)
    if cached is not None:
        _SVD_CACHE.move_to_end(key)
        _svd_cache_hits += 1
        return cached
    _svd_cache_misses += 1
    decompose_fn = decomposer(architecture)
    scale = spectral_scale(m)
    u, sigma, v_dagger = np.linalg.svd(m / scale)
    sigma = np.clip(sigma, 0.0, 1.0)  # numerical guard: sigma_max == 1
    program = SVDProgram(
        n=m.shape[0],
        v_dagger_mesh=decompose_fn(v_dagger),
        u_mesh=decompose_fn(u),
        sigma=sigma,
        scale=scale,
    )
    _SVD_CACHE[key] = program
    while len(_SVD_CACHE) > _SVD_CACHE_CAPACITY:
        _SVD_CACHE.popitem(last=False)
    return program


@dataclass(frozen=True)
class UnitaryProgram:
    """A unitary matrix programmed directly into one mesh (no Sigma).

    Orthogonal/unitary kernels — JPEG's DCT matrix, rotation matrices —
    skip the SVD structure entirely: one N-column mesh of N(N-1)/2 MZIs
    instead of the 2N+1-column, N^2-MZI SVD circuit (Section 5.4.1 maps
    the DCT onto "the full 8-input unitary MZIM").  Half the optical
    depth means less loss and faster programming.  Like
    :class:`SVDProgram`, an immutable value.
    """

    n: int
    mesh: MZIMesh

    #: Unitary matrices need no rescaling.
    scale: float = 1.0

    @property
    def num_mzis(self) -> int:
        return self.mesh.num_mzis

    @property
    def mesh_columns(self) -> int:
        return self.mesh.num_columns

    def matrix(self) -> np.ndarray:
        return self.mesh.matrix()

    def propagate(self, fields: np.ndarray) -> np.ndarray:
        return self.mesh.propagate(fields)

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """Matrix product: exact, no spectral-norm bookkeeping needed."""
        return self.propagate(vectors)


def is_unitary_matrix(matrix: np.ndarray, tol: float = 1e-9) -> bool:
    """Unitarity check used to pick the single-mesh compute path."""
    from repro.photonics.clements import is_unitary
    return is_unitary(np.asarray(matrix, dtype=complex), tol)


def program_unitary(matrix: np.ndarray,
                    architecture: str | None = None) -> UnitaryProgram:
    """Program a unitary kernel onto a single mesh.

    Raises ``ValueError`` when the matrix is not unitary — use
    :func:`program_svd` for general matrices.
    """
    m = np.asarray(matrix, dtype=complex)
    if not is_unitary_matrix(m):
        raise ValueError("matrix is not unitary; use program_svd")
    return UnitaryProgram(n=m.shape[0], mesh=decomposer(architecture)(m))


def program_matrix(matrix: np.ndarray, architecture: str | None = None):
    """Program whichever circuit fits: single mesh if unitary, else SVD."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim == 2 and m.shape[0] == m.shape[1] and is_unitary_matrix(m):
        return program_unitary(m, architecture)
    return program_svd(m, architecture)


def mvm_digital_op_count(n: int) -> tuple[int, int]:
    """Digital-domain cost of one ``N x N`` MVM the MZIM replaces.

    Returns ``(multiplications, additions) = (N^2, N*(N-1))`` —
    Section 3.3.1's accounting of the work a single optical pass performs.
    """
    return n * n, n * (n - 1)
