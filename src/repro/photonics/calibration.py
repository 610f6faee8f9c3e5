"""In-situ self-configuration of MZI meshes (paper references [10, 15]).

Fabricated meshes never match their design: every phase shifter carries a
systematic offset (fabrication nonuniformity, thermal crosstalk bias).
Self-configuration programs the *physical* mesh to implement a target
unitary anyway, using only measurable quantities — here, the transfer
matrix obtained by injecting basis vectors and reading the detector
array, which is exactly what a Flumen endpoint's transceivers provide.

The algorithm is matrix inversion (:func:`calibrate_by_decomposition`):
the decomposition that programs the mesh is applied to the
*measured* matrix, which recovers the realized phases and hence the
hidden offsets; reprogramming around them lands on the target to
machine precision in one or two iterations.  A stuck phase cannot be
programmed around this way; the fault ladder escalates past it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.photonics.clements import MZIMesh, sweep_columns
from repro.photonics.devices import mzi_transfers
from repro.photonics.registry import decomposer


@dataclass
class PhaseOffsets:
    """Systematic per-MZI phase errors of a fabricated mesh."""

    theta: np.ndarray
    phi: np.ndarray

    @classmethod
    def random(cls, num_mzis: int, sigma_rad: float,
               rng: np.random.Generator | None = None) -> "PhaseOffsets":
        rng = rng or np.random.default_rng(0)
        return cls(theta=rng.normal(0.0, sigma_rad, num_mzis),
                   phi=rng.normal(0.0, sigma_rad, num_mzis))

    @classmethod
    def none(cls, num_mzis: int) -> "PhaseOffsets":
        return cls(theta=np.zeros(num_mzis), phi=np.zeros(num_mzis))


class PhysicalMesh:
    """A fabricated mesh: programmed phases plus hidden offsets.

    The calibration code may only call :meth:`measure` (the transfer
    matrix, as a real lab would reconstruct it from basis injections) and
    :meth:`program` — never read the offsets.

    The structure (which modes each MZI couples, in which column) and the
    output phase screen are fixed at fabrication: both are read from
    ``ideal``, an immutable mesh.
    """

    def __init__(self, ideal: MZIMesh, offsets: PhaseOffsets) -> None:
        expected = (ideal.num_mzis,)
        for name in ("theta", "phi"):
            shape = np.shape(getattr(offsets, name))
            if shape != expected:
                raise ValueError(
                    f"offsets.{name} has shape {shape}, expected "
                    f"{expected} (one per MZI)")
        self._structure = ideal
        self._offsets = offsets
        self._columns = ideal._column_plan
        self.programmed = np.array(
            [[mzi.theta, mzi.phi] for mzi in ideal.mzis], dtype=float
        ).reshape(ideal.num_mzis, 2)
        self.measurements = 0
        #: Single-slot memo: (realized-phase bytes, transfer matrix).
        self._memo: tuple[bytes, np.ndarray] | None = None

    @property
    def num_mzis(self) -> int:
        return self._structure.num_mzis

    def program(self, index: int, theta: float, phi: float) -> None:
        """Set the programmed (pre-offset) phases of one MZI."""
        self.programmed[index] = (theta, phi)

    def _phases(self) -> tuple[np.ndarray, np.ndarray]:
        """Realized ``(theta, phi)`` arrays: programmed plus offsets,
        ``theta`` clipped to the physical range ``[0, pi]``."""
        theta = np.clip(self.programmed[:, 0] + self._offsets.theta,
                        0.0, math.pi)
        phi = self.programmed[:, 1] + self._offsets.phi
        return theta, phi

    def measure(self) -> np.ndarray:
        """The physically realized transfer matrix (basis injections).

        The matrix is a pure function of the realized phases, so it is
        memoized on their bytes; the key is recomputed on every call, so
        any write to ``programmed`` or the offsets misses.  Every call
        counts as a measurement and returns a fresh copy.
        """
        self.measurements += 1
        theta, phi = self._phases()
        key = theta.tobytes() + phi.tobytes()
        memo = self._memo
        if memo is None or memo[0] != key:
            transfers = mzi_transfers(theta, phi)
            plan = [(rows, transfers[index]) for rows, index in self._columns]
            n = self._structure.n
            u = sweep_columns(plan, np.eye(n, dtype=complex))
            memo = (key, np.diag(self._structure.output_phases) @ u)
            self._memo = memo
        return memo[1].copy()


def matrix_error(measured: np.ndarray, target: np.ndarray) -> float:
    """Normalized Frobenius error between transfer matrices."""
    return float(np.linalg.norm(measured - target)
                 / np.linalg.norm(target))


@dataclass
class CalibrationResult:
    initial_error: float
    final_error: float
    sweeps_used: int
    measurements: int
    history: list[float] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        if self.final_error <= 0:
            return math.inf
        return self.initial_error / self.final_error


def calibrate_by_decomposition(mesh: PhysicalMesh, target: np.ndarray,
                               iterations: int = 2,
                               architecture: str | None = None
                               ) -> CalibrationResult:
    """Matrix-inversion self-configuration: one-shot offset estimation.

    Because the mesh factorization of a generic unitary is unique given
    the mesh structure, decomposing the *measured* transfer matrix
    recovers the physically realized phases; subtracting the programmed
    values yields the hidden offsets, and reprogramming
    ``ideal - offset`` lands on the target to machine precision.  A
    second iteration mops up ``theta`` values that clipped at the
    physical range boundary.

    ``architecture`` must match the arrangement ``mesh`` was decomposed
    with (registry name; ``None`` = Clements) so the recovered factor
    order lines up with the mesh's propagation order.

    This is the calibration a controller with full transceiver access
    runs (Hamerly et al., reference [15]).
    """
    decompose_fn = decomposer(architecture)
    target = np.asarray(target, dtype=complex)
    ideal = decompose_fn(target)
    initial = matrix_error(mesh.measure(), target)
    history = [initial]
    for _ in range(iterations):
        estimated = decompose_fn(mesh.measure())
        for i in range(mesh.num_mzis):
            est_theta = estimated.mzis[i].theta
            est_phi = estimated.mzis[i].phi
            d_theta = est_theta - mesh.programmed[i, 0]
            d_phi = (est_phi - mesh.programmed[i, 1] + math.pi) \
                % (2 * math.pi) - math.pi
            mesh.program(i,
                         ideal.mzis[i].theta - d_theta,
                         ideal.mzis[i].phi - d_phi)
        history.append(matrix_error(mesh.measure(), target))
        if history[-1] < 1e-10:
            break
    return CalibrationResult(
        initial_error=initial,
        final_error=history[-1],
        sweeps_used=len(history) - 1,
        measurements=mesh.measurements,
        history=history,
    )


def calibrate_to(target: np.ndarray, offsets: PhaseOffsets, *,
                 architecture: str | None = None) -> CalibrationResult:
    """Convenience wrapper: decompose, fabricate with offsets, calibrate.

    ``architecture`` selects the mesh arrangement (registry name;
    ``None`` = Clements).
    """
    decompose_fn = decomposer(architecture)
    mesh = PhysicalMesh(decompose_fn(np.asarray(target, dtype=complex)),
                        offsets)
    return calibrate_by_decomposition(mesh, target,
                                      architecture=architecture)
