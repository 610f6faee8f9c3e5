"""Workload abstraction for the five evaluated applications (Section 4.2).

A workload exposes:

* its **matmul phases** — the linear-algebra kernels eligible for MZIM
  offload, each an ``(rows x cols) @ (cols x vectors)`` product with an
  operand-reuse descriptor;
* its **extra core ops** — the non-offloadable work (address generation,
  gathering receptive fields, entropy coding, ...) that stays on the
  chiplets under every topology;
* **address streams** feeding the cache hierarchy simulation;
* a **golden reference** computation and a photonic execution path, so
  numerical equivalence is testable end to end.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.accelerator import BlockMatmul
from repro.multicore.cache import strided_stream

#: Synthetic memory map: distinct regions so streams don't falsely alias.
WEIGHT_BASE = 0x1000_0000
INPUT_BASE = 0x2000_0000
OUTPUT_BASE = 0x3000_0000
SCRATCH_BASE = 0x4000_0000


@dataclass(frozen=True)
class MatmulPhase:
    """One offloadable matrix-multiplication kernel."""

    name: str
    rows: int
    cols: int
    vectors: int
    #: Times each weight element is reused across the phase (drives both
    #: cache behaviour and the MZIM matrix-switch count).
    weight_reuse: int = 1
    #: Element width in bytes (8-bit quantized throughout the paper).
    elem_b: int = 1

    @property
    def macs(self) -> int:
        return self.rows * self.cols * self.vectors

    @property
    def weight_bytes(self) -> int:
        return self.rows * self.cols * self.elem_b

    @property
    def input_bytes(self) -> int:
        return self.cols * self.vectors * self.elem_b

    @property
    def output_bytes(self) -> int:
        return self.rows * self.vectors * self.elem_b


class Workload(abc.ABC):
    """Interface every benchmark application implements."""

    name: str = "abstract"

    @abc.abstractmethod
    def phases(self) -> list[MatmulPhase]:
        """Offloadable matmul kernels in execution order."""

    @abc.abstractmethod
    def extra_core_ops(self) -> int:
        """Non-offloadable core operations (stay on chiplets always)."""

    @abc.abstractmethod
    def reference(self) -> np.ndarray:
        """Golden CPU (NumPy) result."""

    @abc.abstractmethod
    def photonic(self, mzim_size: int = 8,
                 wavelengths: int = 8) -> np.ndarray:
        """The same computation through :class:`BlockMatmul` circuits."""

    # -- shared helpers ----------------------------------------------------

    def total_macs(self) -> int:
        return sum(p.macs for p in self.phases())

    def address_streams(self):
        """Yield (phase, stream) pairs for cache simulation.

        The default models each phase as: a weight stream repeated
        ``weight_reuse`` times (capped to bound simulation cost — reuse
        beyond a few passes is already fully resident), an input stream,
        and an output stream, at cache-line granularity.  Each stream is
        one int64 array of byte addresses.

        A stream must be a pure function of :meth:`phases`: the system
        model memoizes hierarchy counts keyed by this method and the
        phase list (``repro.core.system._COUNTS_CACHE``), so an override
        that reads any other state would be served stale counts.
        """
        line = 64
        for phase in self.phases():
            repeats = int(np.clip(phase.weight_reuse, 1, 4))
            weight = strided_stream(
                WEIGHT_BASE, max(1, phase.weight_bytes // line), line,
                repeats=repeats)
            inputs = strided_stream(
                INPUT_BASE, max(1, phase.input_bytes // line), line)
            outputs = strided_stream(
                OUTPUT_BASE, max(1, phase.output_bytes // line), line)
            yield phase, np.concatenate((weight, inputs, outputs))

    def block_matmuls(self, mzim_size: int = 8,
                      wavelengths: int = 8) -> dict[str, BlockMatmul]:
        """Precompute the per-phase MZIM programs (the matrix memory load).

        Base implementation raises; workloads that override
        :meth:`photonic` with their own circuits may not need it.
        """
        raise NotImplementedError

    def matrix_key(self, phase: MatmulPhase) -> str:
        return f"{self.name}/{phase.name}"


def verify_photonic(workload: Workload, rtol: float = 1e-6,
                    atol: float = 1e-8) -> float:
    """Max abs error between photonic and reference results."""
    ref = workload.reference()
    opt = workload.photonic()
    if ref.shape != opt.shape:
        raise AssertionError(
            f"{workload.name}: shape mismatch {ref.shape} vs {opt.shape}")
    err = float(np.max(np.abs(ref - opt)))
    scale = float(np.max(np.abs(ref))) or 1.0
    if err > max(atol, rtol * scale):
        raise AssertionError(
            f"{workload.name}: photonic result diverges (err={err})")
    return err
