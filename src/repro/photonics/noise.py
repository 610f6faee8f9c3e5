"""Analog precision model: quantization and detector noise (Section 3.1.1).

Flumen performs "8-bit equivalent analog computation" (Table 1).  This
module provides:

* symmetric uniform quantizers for inputs/weights (the digital side of the
  DAC/ADC boundary),
* a detector noise model combining shot noise, laser relative intensity
  noise (RIN) and TIA thermal noise, from the Table 2 device parameters,
* :func:`effective_bits` — the ENOB the analog chain sustains at a given
  received optical power, and
* :class:`AnalogMVM` — a noisy forward operator wrapping an
  :class:`~repro.photonics.svd.SVDProgram`, used by tests and examples to
  check end-to-end numerical fidelity against float references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.config import DeviceParams
from repro.photonics.svd import SVDProgram

#: Electron charge, coulombs.
_Q = 1.602176634e-19
#: Boltzmann constant, J/K.
_KB = 1.380649e-23
#: TIA input-referred noise temperature proxy, kelvin.
_T = 300.0
#: TIA effective feedback resistance, ohms (typical 10 Gb/s design).
_R_TIA = 5.0e3


def quantize(values: np.ndarray, bits: int,
             full_scale: float | None = None) -> np.ndarray:
    """Symmetric uniform quantization to ``bits`` (mid-rise, clipped).

    ``full_scale`` defaults to the max absolute input, so the quantizer
    always uses its full range — matching a DAC driven after digital
    pre-scaling.
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    values = np.asarray(values, dtype=float)
    scale = full_scale if full_scale is not None else \
        float(np.max(np.abs(values))) if values.size else 1.0
    if scale == 0.0:
        return np.zeros_like(values)
    levels = 2 ** (bits - 1) - 1
    q = np.round(np.clip(values / scale, -1.0, 1.0) * levels) / levels
    return q * scale


def quantization_snr_db(bits: int) -> float:
    """Ideal quantizer SNR: 6.02 * bits + 1.76 dB."""
    return 6.02 * bits + 1.76


def snr_to_enob(snr_db: float) -> float:
    """Effective number of bits for a given SNR."""
    return (snr_db - 1.76) / 6.02


@dataclass
class DetectorNoiseModel:
    """Photocurrent noise at the receiver for one analog symbol."""

    devices: DeviceParams = field(default_factory=DeviceParams)
    bandwidth_hz: float = 5.0e9  # compute input modulation rate

    def noise_current_std_a(self, optical_power_w: float) -> float:
        """RMS noise current for a given received optical power."""
        d = self.devices
        photocurrent = d.photodiode.responsivity_a_per_w * optical_power_w
        shot = 2.0 * _Q * (photocurrent + d.photodiode.dark_current_a) \
            * self.bandwidth_hz
        rin_linear = 10.0 ** (d.laser.rin_db_per_hz / 10.0)
        rin = rin_linear * photocurrent ** 2 * self.bandwidth_hz
        thermal = 4.0 * _KB * _T * self.bandwidth_hz / _R_TIA
        return math.sqrt(shot + rin + thermal)

    def snr_db(self, optical_power_w: float) -> float:
        """Electrical SNR of a full-scale symbol at the given power."""
        signal = self.devices.photodiode.responsivity_a_per_w \
            * optical_power_w
        noise = self.noise_current_std_a(optical_power_w)
        if noise <= 0.0:
            return math.inf
        return 20.0 * math.log10(signal / noise)


def effective_bits(optical_power_w: float,
                   devices: DeviceParams | None = None,
                   bandwidth_hz: float = 5.0e9) -> float:
    """ENOB the analog detection chain sustains at ``optical_power_w``."""
    model = DetectorNoiseModel(devices or DeviceParams(), bandwidth_hz)
    return snr_to_enob(model.snr_db(optical_power_w))


def power_for_bits(bits: float, devices: DeviceParams | None = None,
                   bandwidth_hz: float = 5.0e9) -> float:
    """Received optical power (W) needed for a target ENOB (bisection).

    Returns ``math.inf`` when the target is unreachable at any power: the
    laser RIN noise scales with signal power squared, so SNR saturates at
    ``1 / (RIN * bandwidth)`` — at 5 GHz and -140 dBc/Hz that caps ENOB
    near 6.9, which is why analog designs average samples or reduce
    bandwidth to reach the paper's 8-bit equivalence.
    """
    lo, hi = 1e-9, 1.0
    if effective_bits(hi, devices, bandwidth_hz) < bits:
        return math.inf
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if effective_bits(mid, devices, bandwidth_hz) < bits:
            lo = mid
        else:
            hi = mid
    return hi


def perturb_mesh_phases(mesh, sigma_rad: float,
                        rng: np.random.Generator | None = None):
    """Return a mesh copy with Gaussian phase drift on every MZI.

    Models thermal drift / crosstalk on the phase shifters.  The paper
    argues MZIs tolerate thermal effects better than MRRs (Section 6);
    this function lets experiments quantify how much drift the computation
    survives.
    """
    from repro.photonics.clements import MZIMesh

    rng = rng or np.random.default_rng(0)
    perturbed = [
        mzi.with_phases(
            float(np.clip(mzi.theta + rng.normal(0.0, sigma_rad),
                          0.0, math.pi)),
            mzi.phi + rng.normal(0.0, sigma_rad))
        for mzi in mesh.mzis
    ]
    return MZIMesh(n=mesh.n, mzis=perturbed,
                   output_phases=mesh.output_phases)


def drift_tolerance(matrix: np.ndarray, sigmas_rad,
                    seed: int = 0) -> dict[float, float]:
    """Relative matrix error versus per-MZI phase drift (radians RMS)."""
    from repro.photonics.svd import SVDProgram, program_svd

    program = program_svd(np.asarray(matrix, dtype=float))
    scale = float(np.max(np.abs(matrix))) or 1.0
    rng = np.random.default_rng(seed)
    out: dict[float, float] = {}
    for sigma in sigmas_rad:
        drifted = SVDProgram(
            n=program.n,
            v_dagger_mesh=perturb_mesh_phases(
                program.v_dagger_mesh, sigma, rng),
            u_mesh=perturb_mesh_phases(program.u_mesh, sigma, rng),
            sigma=program.sigma,
            scale=program.scale,
        )
        approx = (drifted.scale * drifted.matrix()).real
        out[sigma] = float(np.max(np.abs(approx - matrix))) / scale
    return out


def quantize_phase(value: float, bits: int, span: float) -> float:
    """Quantize a phase to ``bits`` DAC resolution over ``[0, span]``."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    levels = 2 ** bits - 1
    step = span / levels
    return round(value / step) * step


def quantize_mesh_phases(mesh, bits: int):
    """Return a copy of an MZI mesh with DAC-quantized phases.

    Models the finite resolution of the phase-shifter DACs (Section 3.1.1:
    computation needs "higher accuracy modulation" — this function is how
    the repo quantifies that).  theta spans [0, pi], phi spans [0, 2*pi);
    output phases are re-quantized in angle.
    """
    import cmath

    from repro.photonics.clements import MZIMesh

    quantized = [
        mzi.with_phases(quantize_phase(mzi.theta, bits, math.pi),
                        quantize_phase(mzi.phi % (2 * math.pi), bits,
                                       2 * math.pi))
        for mzi in mesh.mzis
    ]
    return MZIMesh(n=mesh.n, mzis=quantized, output_phases=[
        cmath.exp(1j * quantize_phase(
            cmath.phase(p) % (2 * math.pi), bits, 2 * math.pi))
        for p in mesh.output_phases])


def quantize_svd_phases(program, bits: int):
    """DAC-quantize a full SVD MZIM program (both meshes + attenuators)."""
    from repro.photonics.svd import SVDProgram

    sigma_theta = [quantize_phase(t, bits, math.pi)
                   for t in program.attenuator_thetas]
    sigma = np.array([math.sin(t / 2.0) for t in sigma_theta])
    return SVDProgram(
        n=program.n,
        v_dagger_mesh=quantize_mesh_phases(program.v_dagger_mesh, bits),
        u_mesh=quantize_mesh_phases(program.u_mesh, bits),
        sigma=sigma,
        scale=program.scale,
    )


def matrix_fidelity_vs_bits(matrix, bit_range) -> dict[int, float]:
    """Relative matrix error after phase quantization, per DAC bit depth.

    The ablation behind the paper's 6 ns "more accurate" compute
    programming: coarse DACs are fast but corrupt the implemented matrix.
    """
    from repro.photonics.svd import program_svd

    matrix = np.asarray(matrix, dtype=float)
    program = program_svd(matrix)
    scale = float(np.max(np.abs(matrix))) or 1.0
    out: dict[int, float] = {}
    for bits in bit_range:
        q = quantize_svd_phases(program, bits)
        approx = (q.scale * q.matrix()).real
        out[bits] = float(np.max(np.abs(approx - matrix))) / scale
    return out


def wdm_crosstalk_matrix(channels: int, crosstalk_db: float) -> np.ndarray:
    """Power-coupling matrix between adjacent WDM channels.

    A demux ring passes a fraction ``10^(-xt/10)`` of each neighbouring
    channel's power into the wrong detector.  Rows are receive channels;
    the matrix is applied to per-channel detected values.
    """
    if channels < 1:
        raise ValueError("need at least one channel")
    leak = 10.0 ** (-crosstalk_db / 10.0)
    m = np.eye(channels) * (1.0 - 2.0 * leak)
    for c in range(channels - 1):
        m[c, c + 1] += leak
        m[c + 1, c] += leak
    m[0, 0] += leak       # edge channels have one neighbour only
    m[-1, -1] += leak
    return m


@dataclass
class AnalogMVM:
    """Noisy analog matrix-vector multiply through an SVD MZIM.

    Inputs and weights are quantized to ``bits``; outputs pick up additive
    Gaussian noise scaled from the detector model at the configured
    received power, then are re-quantized by the ADC.  When a batch rides
    multiple WDM channels, adjacent channels leak into each other at
    ``crosstalk_db`` (30 dB default — 100 GHz-spaced rings; set ``None``
    to disable).
    """

    program: SVDProgram
    bits: int = 8
    received_power_w: float = 50.0e-6
    devices: DeviceParams = field(default_factory=DeviceParams)
    bandwidth_hz: float = 5.0e9
    crosstalk_db: float | None = 30.0
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0))

    def __call__(self, vectors: np.ndarray) -> np.ndarray:
        """Compute ``M @ vectors`` through the analog chain."""
        vectors = np.asarray(vectors, dtype=float)
        scale_in = float(np.max(np.abs(vectors))) or 1.0
        q_in = quantize(vectors, self.bits, scale_in)
        ideal = self.program.propagate(q_in.astype(complex))
        # Analog outputs are detected as real amplitudes; the MZIM keeps
        # real matrices real up to a global phase.
        detected = ideal.real if np.allclose(ideal.imag, 0.0, atol=1e-9) \
            else np.abs(ideal) * np.sign(ideal.real + 1e-300)
        if self.crosstalk_db is not None and detected.ndim > 1 \
                and detected.shape[1] > 1:
            xt = wdm_crosstalk_matrix(detected.shape[1], self.crosstalk_db)
            detected = detected @ xt.T
        model = DetectorNoiseModel(self.devices, self.bandwidth_hz)
        snr_db = model.snr_db(self.received_power_w)
        # Detector noise is referred to the optical input full scale.
        noise_std = scale_in * 10.0 ** (-snr_db / 20.0)
        noisy = detected + self.rng.normal(0.0, noise_std, detected.shape)
        # The ADC range must cover the output's 2-norm bound: with
        # sigma <= 1, |b_i| <= ||a||_2 <= sqrt(N) * max|a| — a DCT's DC
        # term actually reaches it, so a tighter range would clip.
        adc_scale = scale_in * math.sqrt(self.program.n)
        adc_out = quantize(noisy, self.bits, adc_scale)
        return self.program.scale * adc_out

    def reference(self, vectors: np.ndarray) -> np.ndarray:
        """Float (noiseless, unquantized) reference product."""
        return self.program.scale * \
            self.program.propagate(np.asarray(vectors, dtype=complex)).real
