"""Analytic photonic device models.

Every device used by the Flumen fabric is modelled at the transfer-matrix /
dB-loss level, which is the abstraction the paper extracts from Lumerical
INTERCONNECT: exact complex E-field transformations plus per-device optical
loss and electrical power.

The central device is the Mach-Zehnder interferometer (MZI).  Its transfer
matrix follows the paper's Eq. (1):

    T(theta, phi) = j * exp(-j*theta/2) *
        [[exp(j*phi) * sin(theta/2),  cos(theta/2)],
         [exp(j*phi) * cos(theta/2), -sin(theta/2)]]

with ``theta`` in [0, pi] setting the splitting ratio (theta=0 cross,
theta=pi bar) and ``phi`` in [0, 2*pi) an input phase.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from repro.config import (
    DeviceParams,
    MRRParams,
    MZIParams,
    PhotodiodeParams,
    db_to_linear,
    dbm_to_watts,
)

#: theta value of the cross state (top input -> bottom output).
CROSS_THETA = 0.0
#: theta value of the bar state (top input -> top output).
BAR_THETA = math.pi
#: theta value of the 50:50 splitting state used for broadcast trees.
SPLIT_THETA = math.pi / 2.0


def mzi_transfer(theta: float, phi: float = 0.0) -> np.ndarray:
    """Return the 2x2 complex transfer matrix of an MZI (paper Eq. 1).

    Parameters
    ----------
    theta:
        Internal (amplitude-modulating) phase shift, in radians.  The device
        is physically restricted to ``[0, pi]`` but any real value produces a
        valid unitary; callers that model hardware should clamp.
    phi:
        External (input) phase shift in radians.
    """
    half = theta / 2.0
    s, c = math.sin(half), math.cos(half)
    pre = 1j * cmath.exp(-1j * half)
    ephi = cmath.exp(1j * phi)
    return pre * np.array([[ephi * s, c], [ephi * c, -s]], dtype=complex)


def mzi_transfers(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Eq. 1 for many MZIs at once: the ``(m, 2, 2)`` stacked transfers.

    ``theta`` and ``phi`` are ``(m,)`` arrays.  Each slice equals
    :func:`mzi_transfer` (the scalar reference) byte for byte: the same
    operations run in the same order, elementwise, and numpy's float64
    ``sin``/``cos``/complex ``exp`` match ``math``/``cmath`` on the
    tested hosts (``tests/test_devices.py`` holds the two together).
    """
    half = np.asarray(theta, dtype=float) / 2.0
    s, c = np.sin(half), np.cos(half)
    pre = 1j * np.exp(-1j * half)
    ephi = np.exp(1j * np.asarray(phi, dtype=float))
    inner = np.empty(half.shape + (2, 2), dtype=complex)
    inner[:, 0, 0] = ephi * s
    inner[:, 0, 1] = c
    inner[:, 1, 0] = ephi * c
    inner[:, 1, 1] = -s
    return pre[:, np.newaxis, np.newaxis] * inner


def is_cross(theta: float, tol: float = 1e-9) -> bool:
    """True if ``theta`` programs the cross state."""
    return abs(theta - CROSS_THETA) <= tol


def is_bar(theta: float, tol: float = 1e-9) -> bool:
    """True if ``theta`` programs the bar state."""
    return abs(theta - BAR_THETA) <= tol


@dataclass(frozen=True)
class MZIState:
    """Programmed state of one MZI: its phases and its mesh position.

    ``top_mode`` is the index of the upper of the two adjacent waveguides
    the MZI couples; the device acts on modes ``(top_mode, top_mode + 1)``.
    ``column`` is the physical layer in the rectangular mesh (0 = first layer
    light encounters), used for path-length and loss accounting.
    """

    top_mode: int
    theta: float
    phi: float = 0.0
    column: int = -1

    @property
    def transfer(self) -> np.ndarray:
        """The device's 2x2 transfer matrix."""
        return mzi_transfer(self.theta, self.phi)

    @property
    def splitting_ratio(self) -> float:
        """Fraction of top-input power that exits the top output.

        0.0 for the cross state, 1.0 for the bar state, 0.5 for the 50:50
        splitting state.
        """
        return math.sin(self.theta / 2.0) ** 2

    def with_phases(self, theta: float, phi: float) -> "MZIState":
        """Return a reprogrammed copy (position preserved)."""
        return MZIState(self.top_mode, theta, phi, self.column)


def attenuator_transmission(theta: float) -> float:
    """Power transmission of an attenuating MZI (paper Fig. 4, open circles).

    An attenuating MZI is connected only at its top two ports, so its
    amplitude transmission is the (0, 0) element magnitude of Eq. (1):
    ``sin(theta/2)``; power transmission is its square.  theta=pi passes
    everything, theta=0 blocks everything.
    """
    return math.sin(theta / 2.0) ** 2


def attenuator_theta(transmission: float) -> float:
    """Inverse of :func:`attenuator_transmission`.

    Returns the ``theta`` programming a given power transmission in [0, 1].
    """
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must be in [0, 1], got {transmission}")
    return 2.0 * math.asin(math.sqrt(transmission))


class Waveguide:
    """A routed waveguide segment with straight and bent portions."""

    def __init__(self, params: DeviceParams | None = None,
                 straight_cm: float = 0.0, bent_cm: float = 0.0) -> None:
        self._wg = (params or DeviceParams()).waveguide
        self.straight_cm = straight_cm
        self.bent_cm = bent_cm

    @property
    def loss_db(self) -> float:
        """Total propagation loss in dB."""
        return (self.straight_cm * self._wg.straight_loss_db_per_cm
                + self.bent_cm * self._wg.bent_loss_db_per_cm)

    @property
    def transmission(self) -> float:
        """Linear power transmission of the segment."""
        return db_to_linear(self.loss_db)


class MicroringResonator:
    """MRR (de)multiplexer/modulator: loss and power bookkeeping.

    Communication links pass ``wavelengths - 1`` rings at their thru port and
    one ring at its drop port per endpoint, which is what makes shared-bus
    photonic topologies loss-hungry (Section 5.2).
    """

    def __init__(self, params: MRRParams | None = None) -> None:
        self.params = params or MRRParams()

    def thru_transmission(self, rings_passed: int = 1) -> float:
        """Power transmission past ``rings_passed`` off-resonance rings."""
        return db_to_linear(self.params.thru_loss_db * rings_passed)

    def drop_transmission(self) -> float:
        """Power transmission through one on-resonance drop."""
        return db_to_linear(self.params.drop_loss_db)

    def active_power_w(self) -> float:
        """Electrical power of one actively modulating ring (driver + mod)."""
        return self.params.modulation_power_w + self.params.driver_power_w

    def static_power_w(self) -> float:
        """Thermal-tuning power burned whether or not the ring modulates."""
        return self.params.thermal_tuning_power_w


class Photodiode:
    """Photodiode + decision model: converts optical power to current."""

    def __init__(self, params: PhotodiodeParams | None = None) -> None:
        self.params = params or PhotodiodeParams()

    @property
    def sensitivity_w(self) -> float:
        """Minimum detectable optical power in watts."""
        return dbm_to_watts(self.params.sensitivity_dbm)

    def photocurrent_a(self, optical_power_w: float) -> float:
        """Output current for a given incident optical power."""
        if optical_power_w < 0.0:
            raise ValueError("optical power cannot be negative")
        return (self.params.responsivity_a_per_w * optical_power_w
                + self.params.dark_current_a)

    def detects(self, optical_power_w: float) -> bool:
        """True when the incident power meets the receiver sensitivity."""
        return optical_power_w >= self.sensitivity_w


def mzi_insertion_loss_db(params: MZIParams | None = None) -> float:
    """Optical insertion loss of one MZI stage (couplers + phase shifter)."""
    return (params or MZIParams()).insertion_loss_db


def splitter_tree_loss_db(fanout: int, params: DeviceParams | None = None) -> float:
    """Loss through a Y-branch splitter tree with the given fanout.

    Used by the optical-bus baseline for power distribution: each 1:2 stage
    costs the Y-branch excess loss plus the intrinsic 3 dB split.
    """
    if fanout < 1:
        raise ValueError(f"fanout must be >= 1, got {fanout}")
    p = params or DeviceParams()
    stages = math.ceil(math.log2(fanout)) if fanout > 1 else 0
    return stages * (p.y_branch.loss_db + 3.0103)
