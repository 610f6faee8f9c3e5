"""System- and device-level configuration for the Flumen reproduction.

Two parameter tables drive the whole evaluation, mirroring the paper:

* :class:`SystemConfig` — Table 1 ("System-level parameters for performance
  evaluation"): core counts, cache sizes, link energies/bandwidths, and the
  Flumen compute parameters.
* :class:`DeviceParams` — Table 2 ("Photonic and electronic device
  parameters"): per-device optical losses and electrical powers used by the
  photonic power/energy models.

All values default to the paper's numbers.  Every model in the library takes
one of these objects (or both) so experiments can sweep parameters without
monkey-patching globals.

Unit conventions (enforced by attribute names):

* ``*_hz``        frequency in hertz
* ``*_db``        optical loss/gain in decibels (positive = loss)
* ``*_db_per_cm`` distributed loss in decibels per centimetre
* ``*_w``         power in watts
* ``*_j_per_bit`` energy in joules per bit
* ``*_bps``       bandwidth in bits per second
* ``*_b``         size in bytes
* ``*_s``         time in seconds
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field


GIGA = 1.0e9
MEGA = 1.0e6
KILO = 1.0e3
MILLI = 1.0e-3
MICRO = 1.0e-6
NANO = 1.0e-9
PICO = 1.0e-12
FEMTO = 1.0e-15


def db_to_linear(loss_db: float) -> float:
    """Convert a decibel loss (positive number) to a linear power transmission.

    >>> db_to_linear(3.0103)  # doctest: +ELLIPSIS
    0.4999...
    """
    return 10.0 ** (-loss_db / 10.0)


def linear_to_db(transmission: float) -> float:
    """Convert a linear power transmission in (0, 1] to a decibel loss."""
    if transmission <= 0.0:
        raise ValueError(f"transmission must be positive, got {transmission}")
    return -10.0 * math.log10(transmission)


def dbm_to_watts(power_dbm: float) -> float:
    """Convert dBm to watts.  0 dBm == 1 mW."""
    return 1.0e-3 * 10.0 ** (power_dbm / 10.0)


def watts_to_dbm(power_w: float) -> float:
    """Convert watts to dBm."""
    if power_w <= 0.0:
        raise ValueError(f"power must be positive, got {power_w}")
    return 10.0 * math.log10(power_w / 1.0e-3)


def _require_positive(config: object, *names: str) -> None:
    """Reject a construction whose named fields are not all positive."""
    for name in names:
        value = getattr(config, name)
        if value <= 0:
            raise ValueError(f"{type(config).__name__}.{name} must be "
                             f"positive, got {value}")


def _require_range(config: object, name: str, low: float, high: float,
                   low_open: bool = False) -> None:
    """Reject a construction whose named field leaves ``[low, high]``.

    ``low_open`` excludes ``low`` itself: the range is ``(low, high]``.
    """
    value = getattr(config, name)
    if value < low or (low_open and value == low) or value > high:
        bracket = "(" if low_open else "["
        raise ValueError(f"{type(config).__name__}.{name} must be in "
                         f"{bracket}{low}, {high}], got {value}")


def _require_whole_sets(config: object, name: str, size_b: int,
                        assoc: int, line_b: int) -> None:
    """Reject a cache level whose size is not a whole number of sets
    (``assoc`` ways of ``line_b`` bytes each)."""
    if size_b % (assoc * line_b):
        raise ValueError(
            f"{type(config).__name__}.{name} {size_b} is not a multiple "
            f"of assoc * line_size_b = {assoc * line_b}")


@dataclass(frozen=True)
class CoreConfig:
    """Per-core parameters (Table 1, "Core" rows)."""

    frequency_hz: float = 2.5 * GIGA
    core_type: str = "out-of-order"
    count: int = 64
    l1i_size_b: int = 32 * 1024
    l1d_size_b: int = 32 * 1024
    #: Fused multiply-accumulate throughput per core per cycle.  A modest
    #: OoO core with one 128-bit SIMD FMA pipe sustains ~2 8-bit MACs/cycle
    #: on irregular linear-algebra code once fetch/decode stalls are folded in.
    macs_per_cycle: float = 2.0
    #: Fraction of memory stall cycles hidden by out-of-order overlap.
    memory_level_parallelism: float = 4.0

    def __post_init__(self) -> None:
        _require_positive(self, "l1i_size_b", "l1d_size_b")


@dataclass(frozen=True)
class CacheConfig:
    """Cache hierarchy parameters (Table 1, L2/L3 rows)."""

    l2_size_b: int = 512 * 1024
    l3_size_b: int = 16 * 1024 * 1024
    l3_concentration: int = 4  # cores sharing one L3 slice / chiplet
    line_size_b: int = 64
    l1_latency_cycles: int = 4
    l2_latency_cycles: int = 12
    l3_latency_cycles: int = 38
    dram_latency_cycles: int = 180
    l1_assoc: int = 8
    l2_assoc: int = 8
    l3_assoc: int = 16

    def __post_init__(self) -> None:
        _require_positive(self, "l2_size_b", "l3_size_b", "line_size_b",
                          "l1_assoc", "l2_assoc", "l3_assoc")
        _require_whole_sets(self, "l2_size_b", self.l2_size_b,
                            self.l2_assoc, self.line_size_b)
        _require_whole_sets(self, "l3_size_b", self.l3_size_b,
                            self.l3_assoc, self.line_size_b)


@dataclass(frozen=True)
class ElectricalLinkConfig:
    """Electrical NoP link parameters (Table 1, Poulton et al. [37])."""

    energy_j_per_bit: float = 1.17 * PICO
    bandwidth_bps: float = 800.0 * GIGA


@dataclass(frozen=True)
class PhotonicLinkConfig:
    """Photonic NoP link parameters (Table 1)."""

    energy_j_per_bit_64lambda: float = 0.703 * PICO
    modulation_hz: float = 10.0 * GIGA
    wavelengths: int = 64

    @property
    def bandwidth_bps(self) -> float:
        """Aggregate link bandwidth: one bit per wavelength per symbol."""
        return self.modulation_hz * self.wavelengths


@dataclass(frozen=True)
class FlumenComputeConfig:
    """Flumen computation parameters (Table 1, "Flumen Compute" rows)."""

    computation_wavelengths: int = 8
    input_modulation_hz: float = 5.0 * GIGA
    mzim_switch_delay_s: float = 6.0 * NANO
    comm_switch_delay_s: float = 1.0 * NANO
    equivalent_precision_bits: int = 8

    def __post_init__(self) -> None:
        _require_positive(self, "computation_wavelengths",
                          "input_modulation_hz", "mzim_switch_delay_s",
                          "comm_switch_delay_s", "equivalent_precision_bits")


@dataclass(frozen=True)
class SchedulerConfig:
    """Algorithm 1 parameters (Section 3.4 sensitivity analysis)."""

    #: Partition evaluation period τ in network cycles.
    tau_cycles: int = 100
    #: Buffer utilization threshold η (fraction).
    eta: float = 0.40
    #: Buffer scan depth ζ (fraction of the most-utilized buffers examined).
    zeta: float = 0.50

    def __post_init__(self) -> None:
        if self.tau_cycles < 1:
            raise ValueError(f"SchedulerConfig.tau_cycles must be >= 1, "
                             f"got {self.tau_cycles}")
        _require_range(self, "eta", 0.0, 1.0)
        _require_range(self, "zeta", 0.0, 1.0, low_open=True)


@dataclass(frozen=True)
class SystemConfig:
    """Table 1: the full 64-core / 16-chiplet evaluation platform."""

    core: CoreConfig = field(default_factory=CoreConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    elec_link: ElectricalLinkConfig = field(default_factory=ElectricalLinkConfig)
    phot_link: PhotonicLinkConfig = field(default_factory=PhotonicLinkConfig)
    compute: FlumenComputeConfig = field(default_factory=FlumenComputeConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    #: Mesh arrangement (a :mod:`repro.photonics.registry` name) the
    #: compute partitions program their SVD circuits with.  The paper's
    #: platform uses the Clements rectangle; alternatives trade device
    #: count against optical depth (see the ``mesh_comparison`` task).
    mesh_architecture: str = "clements"
    #: Cap on packets fed to the NoP cycle simulator per system run;
    #: heavier memory traces are subsampled and the energy counters
    #: rescaled.  Every rescale is logged (logger ``repro.system``) so
    #: no run is capped silently.
    max_simulated_packets: int = 3000

    def __post_init__(self) -> None:
        _require_positive(self, "max_simulated_packets")
        # L1d's size is a core field, its ways and line a cache field.
        _require_whole_sets(self, "core.l1d_size_b", self.core.l1d_size_b,
                            self.cache.l1_assoc, self.cache.line_size_b)

    @property
    def chiplets(self) -> int:
        """Number of chiplets: cores divided by the L3 concentration."""
        return self.core.count // self.cache.l3_concentration

    @property
    def mzim_ports(self) -> int:
        """Flumen MZIM port count: one port pair per two chiplets.

        The paper's 16-chiplet system uses an 8x8 MZIM (Section 5.1), i.e.
        each MZIM port serves two chiplets through a shared endpoint.
        """
        return self.chiplets // 2

    def replace(self, **kwargs: object) -> "SystemConfig":
        """Return a copy with top-level sections replaced."""
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class WaveguideParams:
    straight_loss_db_per_cm: float = 1.5
    bent_loss_db_per_cm: float = 3.8


@dataclass(frozen=True)
class YBranchParams:
    loss_db: float = 0.3


@dataclass(frozen=True)
class MRRParams:
    radius_um: float = 5.0
    thru_loss_db: float = 0.1
    drop_loss_db: float = 1.0
    modulation_power_w: float = 0.5 * MILLI
    driver_power_w: float = 1.0 * MILLI
    thermal_tuning_power_w: float = 1.0 * MILLI


@dataclass(frozen=True)
class MZIParams:
    phase_shifter_power_w: float = 1.0 * NANO
    phase_shifter_loss_db: float = 0.23
    coupler_loss_db: float = 0.02
    #: Phase programming times (Section 4.1): 1 ns for communication states,
    #: 6 ns for the higher-accuracy computation phases.
    comm_program_time_s: float = 1.0 * NANO
    compute_program_time_s: float = 6.0 * NANO

    @property
    def insertion_loss_db(self) -> float:
        """Loss through one MZI: two 3-dB couplers plus the phase shifter."""
        return self.phase_shifter_loss_db + 2.0 * self.coupler_loss_db


@dataclass(frozen=True)
class PhotodiodeParams:
    #: Receiver sensitivity for on-off-keyed communication.  Table 2 prints
    #: "20 dBm"; a detector that needs +20 dBm (100 mW) would be absurd, so
    #: the sign is a misprint.  -30 dBm calibrates the laser-power and
    #: link-energy models to the paper's reported values (0.703 pJ/bit,
    #: Figure 12a); analog *computation* needs a much larger optical budget,
    #: captured separately in ComputeCalibration.fixed_loss_db.
    sensitivity_dbm: float = -30.0
    dark_current_a: float = 25.0e-12
    extinction_ratio_db: float = 7.0
    responsivity_a_per_w: float = 1.0


@dataclass(frozen=True)
class LaserParams:
    #: Optical wall-plug efficiency.
    owpe: float = 0.2
    rin_db_per_hz: float = -140.0


@dataclass(frozen=True)
class ConverterParams:
    adc_power_w: float = 29.0 * MILLI
    dac_power_w: float = 50.0 * MILLI
    tia_power_w: float = 295.0 * MICRO
    serdes_power_w: float = 1.3 * MILLI
    adc_sample_rate_hz: float = 5.0 * GIGA
    dac_sample_rate_hz: float = 14.0 * GIGA


@dataclass(frozen=True)
class DeviceParams:
    """Table 2: photonic and electronic device parameters."""

    waveguide: WaveguideParams = field(default_factory=WaveguideParams)
    y_branch: YBranchParams = field(default_factory=YBranchParams)
    mrr: MRRParams = field(default_factory=MRRParams)
    mzi: MZIParams = field(default_factory=MZIParams)
    photodiode: PhotodiodeParams = field(default_factory=PhotodiodeParams)
    laser: LaserParams = field(default_factory=LaserParams)
    converter: ConverterParams = field(default_factory=ConverterParams)

    def replace(self, **kwargs: object) -> "DeviceParams":
        """Return a copy with device sections replaced."""
        return dataclasses.replace(self, **kwargs)


DEFAULT_SYSTEM = SystemConfig()
DEFAULT_DEVICES = DeviceParams()
