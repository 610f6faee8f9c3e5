"""Per-event energy accounting (McPAT substitute, 7 nm calibrated).

Every energy in Figure 13's breakdown maps to a counter multiplied by a
per-event constant.  The constants below are calibrated so the electrical
MAC baseline reproduces the paper's own anchor (0.2703 pJ per 8-bit
approximate MAC, Section 5.3) and the component split of Figure 13 (core
energy dominant, caches next, DRAM flat across topologies).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import PICO

#: Energy of one 8-bit MAC on the in-core datapath including instruction
#: overhead (fetch/decode/rename/RF) that Sniper+McPAT attribute per op.
CORE_MAC_ENERGY_J = 12.0 * PICO
#: Energy of one generic non-MAC core operation (address math, control).
CORE_OP_ENERGY_J = 8.0 * PICO
#: Per-line access energies, 7 nm scaled.
L1_ACCESS_ENERGY_J = 8.0 * PICO
L2_ACCESS_ENERGY_J = 22.0 * PICO
L3_ACCESS_ENERGY_J = 60.0 * PICO
#: One 64-byte DRAM line transfer (LPDDR-class, ~8 pJ/bit).
DRAM_LINE_ENERGY_J = 4000.0 * PICO
#: Core leakage + clock power per active core (7 nm, power-gated idle).
CORE_STATIC_W = 0.05


@dataclass
class EnergyBreakdown:
    """Joules per component — one bar of Figure 13."""

    core: float = 0.0
    l1: float = 0.0
    l2: float = 0.0
    l3: float = 0.0
    dram: float = 0.0
    nop: float = 0.0
    mzim: float = 0.0

    @property
    def total(self) -> float:
        return (self.core + self.l1 + self.l2 + self.l3 + self.dram
                + self.nop + self.mzim)

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            core=self.core + other.core,
            l1=self.l1 + other.l1,
            l2=self.l2 + other.l2,
            l3=self.l3 + other.l3,
            dram=self.dram + other.dram,
            nop=self.nop + other.nop,
            mzim=self.mzim + other.mzim,
        )

    def scaled(self, factor: float) -> "EnergyBreakdown":
        return EnergyBreakdown(
            core=self.core * factor, l1=self.l1 * factor,
            l2=self.l2 * factor, l3=self.l3 * factor,
            dram=self.dram * factor, nop=self.nop * factor,
            mzim=self.mzim * factor)

    def as_dict(self) -> dict[str, float]:
        return {"core": self.core, "l1": self.l1, "l2": self.l2,
                "l3": self.l3, "dram": self.dram, "nop": self.nop,
                "mzim": self.mzim}


@dataclass
class CoreEnergyModel:
    """Maps operation/cache counters to joules."""

    mac_energy_j: float = CORE_MAC_ENERGY_J
    op_energy_j: float = CORE_OP_ENERGY_J
    l1_energy_j: float = L1_ACCESS_ENERGY_J
    l2_energy_j: float = L2_ACCESS_ENERGY_J
    l3_energy_j: float = L3_ACCESS_ENERGY_J
    dram_energy_j: float = DRAM_LINE_ENERGY_J
    core_static_w: float = CORE_STATIC_W

    def compute_energy(self, macs: int, other_ops: int,
                       active_cores: int, runtime_s: float) -> float:
        """Core component: dynamic op energy plus static over the runtime."""
        dynamic = macs * self.mac_energy_j + other_ops * self.op_energy_j
        static = active_cores * self.core_static_w * runtime_s
        return dynamic + static

