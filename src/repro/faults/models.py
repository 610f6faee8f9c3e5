"""Fault models and the fault registry (DESIGN.md §12).

Each fault class is a frozen dataclass describing one physical failure
mode of the Flumen fabric, registered in ``FAULTS`` (a
:class:`~repro.registry.Registry`) so experiments (and tests) can plug
in new fault kinds without editing this module.  The built-in taxonomy
follows the reliability literature for MZI accelerators (Al-Qadasi et
al.) and chip-to-chip photonic interconnects:

``stuck_mzi``
    A phase shifter frozen at a fixed ``theta`` (bar state by default) —
    a dead heater or a shorted DAC channel.
``phase_drift``
    Slow Brownian walk of every phase shifter (thermal drift and
    crosstalk accumulating faster than the calibration loop).
``laser_degradation``
    Laser output power decay and/or dead WDM wavelengths.
``dead_link``
    A broken interposer waveguide between one (src, dst) endpoint pair.

Faults are *injected at a configured cycle* via a
:class:`FaultSchedule`, which is derived from a seed so campaigns are
deterministic — the same ``--seed`` always produces byte-identical
artifacts, and a schedule with no events leaves the simulation
untouched (the golden-numbers tests stay byte-identical).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Iterator

import numpy as np

from repro.photonics.devices import BAR_THETA
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.faults.injector import FaultDomain


class FaultModel:
    """Base class for injectable faults.

    Subclasses are frozen dataclasses that declare their ``kind`` name
    and register in ``FAULTS`` under it.
    ``inject`` applies the fault to a :class:`FaultDomain` once;
    continuous faults (``continuous = True``) additionally receive
    ``step`` calls every ``interval_cycles`` after injection.
    """

    kind: ClassVar[str] = "?"
    #: Continuous faults keep evolving after injection (e.g. drift).
    continuous: ClassVar[bool] = False
    #: Cycle period between ``step`` calls for continuous faults.
    interval_cycles: ClassVar[int] = 0

    def inject(self, domain: FaultDomain, rng: np.random.Generator,
               cycle: int) -> None:
        raise NotImplementedError

    def step(self, domain: FaultDomain, rng: np.random.Generator,
             cycle: int) -> None:
        """Advance a continuous fault by one step (no-op by default)."""

    def with_magnitude(self, magnitude: float) -> "FaultModel":
        """A copy scaled to a campaign's severity knob (default: self)."""
        return self

    @classmethod
    def seeded(cls, rng: np.random.Generator, *, ports: int, nodes: int,
               magnitude: float = 1.0) -> "FaultModel":
        """Draw a concrete fault instance for a seeded schedule."""
        return cls().with_magnitude(magnitude)  # type: ignore[call-arg]

    def params(self) -> dict:
        """JSON-safe parameter mapping (for traces and records)."""
        return {k: (v if isinstance(v, (int, str, bool)) else float(v))
                for k, v in dataclasses.asdict(self).items()}


FAULTS: Registry[type[FaultModel]] = Registry("fault kind")


# -- built-in fault taxonomy ---------------------------------------------

@dataclass(frozen=True)
class StuckMZI(FaultModel):
    """One or more MZIs frozen at a fixed ``theta`` (bar by default).

    ``count`` neighbouring devices stick together (a shared heater
    driver failing takes out its whole fanout); magnitude scales the
    count.  Calibration cannot move a stuck phase, so recovery means
    shrinking the partition onto fault-free columns.
    """

    kind: ClassVar[str] = "stuck_mzi"
    mzi_index: int = 0
    theta: float = BAR_THETA
    count: int = 1

    def inject(self, domain: FaultDomain, rng: np.random.Generator,
               cycle: int) -> None:
        mesh = domain.mesh
        if mesh is None:
            return
        for k in range(self.count):
            mesh.stick((self.mzi_index + k) % mesh.num_mzis, self.theta)

    def with_magnitude(self, magnitude: float) -> "StuckMZI":
        return dataclasses.replace(
            self, count=max(1, int(round(self.count * magnitude))))

    @classmethod
    def seeded(cls, rng: np.random.Generator, *, ports: int, nodes: int,
               magnitude: float = 1.0) -> "StuckMZI":
        num_mzis = max(1, ports * (ports - 1) // 2)
        return cls(mzi_index=int(rng.integers(num_mzis))) \
            .with_magnitude(magnitude)


@dataclass(frozen=True)
class PhaseDrift(FaultModel):
    """Brownian phase drift: every shifter random-walks in theta/phi.

    ``sigma_rad`` is the per-step RMS increment, applied every
    ``interval_cycles`` network cycles; magnitude scales ``sigma_rad``.
    Detected as growing transfer-matrix error; recovery is
    re-calibration (the offsets are movable, unlike a stuck device).
    """

    kind: ClassVar[str] = "phase_drift"
    sigma_rad: float = 0.02
    continuous: ClassVar[bool] = True
    interval_cycles: ClassVar[int] = 32

    def inject(self, domain: FaultDomain, rng: np.random.Generator,
               cycle: int) -> None:
        self.step(domain, rng, cycle)

    def step(self, domain: FaultDomain, rng: np.random.Generator,
             cycle: int) -> None:
        if domain.mesh is not None:
            domain.mesh.drift(self.sigma_rad, rng)

    def with_magnitude(self, magnitude: float) -> "PhaseDrift":
        return dataclasses.replace(
            self, sigma_rad=self.sigma_rad * magnitude)


@dataclass(frozen=True)
class LaserDegradation(FaultModel):
    """Laser power decay and dead WDM wavelengths.

    ``power_fraction`` multiplies the domain's remaining laser power;
    magnitude ``m`` maps to ``10**-m`` (decades of attenuation), so
    ``m=1`` is a 10 dB hit the detector ENOB largely survives and
    ``m=3`` is unrecoverable photonically (electrical fallback).
    """

    kind: ClassVar[str] = "laser_degradation"
    power_fraction: float = 0.1
    dead_wavelengths: int = 0

    def inject(self, domain: FaultDomain, rng: np.random.Generator,
               cycle: int) -> None:
        domain.laser_power_fraction = max(
            1e-9, domain.laser_power_fraction * self.power_fraction)
        domain.dead_wavelengths += self.dead_wavelengths

    def with_magnitude(self, magnitude: float) -> "LaserDegradation":
        return dataclasses.replace(
            self, power_fraction=10.0 ** (-magnitude))


@dataclass(frozen=True)
class DeadLink(FaultModel):
    """A broken interposer path between one (src, dst) endpoint pair.

    Until the ladder programs a detour (``reroute_pair`` on the
    network), the pair's transfer probe reads as fully failed; after
    rerouting, circuits for the pair pay ``detour_cycles`` extra setup.
    Magnitude scales the detour penalty.
    """

    kind: ClassVar[str] = "dead_link"
    src: int = 0
    dst: int = 1
    detour_cycles: int = 6

    def inject(self, domain: FaultDomain, rng: np.random.Generator,
               cycle: int) -> None:
        if self.src != self.dst:
            domain.dead_pairs.add((self.src, self.dst))
            domain.detour_cycles[(self.src, self.dst)] = self.detour_cycles

    def with_magnitude(self, magnitude: float) -> "DeadLink":
        return dataclasses.replace(
            self,
            detour_cycles=max(1, int(round(self.detour_cycles * magnitude))))

    @classmethod
    def seeded(cls, rng: np.random.Generator, *, ports: int, nodes: int,
               magnitude: float = 1.0) -> "DeadLink":
        src = int(rng.integers(nodes))
        dst = int((src + 1 + rng.integers(nodes - 1)) % nodes)
        return cls(src=src, dst=dst).with_magnitude(magnitude)


for _fault in (StuckMZI, PhaseDrift, LaserDegradation, DeadLink):
    FAULTS.register(_fault.kind, _fault)


# -- seeded schedules -----------------------------------------------------

@dataclass(frozen=True)
class FaultEvent:
    """One scheduled injection: ``fault`` fires at ``cycle``."""

    cycle: int
    fault: FaultModel


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, deterministic set of fault injections.

    Empty schedules are the default everywhere: with no events the
    simulation path is untouched, which is what keeps the golden-numbers
    tests byte-identical when faults are compiled in but not enabled.
    """

    events: tuple[FaultEvent, ...] = ()

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @classmethod
    def seeded(cls, kinds, seed: int, *, window_cycles: int,
               ports: int = 8, nodes: int = 16, magnitude: float = 1.0,
               count_per_kind: int = 1) -> "FaultSchedule":
        """Draw injection cycles and fault parameters from ``seed``.

        Injections land in the first half of the run (after a warm-up
        eighth) so detection and the full recovery ladder have room to
        play out inside ``window_cycles``.
        """
        if window_cycles < 8:
            raise ValueError(
                f"window_cycles must be >= 8, got {window_cycles}")
        rng = np.random.default_rng(seed)
        lo = window_cycles // 8
        hi = max(window_cycles // 2, lo + 1)
        events = []
        for kind in kinds:
            klass = FAULTS.get(kind)
            for _ in range(count_per_kind):
                cycle = int(rng.integers(lo, hi))
                fault = klass.seeded(rng, ports=ports, nodes=nodes,
                                     magnitude=magnitude)
                events.append(FaultEvent(cycle=cycle, fault=fault))
        events.sort(key=lambda e: (e.cycle, e.fault.kind))
        return cls(events=tuple(events))
