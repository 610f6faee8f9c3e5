"""Runtime fault injection into a live fabric + network run.

:class:`FaultyMesh` extends the calibration module's
:class:`~repro.photonics.calibration.PhysicalMesh` with the two physical
misbehaviours the fault models need — phases that are *pinned* (stuck-at)
regardless of what the controller programs, and hidden offsets that
*drift* over time.  Detection code still only sees :meth:`measure`, the
basis-injection transfer matrix, exactly like the calibration loop.

:class:`FaultDomain` is the mutable blast radius shared by the injector,
the health monitor and the degradation ladder: the mesh under test,
remaining laser power, and the dead/rerouted link sets.

:class:`FaultInjector` replays a seeded
:class:`~repro.faults.models.FaultSchedule` during a run: call
:meth:`tick` once per cycle; scheduled faults fire at their cycle and
continuous faults (drift) keep stepping afterwards.  Injections are
emitted as ``photonics``-layer trace instants and a per-kind counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.faults.models import FaultEvent, FaultModel, FaultSchedule
from repro.obs import NULL_OBS, Obs
from repro.photonics.calibration import PhaseOffsets, PhysicalMesh

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.photonics.clements import MZIMesh


class FaultyMesh(PhysicalMesh):
    """A fabricated mesh whose devices can stick or drift.

    ``offsets`` defaults to none (a perfectly calibrated part), so a
    fresh :class:`FaultyMesh` measures exactly its programmed matrix
    until a fault is injected.  ``architecture`` (a registry name or
    :class:`~repro.photonics.registry.MeshArchitecture`) widens stuck
    faults to the physical device's full fault domain — on recirculating
    meshes one dead heater pins every virtual MZI it serves.
    """

    def __init__(self, ideal: MZIMesh,
                 offsets: PhaseOffsets | None = None,
                 architecture=None) -> None:
        super().__init__(ideal, offsets or PhaseOffsets.none(ideal.num_mzis))
        if architecture is not None:
            from repro.photonics.registry import make_mesh
            architecture = make_mesh(architecture)
        self.architecture = architecture
        #: MZI index -> pinned theta; wins over programming and offsets.
        self.stuck: dict[int, float] = {}
        self.drift_steps = 0

    def stick(self, index: int, theta: float) -> None:
        """Pin one physical device's realized theta (dead heater).

        With an ``architecture`` set, every virtual MZI sharing the
        device sticks too.
        """
        if not 0 <= index < self.num_mzis:
            raise ValueError(
                f"MZI index {index} out of range [0, {self.num_mzis})")
        if self.architecture is None:
            domain: tuple[int, ...] = (index,)
        else:
            domain = self.architecture.fault_domain(self._structure, index)
        for i in domain:
            self.stuck[i] = float(theta)

    def drift(self, sigma_rad: float, rng: np.random.Generator) -> None:
        """One Brownian step: every hidden offset random-walks."""
        self._offsets.theta += rng.normal(0.0, sigma_rad, self.num_mzis)
        self._offsets.phi += rng.normal(0.0, sigma_rad, self.num_mzis)
        self.drift_steps += 1

    def _phases(self):
        theta, phi = super()._phases()
        for index, pinned in self.stuck.items():
            theta[index] = pinned
        return theta, phi


@dataclass
class FaultDomain:
    """Mutable fault state shared by injector, monitor, and ladder."""

    mesh: FaultyMesh | None = None
    #: Remaining laser output as a fraction of nominal.
    laser_power_fraction: float = 1.0
    dead_wavelengths: int = 0
    #: (src, dst) endpoint pairs whose interposer path is broken.
    dead_pairs: set[tuple[int, int]] = field(default_factory=set)
    #: Pairs the ladder has already detoured around.
    rerouted_pairs: set[tuple[int, int]] = field(default_factory=set)
    #: Extra setup cycles the detour will cost, per dead pair.
    detour_cycles: dict[tuple[int, int], int] = field(default_factory=dict)

    def unrouted_pairs(self) -> list[tuple[int, int]]:
        """Dead pairs with no detour programmed yet, in stable order."""
        return sorted(self.dead_pairs - self.rerouted_pairs)

    def link_error(self) -> float:
        """Transfer-probe error contribution of un-detoured dead links.

        A basis probe down a severed path measures zero power — a full-
        scale error — so any unrouted dead pair reads as 1.0.
        """
        return 1.0 if self.dead_pairs - self.rerouted_pairs else 0.0


class FaultInjector:
    """Replays a :class:`FaultSchedule` into a :class:`FaultDomain`."""

    def __init__(self, schedule: FaultSchedule, domain: FaultDomain,
                 seed: int = 0, obs: Obs = NULL_OBS) -> None:
        self.domain = domain
        self.rng = np.random.default_rng(seed)
        self._events = sorted(schedule,
                              key=lambda e: (e.cycle, e.fault.kind))
        self._index = 0
        self.injected: list[FaultEvent] = []
        self._continuous: list[FaultModel] = []
        self.obs = obs
        self._tracer = obs.tracer
        self._event_log = obs.events

    @property
    def pending(self) -> int:
        """Scheduled injections not yet fired."""
        return len(self._events) - self._index

    def next_due_cycle(self, cycle: int) -> int | None:
        """First cycle >= ``cycle`` at which :meth:`tick` has work.

        ``None`` means the injector is permanently idle (no scheduled
        events left, no continuous faults stepping).  Idle fast-forward
        loops (the serve daemon's run loop) use this to jump
        over stretches where skipping :meth:`tick` is observably
        equivalent to calling it.
        """
        due: int | None = None
        if self._index < len(self._events):
            due = max(cycle, self._events[self._index].cycle)
        for fault in self._continuous:
            interval = fault.interval_cycles
            if not interval:
                continue
            step_due = cycle if cycle % interval == 0 \
                else (cycle // interval + 1) * interval
            due = step_due if due is None else min(due, step_due)
        return due

    def tick(self, cycle: int) -> None:
        """Fire due injections and step continuous faults."""
        while self._index < len(self._events) \
                and self._events[self._index].cycle <= cycle:
            event = self._events[self._index]
            self._index += 1
            event.fault.inject(self.domain, self.rng, cycle)
            self.injected.append(event)
            if event.fault.continuous:
                self._continuous.append(event.fault)
            self.obs.metrics.counter(
                "photonics.faults_injected", kind=event.fault.kind).inc()
            if self._event_log.enabled:
                self._event_log.emit(
                    "fault_activation", cycle, kind=event.fault.kind,
                    scheduled_cycle=event.cycle,
                    continuous=event.fault.continuous,
                    **event.fault.params())
            if self._tracer.enabled:
                self._tracer.instant(
                    "photonics", "faults", f"inject_{event.fault.kind}",
                    cycle, **event.fault.params())
        for fault in self._continuous:
            if fault.interval_cycles and cycle % fault.interval_cycles == 0:
                fault.step(self.domain, self.rng, cycle)
