"""Shared fabric-recovery controller: inject, probe, detect, walk the ladder.

Both long-lived consumers of the fault subsystem — the batch campaign
runner (:mod:`repro.faults.campaign`) and the serving daemon
(:mod:`repro.serve.daemon`) — run the same fault path, and
:class:`FabricRecovery` is its one copy: the seeded
:class:`~repro.faults.models.FaultSchedule` and its
:class:`~repro.faults.injector.FaultInjector`, a
:class:`~repro.faults.injector.FaultyMesh` programmed with a target
unitary, the mutable :class:`~repro.faults.injector.FaultDomain`, a
:class:`~repro.core.control_unit.HealthMonitor` whose probes read that
domain, the :class:`~repro.faults.ladder.DegradationLadder`, the rung
*actions* (recalibrate / shrink / reroute) that turn ladder state into
fabric mutations, and the fault fields both reports carry.
:meth:`FabricRecovery.attach` connects the monitor to the control unit
and the ladder to the scheduler; the control unit's port geometry
decides which fabric port a dead link retires.

Determinism contract: the controller consumes the caller's RNG once
(for the target unitary) at construction, the fault schedule and the
injector draw from ``fault_seed``, and each SHRINK re-placement
derives its own generator from ``point_seed(seed, f"shrink/{cycle}")``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.engine import point_seed
from repro.config import DeviceParams, SystemConfig
from repro.core.control_unit import HealthMonitor, nodes_rule
from repro.faults.injector import FaultDomain, FaultInjector, FaultyMesh
from repro.faults.ladder import BackoffPolicy, DegradationLadder, Rung
from repro.faults.models import FaultSchedule
from repro.obs import NULL_OBS, Obs
from repro.photonics.calibration import (
    calibrate_by_decomposition,
    matrix_error,
)
from repro.photonics.clements import random_unitary
from repro.photonics.registry import make_mesh

#: Received optical power at nominal laser output (the AnalogMVM default).
NOMINAL_RECEIVED_POWER_W = 50e-6

#: Fabric ports of the control unit a campaign run or a serve session
#: builds (``SystemConfig().mzim_ports``: 8 for the paper's system).
FABRIC_PORTS = SystemConfig().mzim_ports

#: Fabric geometry rules shared by ``CampaignSpec`` and ``ServeConfig``
#: (name -> (valid?, rule text)), checked at construction.  ``ports``
#: sizes this controller's mesh and ladder; ``nodes`` is the control
#: unit's own check, so a run's network fits the fabric it builds; and
#: each config's ``partition_ports`` (the size of the partitions it
#: requests) must be one Algorithm 1 can grant.
GEOMETRY_RULES = {
    "ports": (lambda v: v >= 2, ">= 2"),
    "nodes": nodes_rule(FABRIC_PORTS),
    "partition_ports": (lambda v: v % 2 == 0 and v <= FABRIC_PORTS,
                        f"even and <= the {FABRIC_PORTS} fabric ports"),
}


class FabricRecovery:
    """The fault path of one live fabric: schedule, injector, domain,
    monitor, ladder, and the rung actions that mutate the fabric.

    ``fault`` (a :data:`~repro.faults.models.FAULTS` kind, ``None`` for
    none) is scheduled once inside ``window_cycles`` from
    ``fault_seed`` (default: ``seed``).  The caller builds the
    scheduler, connects it with :meth:`attach`, ticks :attr:`injector`
    and calls :meth:`service` once per simulated cycle.
    """

    def __init__(self, *, ports: int, nodes: int, seed: int,
                 rng: np.random.Generator,
                 fault: str | None = None,
                 magnitude: float = 1.0,
                 window_cycles: int = 0,
                 fault_seed: int | None = None,
                 backoff: BackoffPolicy | None = None,
                 probe_interval: int = 48,
                 error_threshold: float = 0.05,
                 min_effective_bits: float = 4.0,
                 mesh_architecture: str = "clements",
                 devices: DeviceParams | None = None,
                 obs: Obs = NULL_OBS) -> None:
        self.total_ports = ports
        #: Current partition width; SHRINK lowers it.
        self.ports = ports
        self.seed = seed
        self.devices = devices if devices is not None else DeviceParams()
        self.mesh_architecture = mesh_architecture
        # Stuck faults widen to the architecture's physical fault domains.
        self._arch = make_mesh(mesh_architecture)
        self.target = random_unitary(ports, rng)
        self.domain = FaultDomain(
            mesh=FaultyMesh(self._arch.decompose(self.target),
                            architecture=self._arch))
        self.ladder = DegradationLadder(fabric_ports=ports, policy=backoff,
                                        obs=obs)
        self.monitor = HealthMonitor(
            mesh_probe=self.mesh_probe,
            link_probe=self.domain.link_error,
            power_probe=self.received_power,
            error_threshold=error_threshold,
            min_effective_bits=min_effective_bits,
            interval_cycles=probe_interval,
            obs=obs)
        fault_seed = seed if fault_seed is None else fault_seed
        schedule = FaultSchedule() if fault is None else \
            FaultSchedule.seeded([fault], fault_seed,
                                 window_cycles=window_cycles, ports=ports,
                                 nodes=nodes, magnitude=magnitude)
        self.injector = FaultInjector(schedule, self.domain,
                                      seed=fault_seed, obs=obs)
        #: The attached :class:`~repro.core.control_unit.MZIMControlUnit`.
        self.control = None
        self.recalibrations = 0
        self.detected_cycle: int | None = None
        self.error_peak = 0.0

    def attach(self, scheduler) -> None:
        """Connect the fabric a :class:`~repro.core.scheduler.FlumenScheduler`
        drives: the monitor gates its control unit's offload advice, the
        ladder modulates its Algorithm 1, and REROUTE detours its network
        and retires ports by its geometry."""
        self.control = scheduler.control
        self.control.health = self.monitor
        scheduler.ladder = self.ladder
        # The ladder starts at the mesh under test; no partition is
        # wider than the fabric the control unit manages.
        self.ladder.cap_partition_ports(self.control.fabric_ports)

    # -- probes ------------------------------------------------------------

    def mesh_probe(self) -> float:
        """Basis-vector transfer error of the live mesh vs. its target.

        A healthy, unchanged mesh is cheap to re-probe: the mesh
        memoizes its measured matrix on the realized phases
        (:meth:`~repro.photonics.calibration.PhysicalMesh.measure`).
        """
        return matrix_error(self.domain.mesh.measure(), self.target)

    def received_power(self) -> float:
        """Received optical power given laser health and partition size.

        Shrinking the partition removes MZI columns from the light path,
        so each retired column claws back one column's insertion loss —
        the physical reason the SHRINK rung helps against laser
        degradation.
        """
        gain_db = self.devices.mzi.insertion_loss_db \
            * (self.total_ports - self.ports)
        return NOMINAL_RECEIVED_POWER_W \
            * self.domain.laser_power_fraction * 10.0 ** (gain_db / 10.0)

    # -- ladder rung actions ----------------------------------------------

    def _act_recalibrate(self) -> None:
        calibrate_by_decomposition(
            self.domain.mesh, self.target, iterations=1,
            architecture=self.mesh_architecture)
        self.recalibrations += 1

    def _act_shrink(self, cycle: int) -> None:
        """Re-place the compute circuit on a smaller, fault-free block.

        The shrunken partition sits on fresh columns, so stuck devices
        in the retired region stop mattering; continuous drift keeps
        acting on the new mesh through the injector's domain reference.
        """
        new_ports = self.ladder.partition_ports_cap
        if new_ports >= self.ports:
            return
        self.ports = new_ports
        sub_rng = np.random.default_rng(
            point_seed(self.seed, f"shrink/{cycle}"))
        self.target = random_unitary(new_ports, sub_rng)
        self.domain.mesh = FaultyMesh(self._arch.decompose(self.target),
                                      architecture=self._arch)
        self.recalibrations += 1  # the new block is programmed once

    def _act_reroute(self) -> None:
        control = self.control
        for src, dst in self.domain.unrouted_pairs():
            penalty = self.domain.detour_cycles.get((src, dst), 6)
            control.network.reroute_pair(src, dst, penalty)
            self.domain.rerouted_pairs.add((src, dst))
            port = control.endpoint_port(dst)
            if port is None:
                continue  # the endpoint is on no fabric port
            self.ladder.mark_dead_port(port)
            # Cap partitions at the widest even run of ports left free,
            # so requests queued at the old cap still find a placement.
            widest = run = 0
            for p in range(control.fabric_ports):
                run = 0 if p in self.ladder.unusable_ports else run + 1
                widest = max(widest, run)
            self.ladder.cap_partition_ports(widest)

    def run_ladder_action(self, cycle: int) -> None:
        """Perform the current rung's action and report the re-probe."""
        self.ladder.attempt_started(cycle)
        rung = self.ladder.rung
        if rung is Rung.RECALIBRATE:
            self._act_recalibrate()
        elif rung is Rung.SHRINK:
            self._act_shrink(cycle)
        elif rung is Rung.REROUTE:
            self._act_reroute()
        sample = self.monitor.probe(cycle)
        self.ladder.attempt_result(cycle, bool(sample["healthy"]),
                                   error=float(sample["error"]))

    # -- per-cycle service -------------------------------------------------

    def next_due(self, cycle: int, injecting: bool = True) -> int:
        """First cycle ``>= cycle`` at which recovery may act.

        ``cycle`` itself off the healthy rung; else the next probe or,
        while the caller ticks the injector (``injecting``), the next
        fault tick.
        """
        if not self.ladder.healthy:
            return cycle
        interval = self.monitor.interval_cycles
        due = -(-cycle // interval) * interval
        if injecting:
            nxt = self.injector.next_due_cycle(cycle)
            if nxt is not None:
                due = min(due, nxt)
        return due

    def service(self, cycle: int) -> None:
        """One reliability step: throttled probe, detection, due action."""
        sample = self.monitor.sample(cycle)
        if sample is not None:
            self.error_peak = max(self.error_peak,
                                  float(sample["error"]))
            if not sample["healthy"] and self.ladder.healthy:
                if self.ladder.detect(cycle, error=sample["error"]) \
                        and self.detected_cycle is None:
                    self.detected_cycle = cycle
        if self.ladder.due(cycle):
            self.run_ladder_action(cycle)

    # -- reporting ---------------------------------------------------------

    def report(self) -> dict:
        """The fault fields a campaign record and a serve report share."""
        return {
            "injected": [{"cycle": e.cycle, "kind": e.fault.kind,
                          "params": e.fault.params()}
                         for e in self.injector.injected],
            "detected_cycle": self.detected_cycle,
            "ladder": self.ladder.to_dict(),
            "final_rung": self.ladder.rung.name,
        }
