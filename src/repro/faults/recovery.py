"""Shared fabric-recovery controller: probe, detect, walk the ladder.

Both long-lived consumers of the fault subsystem — the batch campaign
runner (:mod:`repro.faults.campaign`) and the serving daemon
(:mod:`repro.serve.daemon`) — need the same reliability core: a
:class:`~repro.faults.injector.FaultyMesh` programmed with a target
unitary, the mutable :class:`~repro.faults.injector.FaultDomain`, a
:class:`~repro.core.control_unit.HealthMonitor` whose probes read that
domain, the :class:`~repro.faults.ladder.DegradationLadder`, and the
rung *actions* (recalibrate / shrink / reroute) that turn ladder state
into fabric mutations.  :class:`FabricRecovery` owns exactly that
bundle so the two callers cannot drift apart.

Determinism contract: the controller consumes the caller's RNG once
(for the target unitary) at construction, and each SHRINK re-placement
derives its own generator from ``point_seed(seed, f"shrink/{cycle}")``
— identical to the pre-extraction campaign behavior, so campaign
artifacts stay byte-identical across this refactor.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.engine import point_seed
from repro.config import DeviceParams, SystemConfig
from repro.core.control_unit import HealthMonitor
from repro.faults.injector import FaultDomain, FaultyMesh
from repro.faults.ladder import BackoffPolicy, DegradationLadder, Rung
from repro.obs import NULL_OBS, Obs
from repro.photonics.calibration import (
    calibrate_by_decomposition,
    matrix_error,
)
from repro.photonics.clements import decompose, random_unitary

#: Received optical power at nominal laser output (the AnalogMVM default).
NOMINAL_RECEIVED_POWER_W = 50e-6

#: Fabric ports of the control unit a campaign run or a serve session
#: builds (``SystemConfig().mzim_ports``: 8 for the paper's system).
FABRIC_PORTS = SystemConfig().mzim_ports

#: Fabric geometry rules shared by ``CampaignSpec`` and ``ServeConfig``
#: (name -> (valid?, rule text)), checked at construction.  ``ports``
#: sizes this controller's mesh and ladder; every fabric port needs a
#: network endpoint; and each config's ``partition_ports`` (the size of
#: the partitions it requests) must be one Algorithm 1 can grant.
GEOMETRY_RULES = {
    "ports": (lambda v: v >= 2, ">= 2"),
    "nodes": (lambda v: v >= FABRIC_PORTS,
              f">= {FABRIC_PORTS}, one network endpoint per fabric port"),
    "partition_ports": (lambda v: v % 2 == 0 and v <= FABRIC_PORTS,
                        f"even and <= the {FABRIC_PORTS} fabric ports"),
}


class FabricRecovery:
    """Reliability core for one live fabric: domain, monitor, ladder,
    and the rung actions that mutate the fabric.

    The caller builds the network/scheduler around this controller,
    binds the network with :meth:`bind_network`, and calls
    :meth:`service` once per simulated cycle after the injector tick.
    """

    def __init__(self, *, ports: int, nodes: int, seed: int,
                 rng: np.random.Generator,
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
        self.nodes = nodes
        self.seed = seed
        self.obs = obs
        self.devices = devices if devices is not None else DeviceParams()
        self.mesh_architecture = mesh_architecture
        # Clements stays on the direct path (bit-identical to the golden
        # pins); alternatives resolve through the registry, and stuck
        # faults widen to the architecture's physical fault domains.
        if mesh_architecture == "clements":
            self._decompose = decompose
            self._fault_arch = None
        else:
            from repro.photonics.registry import make_mesh
            self._fault_arch = make_mesh(mesh_architecture)
            self._decompose = self._fault_arch.decompose
        self.target = random_unitary(ports, rng)
        self.domain = FaultDomain(
            mesh=FaultyMesh(self._decompose(self.target),
                            architecture=self._fault_arch))
        self.ladder = DegradationLadder(
            fabric_ports=ports,
            policy=backoff if backoff is not None else BackoffPolicy(),
            obs=obs)
        self.domain.ladder = self.ladder
        self.monitor = HealthMonitor(
            mesh_probe=self.mesh_probe,
            link_probe=self.domain.link_error,
            power_probe=self.received_power,
            error_threshold=error_threshold,
            min_effective_bits=min_effective_bits,
            interval_cycles=probe_interval,
            obs=obs)
        self.network = None
        self.recalibrations = 0
        self.detected_cycle: int | None = None
        self.error_peak = 0.0

    def bind_network(self, network) -> None:
        """Attach the interposer network so dead-link faults and the
        REROUTE rung can reach it."""
        self.network = network
        self.domain.network = network

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
        self.domain.mesh = FaultyMesh(self._decompose(self.target),
                                      architecture=self._fault_arch)
        self.recalibrations += 1  # the new block is programmed once

    def _act_reroute(self) -> None:
        for src, dst in self.domain.unrouted_pairs():
            penalty = self.domain.detour_cycles.get((src, dst), 6)
            self.network.reroute_pair(src, dst, penalty)
            self.domain.rerouted_pairs.add((src, dst))
            port = dst * self.total_ports // self.nodes
            self.ladder.mark_dead_port(port)

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

    def service(self, cycle: int) -> dict | None:
        """One reliability step: throttled probe, detection, due action.

        Returns the monitor sample when a probe fired this cycle (the
        campaign uses it for error-peak accounting), else ``None``.
        """
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
        return sample
