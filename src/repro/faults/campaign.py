"""Fault-injection campaigns: inject, detect, degrade, measure.

One campaign run co-simulates the full reliability loop on a live
fabric + network:

* a :class:`~repro.faults.injector.FaultyMesh` programmed with a random
  unitary target stands in for the compute partition's SVD circuit;
* a :class:`~repro.noc.soa.SoAFlumenNetwork` carries synthetic
  traffic while Algorithm 1 grants compute partitions;
* a seeded :class:`~repro.faults.models.FaultSchedule` fires mid-run;
* the control unit's :class:`~repro.core.control_unit.HealthMonitor`
  detects the fault (basis-vector transfer probe + received-power ENOB);
* the :class:`~repro.faults.ladder.DegradationLadder` walks its rungs —
  this module performs the rung *actions* (recalibration via
  :func:`~repro.photonics.calibration.calibrate_by_decomposition`,
  partition shrink, network reroute) and reports back.

The per-run record captures accuracy loss (ENOB), runtime/energy
overhead of the recovery, and the recovery statistics the CLI
aggregates per fault class.  Everything is derived from the seed — two
runs of ``python -m repro faults --seed 0`` are byte-identical — and a
zero-fault campaign leaves every simulation path untouched, which the
attached golden-reference record cross-checks against the pinned
golden-numbers results.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.analysis.engine import point_seed
from repro.config import DeviceParams, SystemConfig
from repro.core.accelerator import plan_offload
from repro.core.control_unit import ComputeRequest, MZIMControlUnit
from repro.core.scheduler import FlumenScheduler, electrical_duration_cycles
from repro.faults.injector import FaultInjector
from repro.faults.ladder import BackoffPolicy
from repro.faults.models import FAULTS, FaultSchedule
from repro.faults.recovery import (
    GEOMETRY_RULES,
    NOMINAL_RECEIVED_POWER_W,
    FabricRecovery,
)
from repro.noc.simulation import make_network
from repro.noc.traffic import TrafficGenerator
from repro.obs import NULL_OBS, Obs
from repro.photonics.noise import effective_bits, snr_to_enob

#: Pseudo fault kind for a control campaign with no injections.
NO_FAULT = "none"
#: Digital precision of the electrical fallback path (Table 1: 8-bit).
ELECTRICAL_BITS = 8.0

#: Numeric :class:`CampaignSpec` fields and derived sizes: name ->
#: (valid?, rule text).  Checked at construction, so a bad value never
#: reaches a run.
_FIELD_RULES: dict[str, tuple[Callable[[Any], bool], str]] = {
    "runs": (lambda v: v >= 1, ">= 1"),
    "cycles": (lambda v: v >= 64, ">= 64"),
    **GEOMETRY_RULES,
    "load": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "request_period": (lambda v: v >= 1, ">= 1"),
    "probe_interval": (lambda v: v >= 1, ">= 1"),
    "error_threshold": (lambda v: v > 0.0, "> 0"),
}


@dataclass(frozen=True)
class CampaignSpec:
    """Parameters of one fault campaign (one fault class, many runs)."""

    fault: str = NO_FAULT
    seed: int = 0
    runs: int = 4
    cycles: int = 1500
    magnitude: float = 1.0
    ports: int = 8
    nodes: int = 16
    load: float = 0.25
    request_period: int = 150
    probe_interval: int = 48
    error_threshold: float = 0.05
    min_effective_bits: float = 4.0
    #: Campaign default is snappier than the BackoffPolicy defaults so
    #: the full ladder (4 rungs x retries) fits inside ``cycles``.
    backoff: BackoffPolicy = field(default_factory=lambda: BackoffPolicy(
        base_cycles=16, factor=2.0, max_retries=2,
        max_backoff_cycles=512))
    #: Attach the golden-numbers cross-check to zero-fault campaigns.
    golden_reference: bool = True
    #: Mesh arrangement (a :mod:`repro.photonics.registry` name) the
    #: compute partition under test is decomposed with.
    mesh_architecture: str = "clements"

    def __post_init__(self) -> None:
        if self.fault != NO_FAULT:
            FAULTS.get(self.fault)  # raises with the registered list
        for name, (valid, rule) in _FIELD_RULES.items():
            value = getattr(self, name)
            if not valid(value):
                raise ValueError(f"{name} must be {rule}, got {value}")
        from repro.photonics.registry import MESHES
        MESHES.get(self.mesh_architecture)  # raises listing known names

    @property
    def partition_ports(self) -> int:
        """Fabric ports each periodic compute offload asks for."""
        return max(2, self.ports // 2)

    def to_dict(self) -> dict:
        record = dataclasses.asdict(self)
        return record


def campaign_fault_kinds() -> tuple[str, ...]:
    """Fault kinds a default campaign covers: controls plus registry.

    Registered kinds sort by name, so campaign order and its digests do
    not depend on registration order.
    """
    return (NO_FAULT, *sorted(FAULTS.names()))


def _error_enob(error: float) -> float:
    """Matrix-error-limited ENOB, capped at the digital precision."""
    snr_db = -20.0 * math.log10(max(float(error), 1e-12))
    return min(ELECTRICAL_BITS, snr_to_enob(snr_db))


class _CampaignRun:
    """One seeded run: fabric, network, monitor, ladder, and actions.

    The reliability core (mesh, domain, monitor, ladder, rung actions)
    lives in :class:`~repro.faults.recovery.FabricRecovery`, shared
    with the serving daemon; this class adds the campaign-specific
    parts — synthetic traffic, periodic compute offloads, the fault
    schedule, and the per-run accuracy/overhead record.
    """

    def __init__(self, spec: CampaignSpec, run_index: int,
                 obs: Obs = NULL_OBS) -> None:
        self.spec = spec
        self.obs = obs
        self.seed = point_seed(spec.seed, f"{spec.fault}/{run_index}")
        self.rng = np.random.default_rng(self.seed)
        self.system = SystemConfig()
        self.devices = DeviceParams()
        self.recovery = FabricRecovery(
            ports=spec.ports, nodes=spec.nodes, seed=self.seed,
            rng=self.rng, backoff=spec.backoff,
            probe_interval=spec.probe_interval,
            error_threshold=spec.error_threshold,
            min_effective_bits=spec.min_effective_bits,
            mesh_architecture=spec.mesh_architecture,
            devices=self.devices, obs=obs)
        self.domain = self.recovery.domain
        self.ladder = self.recovery.ladder
        self.monitor = self.recovery.monitor
        self.net = make_network("flumen", spec.nodes, obs=obs)
        self.recovery.bind_network(self.net)
        self.control = MZIMControlUnit(self.net, self.system, obs=obs,
                                       health=self.monitor)
        self.scheduler = FlumenScheduler(self.control, self.system,
                                         obs=obs, ladder=self.ladder)
        self.traffic = TrafficGenerator(spec.nodes, "uniform", spec.load,
                                        seed=self.seed)
        if spec.fault == NO_FAULT:
            schedule = FaultSchedule()
        else:
            schedule = FaultSchedule.seeded(
                [spec.fault], self.seed, window_cycles=spec.cycles,
                ports=spec.ports, nodes=spec.nodes,
                magnitude=spec.magnitude)
        self.injector = FaultInjector(schedule, self.domain,
                                      seed=self.seed, obs=obs)
        self.job = plan_offload(spec.ports, spec.ports, 256,
                                mzim_size=spec.ports,
                                wavelengths=self.system.compute
                                .computation_wavelengths)
        self.submitted = 0

    # -- main loop ---------------------------------------------------------

    def execute(self) -> dict:
        spec = self.spec
        enob_nominal = min(
            float(effective_bits(NOMINAL_RECEIVED_POWER_W, self.devices)),
            _error_enob(self.recovery.mesh_probe()))
        # The window and its drain are booked as one run of the network.
        with self.net.running():
            self.scheduler.run(spec.cycles, self.traffic,
                               before_tick=self._before_tick)
            self.scheduler.drain(max_cycles=60_000)
        return self._record(enob_nominal)

    def _before_tick(self, cycle: int) -> None:
        """Fault events, periodic compute offloads and recovery probes."""
        spec = self.spec
        self.injector.tick(cycle)
        if cycle % spec.request_period == 0 and (
                self.control.advise_offload()
                or self.ladder.electrical_fallback):
            # Explicit per-run id: the process-global default would
            # leak run ordering into same-seed event logs.
            self.control.compute_buffer.append(ComputeRequest(
                node=cycle % spec.nodes, plan=self.job,
                matrix_key="campaign", submit_cycle=cycle,
                ports_needed=spec.partition_ports,
                duration_override=60, request_id=self.submitted))
            self.control.requests_received += 1
            self.submitted += 1
        self.recovery.service(cycle)

    # -- reporting ---------------------------------------------------------

    def _overheads(self) -> dict:
        """Runtime and energy overhead of detection + recovery.

        Backoff waits come straight from the ladder; each recalibration
        or re-placement pays one full-mesh programming event (Table 1's
        6 ns compute programming, DAC power for the write); electrical
        fallback jobs pay the core-path latency/energy difference vs.
        the photonic job they replace.
        """
        from repro.photonics.compute_energy import MZIMComputeModel

        system = self.system
        program_cycles = math.ceil(system.compute.mzim_switch_delay_s
                                   * system.core.frequency_hz)
        recalibrations = self.recovery.recalibrations
        recal_cycles = recalibrations * program_cycles
        recal_energy = recalibrations \
            * self.devices.converter.dac_power_w \
            * system.compute.mzim_switch_delay_s
        elec_jobs = self.scheduler.stats.electrical_completions
        elec_extra_cycles = 0
        elec_extra_energy = 0.0
        if elec_jobs:
            model = MZIMComputeModel()
            phot_cycles = 60  # the photonic duration_override above
            per_job = max(
                0, electrical_duration_cycles(self.job, system)
                - phot_cycles)
            elec_extra_cycles = elec_jobs * per_job
            n, vectors = self.spec.ports, self.job.vectors
            elec_extra_energy = elec_jobs * max(
                0.0, model.electrical_matmul_energy(n, vectors)
                - model.matmul_energy(n, vectors).total)
        backoff = self.ladder.stats.backoff_cycles
        runtime_overhead = backoff + recal_cycles + elec_extra_cycles
        return {
            "backoff_cycles": backoff,
            "recalibration_cycles": recal_cycles,
            "electrical_extra_cycles": elec_extra_cycles,
            "runtime_overhead_cycles": runtime_overhead,
            "runtime_overhead_fraction":
                runtime_overhead / self.spec.cycles,
            "energy_overhead_j": recal_energy + elec_extra_energy,
        }

    def _record(self, enob_nominal: float) -> dict:
        spec = self.spec
        error_final = max(self.recovery.mesh_probe(),
                          self.domain.link_error())
        if self.ladder.electrical_fallback:
            # Terminal fallback computes digitally: accuracy is restored
            # at the electrical path's cost (visible in the overheads).
            enob_final = ELECTRICAL_BITS
        else:
            enob_final = min(
                float(effective_bits(self.recovery.received_power(),
                                     self.devices)),
                _error_enob(error_final))
        injected = [
            {"cycle": e.cycle, "kind": e.fault.kind,
             "params": e.fault.params()}
            for e in self.injector.injected]
        offered = self.net.injected_packets
        delivered = self.net.latency.received
        stats = self.scheduler.stats
        return {
            "fault": spec.fault,
            "magnitude": spec.magnitude,
            "seed": self.seed,
            "injected": injected,
            "detected_cycle": self.recovery.detected_cycle,
            "detection_latency": (
                None if self.recovery.detected_cycle is None
                or not injected
                else self.recovery.detected_cycle - injected[0]["cycle"]),
            "final_rung": self.ladder.rung.name,
            "recovered": self.ladder.healthy,
            "ladder": self.ladder.to_dict(),
            "recalibrations": self.recovery.recalibrations,
            "error_peak": self.recovery.error_peak,
            "error_final": error_final,
            "enob_nominal": enob_nominal,
            "enob_final": enob_final,
            "enob_loss_bits": max(0.0, enob_nominal - enob_final),
            **self._overheads(),
            "compute_submitted": self.submitted,
            "compute_completed": stats.completed,
            "electrical_completions": stats.electrical_completions,
            "packets_offered": offered,
            "packets_delivered": delivered,
            "packets_conserved": offered == delivered,
            "network_quiescent": self.net.quiescent(),
        }


def run_single(spec: CampaignSpec, run_index: int,
               obs: Obs = NULL_OBS) -> dict:
    """Execute one seeded campaign run and return its record."""
    return _CampaignRun(spec, run_index, obs=obs).execute()


def golden_numbers_record() -> dict:
    """The golden-numbers cross-check for zero-fault campaigns.

    Runs the exact configuration the pinned golden tests use —
    ``SystemModel()`` on ``ImageBlur(64, 64)`` across
    every registered configuration — so a campaign artifact with no
    faults enabled carries proof that the fault subsystem left the
    simulation byte-identical.
    """
    from repro.analysis.tasks import run_to_record
    from repro.core.system import SystemModel
    from repro.workloads import ImageBlur

    model = SystemModel()
    workload = ImageBlur(height=64, width=64)
    runs = model.run_all(workload)
    return {name: run_to_record(run) for name, run in runs.items()}


def _aggregate(records: list[dict]) -> dict:
    """Campaign-level summary the CLI table prints."""
    def mean(key: str) -> float:
        values = [float(r[key]) for r in records if r[key] is not None]
        return sum(values) / len(values) if values else 0.0

    rungs: dict[str, int] = {}
    for record in records:
        rungs[record["final_rung"]] = \
            rungs.get(record["final_rung"], 0) + 1
    detections = [r["detection_latency"] for r in records
                  if r["detection_latency"] is not None]
    return {
        "runs": len(records),
        "recovery_rate": mean("recovered"),
        "mean_detection_latency": (
            sum(detections) / len(detections) if detections else None),
        "mean_enob_loss_bits": mean("enob_loss_bits"),
        "mean_runtime_overhead_fraction":
            mean("runtime_overhead_fraction"),
        "mean_energy_overhead_j": mean("energy_overhead_j"),
        "final_rungs": rungs,
        "all_packets_conserved":
            all(r["packets_conserved"] for r in records),
    }


def csv_records(campaigns: list[dict]) -> list[dict]:
    """Flatten campaign records into per-run scalar rows for CSV export."""
    rows = []
    for campaign in campaigns:
        for index, run in enumerate(campaign["runs"]):
            rows.append({
                "fault": run["fault"],
                "magnitude": run["magnitude"],
                "run": index,
                "seed": run["seed"],
                "injected_cycle": (run["injected"][0]["cycle"]
                                   if run["injected"] else None),
                "detected_cycle": run["detected_cycle"],
                "detection_latency": run["detection_latency"],
                "final_rung": run["final_rung"],
                "recovered": run["recovered"],
                "attempts": run["ladder"]["attempts"],
                "recalibrations": run["recalibrations"],
                "backoff_cycles": run["backoff_cycles"],
                "error_peak": run["error_peak"],
                "error_final": run["error_final"],
                "enob_nominal": run["enob_nominal"],
                "enob_final": run["enob_final"],
                "enob_loss_bits": run["enob_loss_bits"],
                "runtime_overhead_cycles": run["runtime_overhead_cycles"],
                "runtime_overhead_fraction":
                    run["runtime_overhead_fraction"],
                "energy_overhead_j": run["energy_overhead_j"],
                "compute_submitted": run["compute_submitted"],
                "compute_completed": run["compute_completed"],
                "electrical_completions": run["electrical_completions"],
                "packets_conserved": run["packets_conserved"],
            })
    return rows


def run_fault_campaign(spec: CampaignSpec, obs: Obs = NULL_OBS) -> dict:
    """Run a full campaign (``spec.runs`` seeded runs) for one fault."""
    records = [run_single(spec, index, obs=obs)
               for index in range(spec.runs)]
    out = {
        "spec": spec.to_dict(),
        "runs": records,
        "aggregate": _aggregate(records),
    }
    if spec.fault == NO_FAULT and spec.golden_reference:
        out["golden_reference"] = golden_numbers_record()
    return out
