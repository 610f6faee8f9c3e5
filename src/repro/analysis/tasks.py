"""Built-in sweep tasks for :mod:`repro.analysis.engine`.

A task is a module-level function ``fn(params, seed) -> metrics`` so it
can cross the engine's process-pool boundary by name.  The registered
set covers the repository's standing experiments:

``system_point``
    One (workload, configuration) cell of the Figures 13-15 system sweep.
``alg1_mix``
    The Section 3.4 mixed communication + computation run used by the
    tau/eta/zeta sensitivity scans.
``noc_latency``
    One synthetic-traffic network simulation (Figure 11 points and the
    network/fabric ablations).
``fault_point``
    One fault-injection campaign (DESIGN.md §12): inject a seeded fault
    mid-run, detect it, walk the degradation ladder, and report
    accuracy/overhead/recovery statistics (``python -m repro faults``).
``mesh_comparison``
    One mesh architecture's accuracy/depth/device/energy point
    (DESIGN.md §16): decomposition fidelity, drift and stuck-device
    degradation, recalibration residual, and the compute-energy window
    under that architecture's depth/device accounting.
``serve_replica``
    One replica of a serve cluster (DESIGN.md §18), run to completion;
    :class:`~repro.serve.ReplicaSet` maps it over its tenant shards.
``selftest``
    A cheap deterministic task exercised by the engine's own tests and
    the CI smoke job; ``params={"fail": true}`` raises on purpose to
    exercise failure isolation.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.engine import register_task
from repro.config import DeviceParams, SchedulerConfig, SystemConfig
from repro.core.pipelines import CONFIGURATIONS
from repro.core.system import SystemModel, WorkloadRun
from repro.multicore.energy import EnergyBreakdown

#: Energy components serialized into system-sweep records.
ENERGY_COMPONENTS = ("core", "l1", "l2", "l3", "dram", "nop", "mzim")


def run_to_record(run: WorkloadRun) -> dict:
    """Serialize a :class:`WorkloadRun` to a JSON-safe metrics mapping."""
    return {
        "workload": run.workload,
        "configuration": run.configuration,
        "runtime_s": run.runtime_s,
        "core_cycles": run.core_cycles,
        "comm_cycles": run.comm_cycles,
        "mzim_cycles": run.mzim_cycles,
        "avg_packet_latency": run.avg_packet_latency,
        "offloaded_macs": run.offloaded_macs,
        "energy": {c: getattr(run.energy, c) for c in ENERGY_COMPONENTS},
        "energy_total_j": run.energy.total,
        "edp_js": run.edp,
    }


def run_from_record(record: dict) -> WorkloadRun:
    """Reconstruct a :class:`WorkloadRun` from :func:`run_to_record`.

    JSON round-trips doubles exactly, so the rebuilt run is numerically
    identical to the evaluated one — cached and fresh sweeps agree to
    the last bit.
    """
    energy = EnergyBreakdown(**record["energy"])
    return WorkloadRun(
        workload=record["workload"],
        configuration=record["configuration"],
        runtime_s=record["runtime_s"],
        energy=energy,
        core_cycles=record["core_cycles"],
        comm_cycles=record["comm_cycles"],
        mzim_cycles=record["mzim_cycles"],
        avg_packet_latency=record["avg_packet_latency"],
        offloaded_macs=record["offloaded_macs"])


def _parameter_tables() -> dict:
    """Cache-key context: the default system + device parameter tables."""
    return {
        "system": dataclasses.asdict(SystemConfig()),
        "devices": dataclasses.asdict(DeviceParams()),
    }


#: The last workload :func:`_find_workload` built, as ``((name, shapes),
#: workload)``.  One slot: a sweep's points arrive grouped by workload,
#: so consecutive points reuse it while peak memory holds one workload.
_last_workload: tuple[tuple[str, str], object] | None = None


def _find_workload(name: str, shapes: str):
    # Builds only the named workload — constructing all five per sweep
    # point is measurable (paper-shape weight tensors are megabytes).
    # Callers (system_point, trace, perf) only read the workload, so
    # handing the same instance to consecutive points is safe.
    global _last_workload
    from repro.workloads import make_workload
    if _last_workload is None or _last_workload[0] != (name, shapes):
        _last_workload = ((name, shapes), make_workload(name, shapes))
    return _last_workload[1]


@register_task("system_point", context=_parameter_tables)
def system_point(params: dict, seed: int) -> dict:
    """Evaluate one (workload, configuration) pair of the system sweep.

    Params: ``workload`` (name), ``configuration`` (any registered
    pipeline name), ``shapes`` ("paper"/"small", default "paper"),
    ``mesh_architecture`` (registry name; absent = the SystemConfig
    default, Clements).  The system model draws no random numbers, so
    the seed is unused; a ``traffic_seed`` param only keys the cache.
    """
    # Resolve early so an unknown name fails with the registered list
    # before any simulation work happens.
    configuration = CONFIGURATIONS.get(params["configuration"]).name
    workload = _find_workload(params["workload"],
                              params.get("shapes", "paper"))
    system = None
    if params.get("mesh_architecture"):
        system = SystemConfig().replace(
            mesh_architecture=str(params["mesh_architecture"]))
    return run_to_record(
        SystemModel(system=system).run(workload, configuration))


@register_task("alg1_mix")
def alg1_mix(params: dict, seed: int) -> dict:
    """Section 3.4 mixed comm + compute run; service/latency metrics.

    Params: any of ``tau_cycles`` / ``eta`` / ``zeta`` (scheduler
    overrides), plus ``load``, ``cycles``, ``request_period``,
    ``traffic_seed``.
    """
    from repro.core.accelerator import plan_offload
    from repro.core.control_unit import ComputeRequest, MZIMControlUnit
    from repro.core.scheduler import FlumenScheduler
    from repro.noc.simulation import make_network
    from repro.noc.traffic import TrafficGenerator

    overrides = {k: params[k] for k in ("tau_cycles", "eta", "zeta")
                 if k in params}
    if "tau_cycles" in overrides:
        overrides["tau_cycles"] = int(overrides["tau_cycles"])
    scheduler_cfg = SchedulerConfig(**overrides)
    system = SystemConfig().replace(scheduler=scheduler_cfg)
    load = float(params.get("load", 0.35))
    cycles = int(params.get("cycles", 4000))
    period = int(params.get("request_period", 120))
    traffic_seed = int(params.get("traffic_seed", seed))

    job = plan_offload(8, 8, 256, 8, 8)
    net = make_network("flumen", 16)
    control = MZIMControlUnit(net, system)
    scheduler = FlumenScheduler(control, system)
    traffic = TrafficGenerator(16, "uniform", load, seed=traffic_seed)
    submitted = 0
    for cycle in range(cycles):
        for packet in traffic.packets_for_cycle(net.cycle):
            net.offer_packet(packet)
        if cycle % period == 0:
            # Explicit per-run id (the default factory is a process-global
            # counter): keeps same-seed event logs byte-identical.
            control.compute_buffer.append(ComputeRequest(
                node=cycle % 16, plan=job, matrix_key="k",
                submit_cycle=cycle, ports_needed=4,
                duration_override=60, request_id=submitted))
            control.requests_received += 1
            submitted += 1
        scheduler.tick()
        net.step()
    return {
        "submitted": float(submitted),
        "serviced": float(scheduler.stats.completed),
        "service_rate": scheduler.stats.completed / max(submitted, 1),
        "avg_wait": scheduler.stats.average_wait,
        "packet_latency": net.latency.average,
        # Full JSON-ready snapshots ride along with the legacy keys.
        "scheduler": scheduler.stats.to_dict(),
        "latency": net.latency.to_dict(),
    }


@register_task("noc_latency")
def noc_latency(params: dict, seed: int) -> dict:
    """One synthetic-traffic network run; latency/throughput metrics.

    Params: ``topology`` (any :func:`make_topology` name, or "optbus" /
    "flumen"), ``pattern``, ``load``, ``nodes``, ``cycles``, ``warmup``,
    ``packet_size``, ``traffic_seed``, plus topology kwargs ``num_vcs``,
    ``buffer_depth`` (electrical) and ``reconfig_cycles``,
    ``arbitration``, ``pipelined_setup`` (Flumen).
    """
    from repro.noc.simulation import make_network
    from repro.noc.traffic import TrafficGenerator

    topology = params.get("topology", "mesh")
    nodes = int(params.get("nodes", 16))
    cycles = int(params.get("cycles", 2000))
    warmup = int(params.get("warmup", 600))
    if topology == "flumen":
        kwargs = {k: params[k] for k in
                  ("reconfig_cycles", "arbitration", "pipelined_setup")
                  if k in params}
    elif topology == "optbus":
        kwargs = {}
    else:
        kwargs = {k: int(params[k]) for k in ("num_vcs", "buffer_depth")
                  if k in params}
    if topology == "mesh_wf":
        # Per-flit adaptive routing: only the per-object router
        # network draws a route for each head flit.
        from repro.noc.network import Network
        from repro.noc.topology import make_topology
        net = Network(make_topology(topology, nodes), **kwargs)
    else:
        net = make_network(topology, nodes, **kwargs)
    traffic = TrafficGenerator(
        nodes, params.get("pattern", "uniform"),
        float(params.get("load", 0.1)),
        packet_size=int(params.get("packet_size", 4)),
        seed=int(params.get("traffic_seed", seed)))
    net.run(traffic, cycles=cycles, warmup=warmup)
    measured = cycles - warmup
    return {
        "avg_latency": net.latency.average,
        "p99_latency": net.latency.p99,
        "throughput": net.latency.throughput(nodes, max(measured, 1)),
        # Full JSON-ready snapshots ride along with the legacy keys.
        "latency": net.latency.to_dict(),
        "utilization": net.utilization.to_dict(),
    }


@register_task("fault_point", context=_parameter_tables)
def fault_point(params: dict, seed: int) -> dict:
    """One fault campaign: inject, detect, degrade, recover, report.

    Params: ``fault`` (a registered fault kind, or "none" for the
    zero-fault control), ``magnitude``, ``runs``, ``cycles``, plus any
    :class:`~repro.faults.campaign.CampaignSpec` field (``load``,
    ``request_period``, ``probe_interval``, ...).  The engine-derived
    seed keeps campaign artifacts byte-identical across job counts.
    """
    from repro.faults.campaign import CampaignSpec, run_fault_campaign
    from repro.faults.ladder import BackoffPolicy

    fields = {f.name for f in dataclasses.fields(CampaignSpec)}
    kwargs = {k: v for k, v in params.items() if k in fields}
    if "backoff" in kwargs:
        kwargs["backoff"] = BackoffPolicy(**kwargs["backoff"])
    kwargs.setdefault("seed", seed)
    kwargs["seed"] = int(kwargs["seed"])
    for key in ("runs", "cycles", "ports", "nodes", "request_period",
                "probe_interval"):
        if key in kwargs:
            kwargs[key] = int(kwargs[key])
    return run_fault_campaign(CampaignSpec(**kwargs))


@register_task("mesh_comparison", context=_parameter_tables)
def mesh_comparison(params: dict, seed: int) -> dict:
    """One architecture's accuracy/depth/device/energy point.

    Params: ``architecture`` (a :mod:`repro.photonics.registry` name),
    ``ports`` (mesh size, default 8), ``vectors`` (MVMs per compute
    window, default 8), ``drift_sigma`` (phase-drift step, rad, default
    0.02), ``traffic_seed`` (optional override of the engine-derived
    seed).  The same seeded target unitary and fault doses hit every
    architecture, so rows differ only by arrangement — the 2507.22972
    complexity-vs-energy comparison as one grid axis.
    """
    import numpy as np

    from repro.analysis.engine import point_seed
    from repro.faults.injector import FaultyMesh
    from repro.photonics.calibration import (
        calibrate_by_decomposition,
        matrix_error,
    )
    from repro.photonics.clements import random_unitary
    from repro.photonics.compute_energy import MZIMComputeModel
    from repro.photonics.devices import BAR_THETA
    from repro.photonics.registry import make_mesh

    name = str(params["architecture"])
    arch = make_mesh(name)
    ports = int(params.get("ports", 8))
    vectors = int(params.get("vectors", 8))
    drift_sigma = float(params.get("drift_sigma", 0.02))
    base_seed = int(params.get("traffic_seed", seed))
    target = random_unitary(ports, np.random.default_rng(base_seed))
    mesh = arch.decompose(target)
    fields = np.eye(ports, dtype=complex)[:, 0]
    propagate_error = float(np.linalg.norm(
        arch.propagate(mesh, fields) - target @ fields))

    drifted = FaultyMesh(arch.decompose(target), architecture=arch)
    drifted.drift(drift_sigma,
                  np.random.default_rng(point_seed(base_seed, "drift")))
    drift_error = matrix_error(drifted.measure(), target)
    recal = calibrate_by_decomposition(drifted, target, iterations=2,
                                       architecture=name)

    stuck = FaultyMesh(arch.decompose(target), architecture=arch)
    stuck_index = stuck.num_mzis // 2
    stuck.stick(stuck_index, BAR_THETA)
    stuck_error = matrix_error(stuck.measure(), target)

    model = MZIMComputeModel(architecture=name)
    energy = model.matmul_energy(ports, vectors)
    return {
        "architecture": name,
        "ports": float(ports),
        "depth_bound": float(arch.depth(ports)),
        "measured_columns": float(mesh.num_columns),
        "device_count": float(arch.device_count(ports)),
        "program_mzi_count": float(arch.program_mzi_count(ports)),
        "passes": float(arch.passes(ports)),
        "svd_mzi_count": float(model.svd_mzi_count(ports)),
        "svd_mesh_columns": float(model.mesh_columns(ports)),
        "decomposition_error": matrix_error(arch.matrix(mesh), target),
        "propagate_error": propagate_error,
        "drift_error": drift_error,
        "recalibrated_error": recal.final_error,
        "stuck_error": stuck_error,
        "stuck_domain_size": float(len(stuck.stuck)),
        "compute_energy_j": energy.total,
        "energy_per_mac_j": energy.per_mac,
        "laser_power_per_vector_w": model.laser_power_per_vector_w(ports),
    }


@register_task("serve_replica")
def serve_replica(params: dict, seed: int) -> dict:
    """One tenant-sharded serve replica, run to completion.

    Params: the shard's :meth:`~repro.serve.ServeConfig.to_dict` record.
    The shard config carries the session seed, so the engine-derived
    seed is unused.  Returns the payload :class:`~repro.serve.ReplicaSet`
    aggregates: report, event stream, snapshot series, latency samples.
    """
    from repro.faults.ladder import BackoffPolicy
    from repro.serve.cluster import _run_shard
    from repro.serve.daemon import ServeConfig

    return _run_shard(ServeConfig(
        **{**params, "backoff": BackoffPolicy(**params["backoff"])}))


@register_task("selftest")
def selftest(params: dict, seed: int) -> dict:
    """Deterministic toy task for engine tests and the CI smoke path."""
    if params.get("fail"):
        raise RuntimeError(params.get("message", "injected failure"))
    x = float(params.get("x", 0.0))
    return {"x": x, "square": x * x, "seed": float(seed)}
