"""The benchmark's four workloads, driven through the program's public API.

Each :class:`Case` turns a seed into generated inputs, runs them through
one public entry point (``SweepEngine.run``, ``ServeDaemon.run``,
``run_fault_campaign`` or ``ReplicaSet.run``), and reduces the output to

* a canonical form that is hashed and compared with the pinned digests,
* a list of broken invariants (empty when the output is sound), and
* the simulated metrics the run reports beside its host timings.

Two sizes exist: ``full`` is the measured benchmark, ``tiny`` keeps the
same code paths small enough for the smoke test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: The Figure 14/15 comparison: Flumen-A against the electrical mesh.
PAPER_BASELINE, PAPER_CANDIDATE = "mesh", "flumen_a"


@dataclass(frozen=True)
class Case:
    name: str
    #: (seed, size, trace_run) -> inputs; runs before the timed region.
    inputs: Callable[[int, str, bool], dict]
    #: inputs -> raw output of the public entry point (the timed region).
    run: Callable[[dict], object]
    #: raw output -> JSON-safe canonical form (what the digest covers).
    canonical: Callable[[object], object]
    #: raw output -> list of broken invariants.
    invariants: Callable[[object], list]
    #: raw output -> {metric: (value, unit)} of simulated results.
    sim_metrics: Callable[[object], dict]


# ----------------------------------------------------------------------
# sweep_paper: the paper-reproduction grid
# ----------------------------------------------------------------------

def _sweep_inputs(seed: int, size: str, trace_run: bool) -> dict:
    from repro.analysis.engine import PointSpec
    from repro.core.pipelines import configuration_names
    from repro.workloads import WORKLOAD_NAMES

    if size == "tiny":
        workloads, configs, shapes = (("image_blur", "rotation3d"),
                                      (PAPER_BASELINE, PAPER_CANDIDATE),
                                      "small")
    else:
        workloads, configs, shapes = (WORKLOAD_NAMES, configuration_names(),
                                      "paper")
    points = [PointSpec(key=f"{wl}/{cfg}",
                        params={"workload": wl, "configuration": cfg,
                                "shapes": shapes})
              for wl in workloads for cfg in configs]
    return {"points": points, "base_seed": seed}


def _sweep_run(inputs: dict):
    from repro.analysis.engine import SweepEngine

    return SweepEngine(jobs=1, cache=None).run(
        "system_point", inputs["points"], base_seed=inputs["base_seed"])


def _sweep_invariants(run) -> list:
    return [f"sweep point {r.key} failed: {r.error}"
            for r in run.failed_results()]


def _sweep_sim(run) -> dict:
    """Flumen-A vs Mesh geomeans against the paper's Figure 14/15 values.

    The model was calibrated toward these values, so the error is a
    reproduction check, not held-out validation.
    """
    from benchmarks.common import PAPER_GEOMEAN
    from repro.analysis.metrics import edp_reduction, geomean, speedup
    from repro.analysis.tasks import run_from_record

    runs: dict[str, dict] = {}
    for result in run.ok_results():
        runs.setdefault(result.params["workload"], {})[
            result.params["configuration"]] = run_from_record(result.metrics)
    pairs = [(cfgs[PAPER_BASELINE], cfgs[PAPER_CANDIDATE])
             for cfgs in runs.values()
             if PAPER_BASELINE in cfgs and PAPER_CANDIDATE in cfgs]
    metrics = {"engine.points": (float(len(run.results)), "count"),
               "engine.points_failed": (float(len(run.failed_results())),
                                        "count")}
    if pairs:
        for metric, ratio, paper in (
                ("paper_speedup_err_pct", speedup, PAPER_GEOMEAN["speedup"]),
                ("paper_edp_err_pct", edp_reduction, PAPER_GEOMEAN["edp"])):
            value = geomean(ratio(base, cand) for base, cand in pairs)
            metrics[metric] = (100.0 * abs(value - paper) / paper, "%")
    return metrics


# ----------------------------------------------------------------------
# serve_overload / serve_cluster: the serving tier
# ----------------------------------------------------------------------

def _serve_config(seed: int, duration: int, tenants: int = 12):
    from repro.serve import ServeConfig

    return ServeConfig(tenants=tenants, rate=0.2, duration=duration,
                       seed=seed)


def _overload_inputs(seed: int, size: str, trace_run: bool) -> dict:
    duration = 512 if size == "tiny" else 8192
    return {"config": _serve_config(seed, duration)}


def _overload_run(inputs: dict):
    from repro.serve import ServeDaemon

    return ServeDaemon(inputs["config"]).run()


def _cluster_inputs(seed: int, size: str, trace_run: bool) -> dict:
    duration = 1024 if size == "tiny" else 32768
    # Spans inside pool workers are invisible to the tracer, so both legs
    # of a traced run execute the replicas inline.
    return {"config": _serve_config(seed, duration), "replicas": 4,
            "jobs": 1 if trace_run else 2}


def _cluster_run(inputs: dict):
    from repro.serve import ReplicaSet

    return ReplicaSet(inputs["config"], inputs["replicas"]).run(
        jobs=inputs["jobs"])


def _serve_invariants(report: dict) -> list:
    problems = []
    if not report["conserved"]:
        problems.append(f"serve ledger not conserved: {report['ledger']}")
    if not report["drained"]:
        problems.append("serve session did not drain")
    return problems


def _serve_sim(report: dict) -> dict:
    ledger, latency = report["ledger"], report["latency"]
    mvm, comm = latency["mvm"], latency["comm"]
    return {
        "sim_goodput_per_kcycle": (report["goodput_per_kcycle"],
                                   "1/kcycle"),
        "sim_mvm_p50_cycles": (mvm["p50"] or 0.0, "cycles"),
        "sim_mvm_p99_cycles": (mvm["p99"] or 0.0, "cycles"),
        "sim_mvm_samples": (float(mvm["count"]), "count"),
        "sim_comm_p99_cycles": (comm["p99"] or 0.0, "cycles"),
        "sim_comm_samples": (float(comm["count"]), "count"),
        "sim_reject_frac": (ledger["rejected"] / max(1, ledger["offered"]),
                            "ratio"),
    }


# ----------------------------------------------------------------------
# faults_campaign: inject, detect, degrade, recover
# ----------------------------------------------------------------------

def _faults_inputs(seed: int, size: str, trace_run: bool) -> dict:
    from repro.faults.campaign import CampaignSpec, campaign_fault_kinds

    shape = {"runs": 1, "cycles": 300} if size == "tiny" else {}
    return {"specs": [CampaignSpec(fault=kind, seed=seed,
                                   golden_reference=False, **shape)
                      for kind in campaign_fault_kinds()]}


def _faults_run(inputs: dict) -> list:
    # Looked up at call time so the traced run sees the wrapped function.
    from repro.faults import campaign

    return [campaign.run_fault_campaign(spec) for spec in inputs["specs"]]


def _faults_invariants(campaigns: list) -> list:
    return [f"{c['spec']['fault']}: packets not conserved"
            for c in campaigns
            if not c["aggregate"]["all_packets_conserved"]]


def _faults_sim(campaigns: list) -> dict:
    """Recovery and detection over the runs that injected a fault."""
    from repro.faults.campaign import NO_FAULT

    runs = [r for c in campaigns if c["spec"]["fault"] != NO_FAULT
            for r in c["runs"]]
    latencies = [r["detection_latency"] for r in runs
                 if r["detection_latency"] is not None]
    return {
        "sim_recovery_rate": (
            sum(bool(r["recovered"]) for r in runs) / max(1, len(runs)),
            "ratio"),
        "sim_detection_latency_cycles": (
            sum(latencies) / len(latencies) if latencies else 0.0,
            "cycles"),
    }


def _identity(output):
    return output


CASES = {case.name: case for case in (
    Case("sweep_paper", _sweep_inputs, _sweep_run,
         lambda run: run.records(), _sweep_invariants, _sweep_sim),
    Case("serve_overload", _overload_inputs, _overload_run, _identity,
         _serve_invariants, _serve_sim),
    Case("faults_campaign", _faults_inputs, _faults_run, _identity,
         _faults_invariants, _faults_sim),
    Case("serve_cluster", _cluster_inputs, _cluster_run, _identity,
         _serve_invariants, _serve_sim),
)}
