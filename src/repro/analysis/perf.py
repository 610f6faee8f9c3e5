"""Pinned performance benchmark suite (``python -m repro perf``).

The harness that keeps the hot-path optimisations honest: a fixed set of
micro benchmarks (mesh propagation, WDM propagation, hop tracing, SVD
programming) and macro benchmarks (small system sweep, fault-campaign
smoke, an idle-network run) that

* measures wall time per benchmark (the fast kernels alone: their
  equivalence with the slow reference implementations is a tier-1
  test, ``tests/reference_*.py``, not a leg of this suite);
* hashes every benchmark's simulation output (``digest``), so a perf
  regression can be told apart from a *correctness* regression: digests
  are seeded and machine-independent, and must match the committed
  baseline byte-for-byte;
* writes a ``BENCH_<rev>.json`` artifact (``rev`` is the engine's
  :func:`~repro.analysis.engine.code_version`, so artifacts pin the
  exact source tree they measured) and reports deltas against a
  committed baseline with a configurable wall-clock tolerance.

Wall times are machine-dependent; digests are not.
The CI ``perf-smoke`` job therefore compares digests strictly and wall
times with a generous (2x) tolerance.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from repro.analysis.engine import (
    PointSpec,
    SweepEngine,
    canonical_json,
    code_version,
)

SCHEMA_VERSION = 1
DEFAULT_BASELINE = "BENCH_baseline.json"
DEFAULT_TOLERANCE = 2.0


def _digest_array(arr: np.ndarray) -> str:
    """Machine-independent content hash of one ndarray."""
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _digest_json(obj: object) -> str:
    """Content hash of a JSON-serializable object (canonical form)."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def _time_calls(fn, reps: int) -> float:
    """Mean seconds per call over ``reps`` invocations."""
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - start) / reps


def _programmed_mesh(n: int):
    from repro.photonics.clements import decompose, random_unitary
    return decompose(random_unitary(n, np.random.default_rng(n)))


def _fixed_fields(n: int, width: int | None = None) -> np.ndarray:
    rng = np.random.default_rng(1000 + n + (width or 0))
    shape = (n,) if width is None else (n, width)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ----------------------------------------------------------------------
# micro benchmarks
# ----------------------------------------------------------------------


def _bench_propagate(n: int, small: bool,
                     width: int | None = None) -> dict:
    mesh = _programmed_mesh(n)
    fields = _fixed_fields(n, width)
    mesh.propagate(fields)  # warm the propagation plan
    reps = {16: 12, 32: 8, 64: 5}.get(n, 5) if small \
        else {16: 60, 32: 30, 64: 15}.get(n, 10)
    vec_s = _time_calls(lambda: mesh.propagate(fields), reps)
    return {
        "wall_s": vec_s * reps,
        "per_call_s": vec_s,
        "meta": {"n": n, "width": width},
        "digest": _digest_array(mesh.propagate(fields)),
    }


def _bench_trace_hops(n: int, small: bool) -> dict:
    from repro.photonics.clements import _trace_hops
    mesh = _programmed_mesh(n)
    reps = 1 if small else 3
    # _trace_hops directly: the memo would make later reps free.
    cold_s = _time_calls(lambda: _trace_hops(mesh), reps)
    mesh.mzis_per_path()
    warm_s = _time_calls(mesh.mzis_per_path, 10)
    return {
        "wall_s": cold_s * reps,
        "per_call_s": cold_s,
        "memoized_per_call_s": warm_s,
        "meta": {"n": n},
        "digest": _digest_array(np.asarray(mesh.mzis_per_path())),
    }


def _bench_svd_cache(n: int, small: bool) -> dict:
    from repro.photonics.svd import clear_svd_cache, program_svd
    rng = np.random.default_rng(2000 + n)
    matrix = rng.standard_normal((n, n))
    clear_svd_cache()
    t0 = time.perf_counter()
    program = program_svd(matrix)
    cold_s = time.perf_counter() - t0
    reps = 3 if small else 10
    warm_s = _time_calls(lambda: program_svd(matrix), reps)
    return {
        "wall_s": cold_s,
        "per_call_s": cold_s,
        "memoized_per_call_s": warm_s,
        "speedup_vs_cold": cold_s / warm_s if warm_s > 0 else float("inf"),
        "meta": {"n": n},
        "digest": _digest_array(program.matrix()),
    }


def _bench_mesh_depth(architecture: str, n: int, small: bool) -> dict:
    """Decompose + propagate one architecture; depth/device accounting.

    The digest covers the reconstructed matrix and a fixed-field
    propagation, so a change in any architecture's factorization or
    column packing fails the baseline compare, and the record carries
    the depth/device counts the energy model bills for.
    """
    from repro.photonics.clements import random_unitary
    from repro.photonics.registry import make_mesh

    arch = make_mesh(architecture)
    u = random_unitary(n, np.random.default_rng(3000 + n))
    fields = _fixed_fields(n)
    reps = 2 if small else 6
    dec_s = _time_calls(lambda: arch.decompose(u), reps)
    mesh = arch.decompose(u)
    mesh.propagate(fields)  # warm the propagation plan
    prop_s = _time_calls(lambda: mesh.propagate(fields),
                         reps * 10)
    return {
        "wall_s": dec_s * reps,
        "per_call_s": dec_s,
        "propagate_per_call_s": prop_s,
        "meta": {"architecture": architecture, "n": n,
                 "depth_bound": arch.depth(n),
                 "measured_columns": mesh.num_columns,
                 "device_count": arch.device_count(n),
                 "passes": arch.passes(n)},
        "digest": _digest_array(np.concatenate([
            mesh.matrix().ravel(),
            mesh.propagate(fields).ravel()])),
    }


def _bench_noc_kernel(traffic, nodes: int, cycles: int, warmup: int,
                      meta: dict) -> dict:
    """One timed mesh run on the struct-of-arrays kernel.

    The digest covers the run's output summary; its exact agreement
    with the per-object oracle on the same traffic shape is pinned by
    ``tests/test_soa_kernel.py``.
    """
    from repro.noc.simulation import make_network

    net = make_network("mesh", nodes)
    t0 = time.perf_counter()
    net.run(traffic, cycles=cycles, warmup=warmup, drain=True)
    wall = time.perf_counter() - t0
    summary = {
        "latency": net.latency.to_dict(),
        "injected": net.injected_packets,
        "flit_hops": net.flit_hops,
        "link_traversals": net.link_traversals,
        "cycles": net.cycle,
        "utilization": net.utilization.to_dict(),
    }
    return {
        "wall_s": wall,
        "per_call_s": wall / cycles,
        "meta": meta,
        "digest": _digest_json(summary),
    }


def _bench_noc_idle(small: bool) -> dict:
    from repro.noc.traffic import TrafficGenerator

    nodes, cycles, load = 64, 2500, 0.02
    return _bench_noc_kernel(
        TrafficGenerator(nodes, "uniform", load, seed=5),
        nodes, cycles, cycles // 3,
        meta={"nodes": nodes, "cycles": cycles, "load": load,
              "topology": "mesh"})


def _bench_noc_step(small: bool) -> dict:
    """Busy-network per-cycle stepping cost (no idle to skip)."""
    from repro.noc.traffic import TrafficGenerator

    nodes, cycles, load = 16, 4000, 0.8
    return _bench_noc_kernel(
        TrafficGenerator(nodes, "uniform", load, seed=5),
        nodes, cycles, cycles // 8,
        meta={"nodes": nodes, "cycles": cycles, "load": load,
              "topology": "mesh"})


def _bench_noc_trace(small: bool) -> dict:
    """Bursty trace replay: the system model's NoP usage pattern.

    Packet bursts separated by long quiescent stretches — the shape
    workload-derived traces take, and the one the SoA backends' idle
    fast-forward skips through.
    """
    from repro.noc.traffic import TracePlayback

    nodes, bursts, gap = 16, 24, 2500
    events = []
    for b in range(bursts):
        start = b * gap
        for i in range(40):
            src = (i * 5 + b) % nodes
            dst = (i * 11 + 3 * b + 7) % nodes
            events.append((start + i // 8, src, dst, 3))
    cycles = bursts * gap
    return _bench_noc_kernel(
        TracePlayback(events), nodes, cycles, gap,
        meta={"nodes": nodes, "bursts": bursts, "gap": gap,
              "cycles": cycles, "topology": "mesh"})


# ----------------------------------------------------------------------
# macro benchmarks (through the sweep engine, deterministic seeding)
# ----------------------------------------------------------------------


def _bench_sweep(workloads: list[str], configs: list[str]) -> dict:
    """System sweep through the engine (``system_point`` grid).

    The struct-of-arrays backends' end-to-end agreement with the
    per-object oracles is a tier-1 test, not a leg of this bench.
    """
    grid = [PointSpec(key=f"{wl}/{cfg}",
                      params={"workload": wl, "configuration": cfg,
                              "shapes": "small"})
            for wl in workloads for cfg in configs]
    run = SweepEngine(jobs=1, cache=None).run("system_point", grid,
                                              base_seed=17)
    if run.failed_results():
        raise RuntimeError(
            f"sweep benchmark failed: {run.failed_results()[0].error}")
    wall = run.telemetry.duration_s
    return {
        "wall_s": wall,
        "per_call_s": wall / len(run.results),
        "meta": {"workloads": workloads, "configs": configs,
                 "shapes": "small", "base_seed": 17},
        "digest": _digest_json(run.records()),
    }


def _bench_sweep_2x2(small: bool) -> dict:
    return _bench_sweep(["image_blur", "rotation3d"], ["mesh", "flumen_a"])


def _bench_sweep_full(small: bool) -> dict:
    from repro.core.pipelines import CONFIGURATIONS
    from repro.workloads import WORKLOAD_NAMES
    return _bench_sweep(list(WORKLOAD_NAMES), list(CONFIGURATIONS.names()))


def _bench_mvm_batch(small: bool) -> dict:
    """Fleet-wide stacked MVM dispatch.

    A fleet of block-matmul offloads (the matrix-memory contents of
    several cores) runs through :func:`block_matmul_many` — one stacked
    ``(B, k, 2, 2)`` kernel pass.  Its bit-identity with block-by-block
    evaluation is pinned by ``tests/test_mvm_batch.py``.
    """
    from repro.core.accelerator import BlockMatmul, block_matmul_many

    fleet, size, q = 8, 16, 16
    rng = np.random.default_rng(23)
    jobs = [(BlockMatmul(rng.normal(size=(size, size)), mzim_size=8),
             rng.normal(size=(size, q)))
            for _ in range(fleet)]
    reps = 20 if small else 60
    got = block_matmul_many(jobs)
    vec_s = _time_calls(lambda: block_matmul_many(jobs), reps)
    return {
        "wall_s": vec_s * reps,
        "per_call_s": vec_s,
        "meta": {"fleet": fleet, "size": size, "vectors": q,
                 "mzim_size": 8, "reps": reps},
        "digest": _digest_array(np.concatenate([g.ravel() for g in got])),
    }


def _bench_fault_smoke(small: bool) -> dict:
    points = [PointSpec(key="stuck_mzi/m1",
                        params={"fault": "stuck_mzi", "magnitude": 1.0,
                                "runs": 1, "cycles": 600,
                                "golden_reference": False})]
    engine = SweepEngine(jobs=1, cache=None)
    run = engine.run("fault_point", points, base_seed=0)
    if run.failed_results():
        raise RuntimeError(
            f"fault benchmark failed: {run.failed_results()[0].error}")
    return {
        "wall_s": run.telemetry.duration_s,
        "meta": {"fault": "stuck_mzi", "runs": 1, "cycles": 600,
                 "base_seed": 0},
        "digest": _digest_json(run.records()),
    }


def _bench_telemetry_overhead(small: bool) -> dict:
    """Streaming-telemetry cost gate over a small system grid.

    Runs the 2x2 ``{image_blur, rotation3d} x {mesh, flumen_a}`` grid
    (small shapes) twice per rep — once with :data:`NULL_OBS`, once with
    the streaming :meth:`Obs.telemetry` bundle — and takes the min over
    reps for each leg.  Two hard gates ride on the record:

    * **overhead** — the telemetry leg may cost at most 5% over the
      null leg (plus a 5 ms absolute slack absorbing scheduler jitter
      on sub-100ms measurements);
    * **determinism** — every rep's event log + snapshot series must be
      byte-identical (the record's digest is that canonical payload, so
      the committed baseline also pins it across machines).

    A tripped gate is listed under the record's ``gate_failures``
    rather than raised, so the rest of the suite still runs and its
    artifact is written; ``repro perf`` then exits nonzero naming it
    (:func:`gate_failures`).

    The record carries estimated latency quantiles from the telemetry
    leg's histograms (surfaced in the perf markdown summary).
    """
    from repro.analysis.tasks import _find_workload
    from repro.core.system import SystemModel
    from repro.obs import NULL_OBS, Obs

    grid = [("image_blur", "mesh"), ("image_blur", "flumen_a"),
            ("rotation3d", "mesh"), ("rotation3d", "flumen_a")]
    workloads = {name: _find_workload(name, "small")
                 for name in dict.fromkeys(wl for wl, _ in grid)}

    def leg(obs_factory) -> tuple[float, list]:
        bundles = []
        t0 = time.perf_counter()
        for wl, cfg in grid:
            obs = obs_factory()
            SystemModel(obs=obs).run(workloads[wl], cfg)
            bundles.append(obs)
        return time.perf_counter() - t0, bundles

    reps = 2 if small else 3
    null_s = min(leg(lambda: NULL_OBS)[0] for _ in range(reps))
    telem_s = float("inf")
    payloads: list[str] = []
    bundles: list = []
    for _ in range(reps):
        wall, run_bundles = leg(
            lambda: Obs.telemetry(snapshot_interval=256))
        telem_s = min(telem_s, wall)
        payloads.append(canonical_json([
            {"events": list(obs.events.events),
             "snapshots": obs.sampler.series}
            for obs in run_bundles]))
        bundles = run_bundles
    failures = []
    if len(set(payloads)) != 1:
        failures.append(
            "determinism: telemetry output is not deterministic: "
            "identical same-seed reps produced differing event/snapshot "
            "payloads")
    overhead = (telem_s - null_s) / null_s if null_s > 0 else 0.0
    if telem_s - null_s > max(0.05 * null_s, 0.005):
        failures.append(
            f"overhead: streaming telemetry overhead {overhead:.1%} "
            f"exceeds the 5% budget ({telem_s:.4f}s vs {null_s:.4f}s "
            f"over the null bundle)")

    quantiles: dict[str, dict] = {}
    for (wl, cfg), obs in zip(grid, bundles):
        for kind, key, name, _labels, inst in obs.metrics.iter_series():
            if kind != "histogram" or not inst.count:
                continue
            quantiles[f"{wl}/{cfg}:{key}"] = {
                "count": inst.count,
                "p50": round(inst.quantile(0.50), 3),
                "p95": round(inst.quantile(0.95), 3),
                "p99": round(inst.quantile(0.99), 3),
            }
    events = sum(len(obs.events) for obs in bundles)
    snapshots = sum(len(obs.sampler) for obs in bundles)
    return {
        "wall_s": telem_s,
        "per_call_s": telem_s / len(grid),
        "reference_per_call_s": null_s / len(grid),
        "overhead_fraction": round(overhead, 4),
        "quantiles": quantiles,
        "meta": {"grid": [f"{wl}/{cfg}" for wl, cfg in grid],
                 "shapes": "small", "traffic_seed": 17,
                 "snapshot_interval": 256, "events": events,
                 "snapshots": snapshots},
        "digest": hashlib.sha256(payloads[0].encode()).hexdigest(),
        **({"gate_failures": failures} if failures else {}),
    }


def _bench_serve_saturation(small: bool) -> dict:
    """Offered load vs latency/goodput of the serving daemon.

    Runs seeded `repro serve` sessions at increasing per-tenant arrival
    rates and records the p50/p95/p99 request latency and goodput at
    each point — the saturation curve EXPERIMENTS.md plots.  Gates:
    every session must conserve its admission ledger (offered ==
    admitted + rejected == completed + rejected at drain) and drain
    completely; the digest pins the full point list, so any drift in
    arrivals, admission, batching, or scheduling shows up as a baseline
    digest mismatch, machine-independently.
    """
    from repro.serve import ServeConfig, ServeDaemon

    rates = (0.02, 0.06, 0.12) if small else \
        (0.02, 0.04, 0.08, 0.12, 0.20)
    duration = 2048 if small else 4096
    points: list[dict] = []
    t0 = time.perf_counter()
    for rate in rates:
        report = ServeDaemon(ServeConfig(
            duration=duration, seed=0, rate=rate)).run()
        points.append({
            "rate": rate,
            "ledger": report["ledger"],
            "latency": report["latency"],
            "goodput_per_kcycle": round(
                report["goodput_per_kcycle"], 3),
            "electrical_completions":
                report["electrical_completions"],
            "conserved": report["conserved"],
            "drained": report["drained"],
        })
    wall = time.perf_counter() - t0
    broken = [p["rate"] for p in points
              if not (p["conserved"] and p["drained"])]
    if broken:
        raise RuntimeError(
            f"serve sessions violated the admission ledger or failed "
            f"to drain at rates {broken}")
    quantiles = {
        f"rate{p['rate']:g}:{kind}": {
            "count": p["latency"][kind]["count"],
            "p50": p["latency"][kind]["p50"],
            "p95": p["latency"][kind]["p95"],
            "p99": p["latency"][kind]["p99"],
        }
        for p in points for kind in ("mvm", "comm")
        if p["latency"][kind]["count"]}
    return {
        "wall_s": wall,
        "per_call_s": wall / len(rates),
        "quantiles": quantiles,
        "meta": {"rates": list(rates), "duration": duration,
                 "seed": 0, "arrival": "poisson",
                 "goodput_per_kcycle": [p["goodput_per_kcycle"]
                                        for p in points]},
        "digest": _digest_json(points),
    }


#: Cluster scaling the serve_cluster bench must demonstrate (simulated
#: goodput of 4 tenant-sharded replicas over the single shared fabric).
SERVE_CLUSTER_MIN_SCALING = 2.5

#: One cluster run feeds both serve_cluster/* records (keyed by suite).
_serve_cluster_memo: dict[bool, dict[int, dict]] = {}


def _bench_serve_cluster(replicas: int, small: bool) -> dict:
    """Replica-sharded serving tier: simulated capacity scaling.

    One saturated 12-tenant session is served by a single daemon
    (``replicas1`` — every tenant contends for one photonic fabric)
    and by four tenant-sharded replicas (``replicas4`` — each with its
    own fabric).  Offered streams are byte-identical in both shapes
    (per-tenant RNGs are name-keyed), so completed-request goodput per
    *simulated* kilocycle isolates fabric capacity from wall-clock and
    core count; the 4-replica cluster must clear
    ``SERVE_CLUSTER_MIN_SCALING`` or the bench itself fails.  Both
    records come from one memoized pair of runs and their digests pin
    ledger, latency quantiles, and per-replica completion counts.
    """
    from repro.serve import ReplicaSet, ServeConfig

    runs = _serve_cluster_memo.get(small)
    if runs is None:
        config = ServeConfig(duration=2048, seed=0, rate=0.2,
                             tenants=12)
        runs = {}
        for r in (1, 4):
            t0 = time.perf_counter()
            report = ReplicaSet(config, r).run(jobs=1)
            wall = time.perf_counter() - t0
            point = {
                "replicas": r,
                "cycles": report["cycles"],
                "ledger": report["ledger"],
                "latency": report["latency"],
                "goodput_per_kcycle": round(
                    report["goodput_per_kcycle"], 3),
                "conserved": report["conserved"],
                "drained": report["drained"],
                "per_replica": [
                    {"tenants": rep["tenants"],
                     "cycles": rep["cycles"],
                     "completed": rep["completed"]}
                    for rep in report["per_replica"]],
            }
            if not (point["conserved"] and point["drained"]):
                raise RuntimeError(
                    f"serve cluster (replicas={r}) violated the "
                    "admission ledger or failed to drain")
            runs[r] = {"wall_s": wall, "point": point}
        scaling = (runs[4]["point"]["goodput_per_kcycle"]
                   / runs[1]["point"]["goodput_per_kcycle"])
        if scaling < SERVE_CLUSTER_MIN_SCALING:
            raise RuntimeError(
                f"serve cluster scaling {scaling:.2f}x below the "
                f"{SERVE_CLUSTER_MIN_SCALING}x gate")
        for r in (1, 4):
            runs[r]["scaling"] = round(scaling, 3)
        _serve_cluster_memo[small] = runs
    run = runs[replicas]
    point = run["point"]
    return {
        "wall_s": run["wall_s"],
        "per_call_s": run["wall_s"],
        "meta": {"replicas": replicas, "tenants": 12, "rate": 0.2,
                 "duration": 2048, "seed": 0,
                 "goodput_per_kcycle": point["goodput_per_kcycle"],
                 "cycles": point["cycles"],
                 "scaling_vs_replicas1": run["scaling"]},
        "digest": _digest_json(point),
    }


#: The pinned suite: (name, in_small_suite, callable(small) -> record).
BENCHMARKS: list[tuple[str, bool, object]] = [
    ("mesh_propagate/n16", True,
     lambda small: _bench_propagate(16, small)),
    ("mesh_propagate/n32", True,
     lambda small: _bench_propagate(32, small)),
    ("mesh_propagate/n64", True,
     lambda small: _bench_propagate(64, small)),
    ("mesh_propagate_wdm/n32_p8", True,
     lambda small: _bench_propagate(32, small, width=8)),
    ("mesh_propagate_wdm/n64_p4", False,
     lambda small: _bench_propagate(64, small, width=4)),
    ("mesh_trace_hops/n64", True, lambda small: _bench_trace_hops(64, small)),
    ("svd_program_cache/n16", True,
     lambda small: _bench_svd_cache(16, small)),
    ("mesh_depth/clements", True,
     lambda small: _bench_mesh_depth("clements", 16, small)),
    ("mesh_depth/reck", True,
     lambda small: _bench_mesh_depth("reck", 16, small)),
    ("mesh_depth/bricks", True,
     lambda small: _bench_mesh_depth("bricks", 16, small)),
    ("noc_idle_run/mesh64", True, _bench_noc_idle),
    ("noc_step/mesh16_load08", True, _bench_noc_step),
    ("noc_trace_replay/mesh16_bursty", True, _bench_noc_trace),
    ("mvm_batch/fleet8_16x16", True, _bench_mvm_batch),
    ("sweep_small/2x2", True, _bench_sweep_2x2),
    ("sweep_small/full_grid", False, _bench_sweep_full),
    ("faults_smoke/stuck_mzi", True, _bench_fault_smoke),
    ("telemetry_overhead/2x2", True, _bench_telemetry_overhead),
    ("serve_saturation/poisson", True, _bench_serve_saturation),
    ("serve_cluster/replicas1", True,
     lambda small: _bench_serve_cluster(1, small)),
    ("serve_cluster/replicas4", True,
     lambda small: _bench_serve_cluster(4, small)),
]


def benchmark_names(small: bool = False) -> list[str]:
    return [name for name, in_small, _fn in BENCHMARKS
            if in_small or not small]


def run_suite(small: bool = False,
              only: str | None = None,
              progress=None) -> dict:
    """Execute the pinned suite; returns the artifact payload.

    ``small`` restricts to the CI subset (a strict subset of the full
    suite, so a full-suite baseline covers every small-suite benchmark).
    ``only`` keeps just the benchmarks whose name starts with the given
    prefix (used by the tests).  ``progress(name)`` is called before
    each benchmark runs.
    """
    benchmarks: dict[str, dict] = {}
    for name, in_small, fn in BENCHMARKS:
        if small and not in_small:
            continue
        if only and not name.startswith(only):
            continue
        if progress is not None:
            progress(name)
        benchmarks[name] = fn(small)
    return {
        "schema": SCHEMA_VERSION,
        "suite": "small" if small else "full",
        "rev": code_version()[:12],
        "benchmarks": benchmarks,
    }


def gate_failures(payload: dict) -> list[str]:
    """``"<benchmark>: <gate>: <why>"`` for every gate a record tripped."""
    return [f"{name}: {failure}"
            for name, record in payload["benchmarks"].items()
            for failure in record.get("gate_failures", ())]


def write_artifact(payload: dict, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def default_artifact_path() -> str:
    return f"BENCH_{code_version()[:12]}.json"


def markdown_summary(payload: dict,
                     delta_rows: list[list] | None = None,
                     baseline_rev: str | None = None,
                     tolerance: float | None = None) -> str:
    """GitHub-flavored markdown report of a suite run.

    The CI perf job appends this to ``$GITHUB_STEP_SUMMARY`` so the
    trend against ``BENCH_baseline.json`` shows up on the workflow page
    without digging into artifacts.  ``delta_rows`` is
    :func:`compare_to_baseline` output; omit it when no baseline was
    available and only the current measurements are reported.
    """
    lines = [f"## Perf suite `{payload['suite']}` @ `{payload['rev']}`", ""]
    lines += ["| benchmark | wall (s) | per call (ms) |",
              "|---|---:|---:|"]
    for name, record in payload["benchmarks"].items():
        per_call = record.get("per_call_s")
        lines.append(
            f"| {name} | {record['wall_s']:.3f} "
            f"| {'-' if per_call is None else f'{per_call * 1e3:.3f}'} |")
    lines.append("")
    quantile_rows = [
        (bench, series, q)
        for bench, record in payload["benchmarks"].items()
        for series, q in sorted(record.get("quantiles", {}).items())]
    if quantile_rows:
        lines += ["### Estimated latency quantiles", "",
                  "| benchmark | series | count | p50 | p95 | p99 |",
                  "|---|---|---:|---:|---:|---:|"]
        for bench, series, q in quantile_rows:
            lines.append(
                f"| {bench} | `{series}` | {q['count']} "
                f"| {q['p50']:g} | {q['p95']:g} | {q['p99']:g} |")
        lines.append("")
    if delta_rows is None:
        lines.append("_No baseline available; nothing to compare against._")
    else:
        title = f"### vs baseline @ `{baseline_rev or '?'}`"
        if tolerance is not None:
            title += f" (tolerance {tolerance:g}x)"
        lines += [title, "",
                  "| benchmark | current (s) | baseline (s) | ratio "
                  "| status |",
                  "|---|---:|---:|---:|---|"]
        for name, cur, ref, ratio, status in delta_rows:
            flag = "" if status in ("ok", "new (no baseline)") else " ⚠️"
            lines.append(f"| {name} | {cur} | {ref} | {ratio} "
                         f"| {status}{flag} |")
    lines.append("")
    return "\n".join(lines)


def compare_to_baseline(current: dict, baseline: dict,
                        tolerance: float = DEFAULT_TOLERANCE
                        ) -> tuple[list[list], list[str]]:
    """Delta report of ``current`` against ``baseline``.

    Returns ``(rows, failures)``: one row per benchmark present in both
    payloads with identical ``meta`` (benchmarks only in one side are
    reported but never failed), and a list of human-readable failures —
    a digest mismatch (simulation output changed: a correctness bug,
    failed strictly) or a timing ratio above ``tolerance``.  When both
    sides report ``per_call_s`` the ratio uses it (repetition-count
    independent, so a small-suite run compares cleanly against a
    full-suite baseline); otherwise it falls back to ``wall_s``.
    """
    rows: list[list] = []
    failures: list[str] = []
    base_benchmarks = baseline.get("benchmarks", {})
    for name, record in current.get("benchmarks", {}).items():
        base = base_benchmarks.get(name)
        if base is None:
            rows.append([name, f"{record['wall_s']:.4f}", "-", "-",
                         "new (no baseline)"])
            continue
        if base.get("meta") != record.get("meta"):
            rows.append([name, f"{record['wall_s']:.4f}", "-", "-",
                         "meta changed (not compared)"])
            continue
        if record.get("per_call_s") and base.get("per_call_s"):
            quantity, cur, ref = \
                "per-call", record["per_call_s"], base["per_call_s"]
        else:
            quantity, cur, ref = "wall", record["wall_s"], base["wall_s"]
        ratio = cur / ref if ref > 0 else float("inf")
        status = "ok"
        if record.get("digest") and base.get("digest") \
                and record["digest"] != base["digest"]:
            status = "DIGEST MISMATCH"
            failures.append(
                f"{name}: simulation output digest changed "
                f"({base['digest'][:12]} -> {record['digest'][:12]})")
        elif ratio > tolerance:
            status = f"SLOWER than {tolerance:g}x budget"
            failures.append(
                f"{name}: {quantity} {cur:.4f}s is {ratio:.2f}x the "
                f"baseline {ref:.4f}s (tolerance {tolerance:g}x)")
        rows.append([name, f"{cur:.4f}", f"{ref:.4f}",
                     f"{ratio:.2f}x", status])
    for name in base_benchmarks:
        if name not in current.get("benchmarks", {}):
            rows.append([name, "-", f"{base_benchmarks[name]['wall_s']:.4f}",
                        "-", "not run"])
    return rows, failures
