"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Library inventory: configuration, fabric structure, workload shapes.
``latency``
    Figure 11-style latency/load table for one topology + pattern.
``compute``
    Figure 12(b)-style photonic-vs-electrical compute energy table.
``system``
    Run one workload through all five configurations (Figures 13-15 row).
``area``
    Section 5.1 area report.
``sweep``
    Full workload x configuration sweep through the parallel execution
    engine, with the on-disk result cache and a JSON artifact.
``trace``
    One fully-instrumented run exported as Chrome trace-event JSON
    (Perfetto-loadable) plus a JSONL metrics snapshot.
``faults``
    Fault-injection campaigns (DESIGN.md §12): seeded faults injected
    mid-run, detected by the health monitor, recovered via the
    degradation ladder; reports ENOB loss, runtime/energy overhead and
    recovery statistics per fault class, with JSON/CSV artifacts.
``perf``
    Pinned performance suite (DESIGN.md §13): micro benchmarks of the
    vectorized photonic and NoC kernels plus macro sweep/fault/serve
    benchmarks, written to a ``BENCH_<rev>.json`` artifact and compared
    against a committed baseline (strict output-digest equality,
    tolerant wall clock).
``serve``
    Long-lived serving daemon (DESIGN.md §17): seeded client
    populations offer concurrent MVM/communication streams, token
    buckets shed overload, batches drain into the fleet MVM queue,
    Algorithm 1 repartitions under the observed load, and the
    degradation ladder handles mid-session faults — with optional live
    ``/metrics`` / ``/healthz`` over HTTP and byte-identical same-seed
    session replay.
``metrics-server``
    Serve a telemetry directory (``sweep --telemetry-dir``) over HTTP:
    Prometheus text exposition on ``/metrics``, event/snapshot tails as
    NDJSON, a JSON health summary — stdlib only (DESIGN.md §15).
``top``
    Terminal dashboard over the same telemetry directory: top counter /
    gauge / histogram series, per-tenant totals, recent events.

Deliverable output (tables, telemetry, artifact paths) goes to stdout
via :func:`repro.analysis.report.emit`; diagnostics go to stderr through
:mod:`logging` (``--log-level`` adjusts verbosity).
"""

from __future__ import annotations

import argparse
import logging

from repro.analysis.report import emit

log = logging.getLogger("repro.cli")


def _check_names(registry, names, *extra: str) -> int:
    """Return 2 after logging the first of ``names`` not in ``registry``.

    ``extra`` names are accepted too (the faults CLI's ``none``
    control); 0 means every name is known.
    """
    known = [*extra, *registry.names()]
    for name in names:
        if name not in known:
            log.error("unknown %s %r; choose from %s",
                      registry.kind, name, known)
            return 2
    return 0


def _positive_int(text: str) -> int:
    """argparse ``type`` for a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _write_json(path: str, payload: object, what: str) -> None:
    """Write ``payload`` as canonical indented JSON to an ``--out`` path."""
    import json

    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    emit(f"wrote {what} to {path}")


def _write_telemetry(directory: str, events, snapshots, exposition: str,
                     merged: bool = False) -> None:
    """Write a ``--telemetry-dir`` and report what went into it."""
    from pathlib import Path

    from repro.obs.telemetry import write_telemetry_dir

    paths = write_telemetry_dir(directory, events, snapshots, exposition)
    counts = f"({len(events)} events, {len(snapshots)} snapshots)"
    if merged:
        emit(f"wrote merged telemetry {counts} to {Path(directory)}")
    else:
        emit(f"wrote telemetry {counts} to {directory}: "
             + ", ".join(p.name for p in paths.values()))


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.config import DEFAULT_SYSTEM
    from repro.multicore.area import flumen_mzim_mzis
    from repro.workloads import paper_workloads

    cfg = DEFAULT_SYSTEM
    emit(format_table(
        ["quantity", "value"],
        [["cores", cfg.core.count],
         ["chiplets", cfg.chiplets],
         ["MZIM ports", cfg.mzim_ports],
         ["MZIM MZIs", flumen_mzim_mzis(cfg.mzim_ports)],
         ["photonic link", f"{cfg.phot_link.bandwidth_bps / 1e9:.0f} Gbps"],
         ["compute wavelengths", cfg.compute.computation_wavelengths],
         ["scheduler (tau, eta, zeta)",
          f"({cfg.scheduler.tau_cycles}, {cfg.scheduler.eta}, "
          f"{cfg.scheduler.zeta})"]],
        title="Flumen reproduction — system configuration"))
    rows = [[wl.name, f"{wl.total_macs():,}",
             len(wl.phases()), f"{wl.extra_core_ops():,}"]
            for wl in paper_workloads()]
    emit()
    emit(format_table(["workload", "MACs", "phases", "core-side ops"],
                      rows, title="Workloads (paper shapes)"))
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.noc.simulation import SweepConfig, load_sweep

    cfg = SweepConfig(cycles=args.cycles, warmup=args.cycles // 3)
    loads = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    results = load_sweep(args.topology, args.pattern, loads, cfg)
    rows = [[r.load, f"{r.avg_latency:.1f}", f"{r.latency.p99:.1f}",
             "saturated" if r.saturated else ""] for r in results]
    emit(format_table(
        ["load", "avg latency", "p99", ""],
        rows, title=f"{args.topology} / {args.pattern}"))
    return 0


def _cmd_compute(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.photonics.compute_energy import MZIMComputeModel

    model = MZIMComputeModel()
    rows = []
    for n in (8, 16, 32, 64):
        for m in (1, 4, 8):
            phot = model.matmul_energy(n, m).total
            elec = model.electrical_matmul_energy(n, m)
            rows.append([f"{n}x{n}", m, f"{phot * 1e12:.1f}",
                         f"{elec * 1e12:.1f}", f"{elec / phot:.1f}x"])
    emit(format_table(
        ["MZIM", "vectors", "photonic (pJ)", "electrical (pJ)",
         "advantage"],
        rows, title="Compute energy (Figure 12b model)"))
    return 0


def _cmd_system(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.core.system import SystemModel
    from repro.workloads import paper_workloads

    workloads = {wl.name: wl for wl in paper_workloads()}
    if args.workload not in workloads:
        log.error("unknown workload %r; choose from %s",
                  args.workload, sorted(workloads))
        return 2
    runs = SystemModel().run_all(workloads[args.workload])
    rows = [[cfg, f"{r.runtime_s * 1e6:.1f}",
             f"{r.energy.total * 1e6:.1f}", f"{r.edp * 1e9:.3f}"]
            for cfg, r in runs.items()]
    emit(format_table(
        ["config", "runtime (us)", "energy (uJ)", "EDP (nJ*s)"],
        rows, title=f"System model: {args.workload}"))
    mesh, fa = runs["mesh"], runs["flumen_a"]
    emit(f"\nFlumen-A vs Mesh: {mesh.runtime_s / fa.runtime_s:.2f}x "
         f"speedup, {mesh.energy.total / fa.energy.total:.2f}x energy, "
         f"{mesh.edp / fa.edp:.2f}x EDP")
    return 0


def _cmd_area(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.multicore.area import AreaModel

    area = AreaModel()
    emit(format_table(
        ["component", "mm^2"],
        [["Flumen endpoint", f"{area.flumen_endpoint().total:.2f}"],
         ["8x8 MZIM + controller",
          f"{area.mzim_with_controller():.2f}"],
         ["Flumen system", f"{area.flumen_system().total:.1f}"],
         ["Mesh system", f"{area.mesh_system().total:.1f}"]],
        title="Area (Section 5.1)"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.engine import (
        PointSpec,
        ResultCache,
        SweepEngine,
    )
    from repro.analysis.report import format_table
    from repro.core.pipelines import CONFIGURATIONS
    from repro.photonics.registry import MESHES
    from repro.workloads import paper_workloads

    meshes = list(dict.fromkeys(args.mesh or []))
    if code := _check_names(MESHES, meshes):
        return code

    shapes = "small" if args.small else "paper"
    if args.task == "mesh_comparison":
        # Architecture grid: one point per registered (or selected)
        # mesh arrangement, all hit with the same seeded target and
        # fault doses (DESIGN.md §16).
        points = [PointSpec(key=f"mesh/{mesh}",
                            params={"architecture": mesh})
                  for mesh in (meshes or list(MESHES.names()))]
    else:
        known_workloads = [wl.name for wl in paper_workloads()]
        workloads = list(dict.fromkeys(args.workloads or known_workloads))
        configs = list(dict.fromkeys(args.configs
                                     or CONFIGURATIONS.names()))
        for name in workloads:
            if name not in known_workloads:
                log.error("unknown workload %r; choose from %s",
                          name, known_workloads)
                return 2
        if code := _check_names(CONFIGURATIONS, configs):
            return code
        points = []
        for wl in workloads:
            for cfg in configs:
                # No --mesh keeps the exact pre-registry keys/params, so
                # existing sweep caches and the CI byte-compares stay
                # valid.
                if not meshes:
                    points.append(PointSpec(
                        key=f"{wl}/{cfg}",
                        params={"workload": wl, "configuration": cfg,
                                "shapes": shapes}))
                    continue
                for mesh in meshes:
                    points.append(PointSpec(
                        key=f"{wl}/{cfg}/{mesh}",
                        params={"workload": wl, "configuration": cfg,
                                "shapes": shapes,
                                "mesh_architecture": mesh}))
    cache = None if args.no_cache else ResultCache(args.cache_dir)

    if args.progress and log.getEffectiveLevel() > logging.INFO:
        log.setLevel(logging.INFO)

    def progress(done: int, total: int, result) -> None:
        origin = "cache" if result.from_cache else (
            "ok" if result.ok else "FAILED")
        log.info("[%d/%d] %s: %s", done, total, result.key, origin)

    from repro.obs import NULL_OBS, Obs

    obs = Obs.telemetry() if args.telemetry_dir else NULL_OBS
    engine = SweepEngine(jobs=args.jobs, cache=cache,
                         progress=progress if args.progress else None,
                         obs=obs)
    run = engine.run(args.task, points, base_seed=args.seed)

    if args.task == "mesh_comparison":
        rows = [[r.metrics["architecture"],
                 f"{r.metrics['measured_columns']:.0f}",
                 f"{r.metrics['device_count']:.0f}",
                 f"{r.metrics['passes']:.0f}",
                 f"{r.metrics['drift_error']:.3f}",
                 f"{r.metrics['recalibrated_error']:.2e}",
                 f"{r.metrics['stuck_error']:.3f}",
                 f"{r.metrics['energy_per_mac_j'] * 1e12:.3f}"]
                for r in run.ok_results()]
        emit(format_table(
            ["architecture", "depth", "devices", "passes", "drift err",
             "recal err", "stuck err", "pJ/MAC"],
            rows, title=f"Mesh architecture comparison "
                        f"(jobs={args.jobs}, seed={args.seed})"))
    else:
        rows = [[r.metrics["workload"], r.metrics["configuration"],
                 f"{r.metrics['runtime_s'] * 1e6:.1f}",
                 f"{r.metrics['energy_total_j'] * 1e6:.1f}",
                 f"{r.metrics['edp_js'] * 1e9:.3f}"]
                for r in run.ok_results()]
        emit(format_table(
            ["workload", "config", "runtime (us)", "energy (uJ)",
             "EDP (nJ*s)"],
            rows,
            title=f"System sweep ({shapes} shapes, jobs={args.jobs})"))
    for failure in run.failed_results():
        log.error("FAILED %s: %s", failure.key, failure.error)
    emit(f"telemetry: {run.telemetry.summary()}")

    if args.out:
        _write_json(args.out, run.records(), f"{len(run.results)} records")
    if args.telemetry_dir:
        from repro.obs.telemetry import prometheus_exposition

        _write_telemetry(args.telemetry_dir, obs.events.events,
                         obs.sampler.series,
                         prometheus_exposition(obs.metrics.to_dict()))
    return 1 if run.failed_results() else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: one daemon, or ``--replicas R`` as a cluster."""
    from repro.obs.telemetry import prometheus_exposition
    from repro.serve.cluster import ClusterTelemetryStore, ReplicaSet
    from repro.serve.daemon import ServeConfig, ServeDaemon
    from repro.serve.live import LiveTelemetryStore

    try:
        config = ServeConfig(
            duration=args.duration, seed=args.seed, arrival=args.arrival,
            rate=args.rate, tenants=args.tenants,
            mvm_fraction=args.mvm_fraction, nodes=args.nodes,
            ports=args.ports, batch_size=args.batch_size,
            batch_window=args.batch_window,
            admission_rate=args.admission_rate,
            admission_burst=args.admission_burst, fault=args.fault,
            fault_magnitude=args.fault_magnitude,
            max_events=args.max_events)
        cluster = (ReplicaSet(config, args.replicas)
                   if args.replicas > 1 else None)
        daemon = ServeDaemon(config) if cluster is None else None
    except ValueError as exc:
        log.error("%s", exc)
        return 2

    if cluster is None:
        store = LiveTelemetryStore(
            daemon.obs, daemon=daemon,
            describe=f"serve session seed={config.seed}")
        report = _serve_http(
            args, store, "live telemetry",
            f"session over; serving /metrics for {args.linger:g}s more "
            "(Ctrl-C stops)", body=daemon.run)
        events = list(daemon.obs.events.events)
        snapshots = list(daemon.obs.sampler.series)
        exposition = prometheus_exposition(daemon.obs.metrics.to_dict())
    else:
        report = cluster.run(jobs=args.jobs)
        store = ClusterTelemetryStore(
            cluster, describe=f"serve cluster seed={config.seed} "
                              f"replicas={args.replicas}")
        events, snapshots = cluster.merged_events, cluster.merged_snapshots
        exposition = store.exposition()

    _emit_serve_report(args, report)
    if cluster is not None:
        _serve_http(args, store, "merged telemetry",
                    f"serving the merged view for {args.linger:g}s "
                    "(Ctrl-C stops)")
    if args.out:
        _write_json(args.out, report, "session report" if cluster is None
                    else "cluster report")
    if args.telemetry_dir:
        _write_telemetry(args.telemetry_dir, events, snapshots, exposition,
                         merged=cluster is not None)
    if args.check:
        return _serve_check(args, report, events, exposition, cluster)
    return 0


def _serve_http(args: argparse.Namespace, store, what: str,
                linger_note: str, body=lambda: None):
    """Run ``body`` while ``store`` is served on ``--http-port``.

    ``--linger`` keeps the endpoint up after ``body`` returns (Ctrl-C
    stops).  Without ``--http-port`` only ``body`` runs; either way its
    result is returned.
    """
    if args.http_port is None:
        return body()
    import time

    from repro.obs.server import TelemetryServer

    server = TelemetryServer(store, host=args.host, port=args.http_port)
    server.start()
    emit(f"{what} on http://{args.host}:{server.port}"
         f"/metrics (also /healthz /events /snapshots)")
    try:
        result = body()
        if args.linger > 0:
            emit(linger_note)
            try:
                time.sleep(args.linger)
            except KeyboardInterrupt:
                pass
    finally:
        server.shutdown()
    return result


def _emit_serve_report(args: argparse.Namespace, report: dict) -> None:
    """Print a serve report's tables and its one-line ledger.

    A cluster (``--replicas`` > 1) leads with the replica table and
    names its merged telemetry; a single session adds the latency
    table and its final rung.
    """
    from repro.analysis.report import format_table

    cluster = args.replicas > 1
    if cluster:
        emit(format_table(
            ["replica", "tenants", "cycles", "completed", "goodput",
             "rung"],
            [[i, ",".join(r["tenants"]), r["cycles"], r["completed"],
              f"{r['goodput_per_kcycle']:.1f}", r["final_rung"]]
             for i, r in enumerate(report["per_replica"])],
            title=f"serve cluster: seed={args.seed} "
                  f"replicas={args.replicas} jobs={args.jobs} "
                  f"rate={args.rate:g} ({report['cycles']} cycles)"))
        emit()
        title = "per-tenant ledger"
        tail = (f"{report['events']} merged events, "
                f"{report['snapshots']} merged snapshots")
    else:
        title = (f"serve session: seed={args.seed} "
                 f"arrival={args.arrival} rate={args.rate:g} "
                 f"({report['cycles']} cycles)")
        tail = (f"final rung {report['final_rung']} "
                f"(electrical={report['electrical_completions']})")
    emit(format_table(
        ["tenant", "offered", "admitted", "rejected", "completed"],
        [[tenant, t["offered"], t["admitted"], t["rejected"],
          t["completed"]]
         for tenant, t in sorted(report["per_tenant"].items())],
        title=title))
    emit()
    if not cluster:
        rows = []
        for kind in ("mvm", "comm"):
            p = report["latency"][kind]
            rows.append([kind, p["count"],
                         *("-" if p[q] is None else f"{p[q]:.0f}"
                           for q in ("p50", "p95", "p99"))])
        emit(format_table(
            ["kind", "served", "p50 (cyc)", "p95 (cyc)", "p99 (cyc)"],
            rows, title="request latency"))
        emit()
    ledger = report["ledger"]
    emit(f"ledger: offered={ledger['offered']} "
         f"admitted={ledger['admitted']} "
         f"rejected={ledger['rejected']} "
         f"completed={ledger['completed']} "
         f"in_flight={ledger['in_flight']} | "
         f"goodput={report['goodput_per_kcycle']:.1f} req/kcycle | "
         f"{tail}")


def _serve_check(args: argparse.Namespace, report: dict, events: list,
                 exposition: str, cluster) -> int:
    """The ``serve --check`` validator, single daemon and cluster alike.

    The shared telemetry check
    (:func:`repro.obs.telemetry.validate_telemetry`) plus ledger
    conservation and the drain.  A cluster run on a pool (``--jobs > 1``)
    is also byte-compared against a sequential oracle re-run.  Logs each
    problem; returns the exit code.
    """
    import json

    from repro.obs.telemetry import validate_telemetry
    from repro.serve.cluster import ReplicaSet

    problems: list[str] = []
    pooled = cluster is not None and args.jobs > 1
    if pooled:
        oracle = ReplicaSet(cluster.config, cluster.replicas)
        oracle.run(jobs=1)
        if oracle.per_tenant_streams() != cluster.per_tenant_streams():
            problems.append(
                "per-tenant event streams differ between the "
                "process pool and the sequential oracle")
        if json.dumps(oracle.report(), sort_keys=True) \
                != json.dumps(report, sort_keys=True):
            problems.append(
                "cluster report differs between the process pool "
                "and the sequential oracle")
    problems += validate_telemetry(events, exposition)
    ledger = report["ledger"]
    if not report["conserved"]:
        problems.append(f"ledger not conserved: {ledger}")
    if not report["drained"]:
        problems.append(
            f"drain incomplete: in_flight={ledger['in_flight']} after "
            f"{report['config']['drain_limit']} extra cycles")
    label = "serve" if cluster is None else "serve cluster"
    for problem in problems:
        log.error("%s: %s", label, problem)
    if problems:
        return 1
    merged = "" if cluster is None else "merged "
    emit(f"{label} check: ok ({report['events']} {merged}events, "
         f"{report['snapshots']} {merged}snapshots, ledger conserved, "
         "drained" + (", pool == sequential oracle)" if pooled else ")"))
    return 0


def _cmd_metrics_server(args: argparse.Namespace) -> int:
    from repro.obs.server import TelemetryServer
    from repro.obs.telemetry import (
        EVENTS_FILE,
        TelemetryStore,
        validate_telemetry,
    )

    store = TelemetryStore(args.dir)
    if args.check:
        problems = validate_telemetry(store.root / EVENTS_FILE,
                                      store.exposition())
        for problem in problems:
            log.error("telemetry: %s", problem)
        if problems:
            return 1
        health = store.health()
        emit(f"telemetry check: ok ({health['events']} events, "
             f"{health['snapshots']} snapshots)")
        return 0
    if args.once:
        emit(store.exposition(), end="")
        return 0
    with TelemetryServer(store, host=args.host,
                         port=args.port) as server:
        emit(f"serving telemetry from {store.root} on "
             f"http://{args.host}:{server.port}/metrics "
             f"(also /healthz /events /snapshots; Ctrl-C stops)")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.obs.telemetry import TelemetryStore, render_top

    store = TelemetryStore(args.dir)
    frames = args.frames if args.follow else 1
    rendered = 0
    while frames is None or rendered < frames:
        frame = render_top(store, top_n=args.top,
                           events_tail=args.events)
        if args.follow:
            # ANSI clear + home, so the dashboard repaints in place.
            emit("\x1b[2J\x1b[H", end="")
        emit(frame)
        rendered += 1
        if frames is not None and rendered >= frames:
            break
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            break
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.report import format_table
    from repro.analysis.trace import trace_workload
    from repro.obs.export import (
        validate_chrome_trace,
        write_chrome_trace,
        write_metrics_jsonl,
    )

    if args.mesh is not None:
        from repro.photonics.registry import MESHES
        if code := _check_names(MESHES, [args.mesh]):
            return code

    shapes = "small" if args.small else "paper"
    log.info("tracing %s under %s (%s shapes)",
             args.workload, args.config, shapes)
    trace = trace_workload(args.workload, configuration=args.config,
                           shapes=shapes, mesh_architecture=args.mesh)

    coverage = trace.layer_coverage()
    emit(format_table(
        ["layer", "events"],
        [[layer, count] for layer, count in coverage.items()],
        title=f"Trace: {args.workload}/{args.config} ({shapes} shapes)"))

    out = Path(args.out)
    write_chrome_trace(out, trace.obs.tracer,
                       other_data=trace.other_data())
    metrics_out = (Path(args.metrics_out) if args.metrics_out
                   else out.with_suffix(".metrics.jsonl"))
    write_metrics_jsonl(metrics_out, [trace.metrics_snapshot()])
    emit(f"wrote trace: {out} ({len(trace.obs.tracer.events)} events)")
    emit(f"wrote metrics: {metrics_out}")

    missing = trace.missing_layers()
    if missing:
        log.warning("layers with no events: %s", ", ".join(missing))
    if args.check:
        problems = validate_chrome_trace(trace.payload())
        for problem in problems:
            log.error("schema: %s", problem)
        if problems or missing:
            return 1
        emit("schema check: ok")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.analysis.engine import PointSpec, ResultCache, SweepEngine
    from repro.analysis.export import to_csv
    from repro.analysis.report import format_table
    from repro.faults.campaign import (
        NO_FAULT,
        campaign_fault_kinds,
        csv_records,
    )
    from repro.faults.models import FAULTS
    from repro.photonics.registry import MESHES

    faults = list(dict.fromkeys(args.fault or campaign_fault_kinds()))
    if code := (_check_names(FAULTS, faults, NO_FAULT)
                or _check_names(MESHES, [args.mesh])):
        return code

    points = []
    for kind in faults:
        # The zero-fault control ignores magnitude; run it once.
        magnitudes = [1.0] if kind == "none" else \
            list(dict.fromkeys(args.magnitudes))
        for magnitude in magnitudes:
            params = {"fault": kind, "magnitude": float(magnitude),
                      "runs": args.runs, "cycles": args.cycles,
                      "golden_reference": not args.no_golden,
                      "mesh_architecture": args.mesh}
            key = f"{kind}/m{magnitude:g}"
            if args.mesh != "clements":
                key += f"/{args.mesh}"
            points.append(PointSpec(key=key, params=params))
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    engine = SweepEngine(jobs=args.jobs, cache=cache)
    run = engine.run("fault_point", points, base_seed=args.seed)

    rows = []
    for result in run.ok_results():
        spec, agg = result.metrics["spec"], result.metrics["aggregate"]
        rungs = ",".join(f"{k}:{v}" for k, v in
                         sorted(agg["final_rungs"].items()))
        detect = agg["mean_detection_latency"]
        rows.append([
            spec["fault"], f"{spec['magnitude']:g}",
            f"{agg['recovery_rate'] * 100:.0f}%",
            "-" if detect is None else f"{detect:.0f}",
            f"{agg['mean_enob_loss_bits']:.2f}",
            f"{agg['mean_runtime_overhead_fraction'] * 100:.1f}%",
            f"{agg['mean_energy_overhead_j'] * 1e9:.2f}",
            rungs])
    emit(format_table(
        ["fault", "mag", "recovered", "detect (cyc)", "ENOB loss",
         "runtime ovh", "energy (nJ)", "final rungs"],
        rows, title=f"Fault campaigns (runs={args.runs}, "
                    f"cycles={args.cycles}, seed={args.seed})"))
    for failure in run.failed_results():
        log.error("FAILED %s: %s", failure.key, failure.error)
    golden = [r for r in run.ok_results()
              if "golden_reference" in r.metrics]
    if golden:
        emit("zero-fault control carries the golden-numbers "
             "cross-check (see 'golden_reference' in the artifact)")
    emit(f"telemetry: {run.telemetry.summary()}")

    if args.out:
        _write_json(args.out, run.records(),
                    f"{len(run.results)} campaign records")
    if args.csv:
        campaigns = [r.metrics for r in run.ok_results()]
        with open(args.csv, "w") as handle:
            handle.write(to_csv(csv_records(campaigns)))
        emit(f"wrote per-run CSV to {args.csv}")
    return 1 if run.failed_results() else 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.analysis import perf
    from repro.analysis.report import format_table

    if args.tolerance <= 0:
        log.error("--tolerance must be > 0, got %g", args.tolerance)
        return 2
    only = args.only
    if args.mesh is not None:
        from repro.photonics.registry import MESHES
        if code := _check_names(MESHES, [args.mesh]):
            return code
        if only is None:
            only = f"mesh_depth/{args.mesh}"

    def progress(name: str) -> None:
        log.info("running %s", name)

    payload = perf.run_suite(small=args.small, only=only,
                             progress=progress)
    if not payload["benchmarks"]:
        log.error("no benchmarks matched --only %r", only)
        return 2

    rows = []
    for name, record in payload["benchmarks"].items():
        per_call = record.get("per_call_s")
        rows.append([
            name, f"{record['wall_s']:.3f}",
            "-" if per_call is None else f"{per_call * 1e3:.3f}",
            (record.get("digest") or "")[:12]])
    emit(format_table(
        ["benchmark", "wall (s)", "per call (ms)", "digest"],
        rows, title=f"Perf suite ({payload['suite']}, "
                    f"rev {payload['rev']})"))

    out = args.out or perf.default_artifact_path()
    perf.write_artifact(payload, out)
    emit(f"wrote {out}")
    code = _perf_compare(args, payload)
    # Gates are checked after the artifact is written and compared, so
    # one tripped gate does not cost the run's other checks.
    gates = perf.gate_failures(payload)
    for failure in gates:
        log.error("gate failed: %s", failure)
    return max(code, 1) if gates else code


def _perf_compare(args: argparse.Namespace, payload: dict) -> int:
    """Compare a written ``repro perf`` payload with ``--baseline``."""
    import json
    from pathlib import Path

    from repro.analysis import perf
    from repro.analysis.report import format_table

    def write_summary(delta_rows=None, baseline_rev=None) -> None:
        if not args.summary_md:
            return
        markdown = perf.markdown_summary(
            payload, delta_rows, baseline_rev=baseline_rev,
            tolerance=None if delta_rows is None else args.tolerance)
        # Append, not overwrite: $GITHUB_STEP_SUMMARY accumulates
        # sections from every step of a job.
        with open(args.summary_md, "a") as handle:
            handle.write(markdown)
        emit(f"appended markdown summary to {args.summary_md}")

    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        if args.check:
            log.error("baseline %s not found; cannot --check", baseline_path)
            return 2
        emit(f"no baseline at {baseline_path}; skipping comparison")
        write_summary()
        return 0
    baseline = json.loads(baseline_path.read_text())
    delta_rows, failures = perf.compare_to_baseline(
        payload, baseline, tolerance=args.tolerance)
    emit()
    emit(format_table(
        ["benchmark", "current (s)", "baseline (s)", "ratio", "status"],
        delta_rows,
        title=f"vs {baseline_path} (rev {baseline.get('rev', '?')}, "
              f"tolerance {args.tolerance:g}x)"))
    write_summary(delta_rows, baseline.get("rev", "?"))
    for failure in failures:
        log.error("%s", failure)
    # A supplied baseline is a contract: digest mismatches and blown
    # timing budgets fail the run whether or not --check was passed
    # (--check additionally hard-fails when the baseline is missing).
    if failures:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser, every subcommand included.

    Flags shared across subcommands are declared once, on argparse
    parents: ``--jobs`` (sweep, serve, faults) and ``--no-cache`` /
    ``--cache-dir`` (sweep, faults).
    """
    # Registry names feed ``choices``; reading them at parser-build
    # time keeps the CLI plugin-aware.
    from repro.core.pipelines import CONFIGURATIONS
    from repro.faults.models import FAULTS
    from repro.serve.arrivals import ARRIVALS

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Flumen (ISCA 2023) reproduction toolkit")
    parser.add_argument(
        "--log-level", default="warning",
        choices=["debug", "info", "warning", "error"],
        help="diagnostic verbosity on stderr (default: warning)")
    sub = parser.add_subparsers(dest="command", required=True)

    def jobs_parent(help_text: str = "worker processes (default: 1)",
                    metavar: str | None = None) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument("--jobs", type=_positive_int, default=1,
                            metavar=metavar, help=help_text)
        return parent

    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk result cache")
    cache.add_argument("--cache-dir", default=None,
                       help="cache directory (default: $FLUMEN_CACHE_DIR "
                            "or .flumen_cache)")
    engine = [jobs_parent(), cache]

    sub.add_parser("info", help="configuration + workload inventory")

    lat = sub.add_parser("latency", help="latency vs load (Figure 11)")
    lat.add_argument("--topology", default="flumen",
                     choices=["ring", "mesh", "optbus", "flumen"])
    lat.add_argument("--pattern", default="uniform")
    lat.add_argument("--cycles", type=int, default=2000)

    sub.add_parser("compute", help="compute energy table (Figure 12b)")

    system = sub.add_parser("system",
                            help="full-system run (Figures 13-15)")
    system.add_argument("--workload", default="rotation3d")

    sub.add_parser("area", help="area report (Section 5.1)")

    swp = sub.add_parser(
        "sweep", parents=engine,
        help="parallel workload x configuration sweep "
             "(Figures 13-15 grid)")
    swp.add_argument("--workloads", nargs="+", metavar="NAME",
                     help="workload subset (default: all five)")
    swp.add_argument("--configs", nargs="+", metavar="CFG",
                     help="configuration subset (default: all five)")
    swp.add_argument("--task", default="system_point",
                     choices=["system_point", "mesh_comparison"],
                     help="sweep task: the workload x configuration "
                          "system grid, or the per-mesh-architecture "
                          "accuracy/depth/energy comparison (default: "
                          "system_point)")
    swp.add_argument("--mesh", nargs="+", metavar="ARCH",
                     help="mesh architecture subset (registry names; "
                          "default: the Clements default for "
                          "system_point, every registered arrangement "
                          "for mesh_comparison)")
    swp.add_argument("--small", action="store_true",
                     help="reduced workload shapes (fast smoke runs)")
    swp.add_argument("--seed", type=int, default=17,
                     help="base seed for deterministic per-point seeding")
    swp.add_argument("--out", default=None, metavar="PATH",
                     help="write the metric records as JSON")
    swp.add_argument("--progress", action="store_true",
                     help="log per-point progress to stderr")
    swp.add_argument("--telemetry-dir", default=None, metavar="DIR",
                     help="run with the streaming telemetry bundle and "
                          "write events.jsonl / snapshots.jsonl / "
                          "metrics.prom to DIR (serve with "
                          "'metrics-server --dir DIR')")

    svd = sub.add_parser(
        "serve", parents=[jobs_parent(
            "run replicas across a J-worker process pool (default: 1, "
            "sequential; results are byte-identical either way)", "J")],
        help="long-lived serving daemon under live traffic "
             "(DESIGN.md §17)")
    svd.add_argument("--duration", type=int, default=4096,
                     help="cycles of the serving phase (default: 4096); "
                          "draining afterwards runs until every "
                          "admitted request completes")
    svd.add_argument("--seed", type=int, default=0,
                     help="session seed; same seed -> byte-identical "
                          "events, snapshots, exposition, and report")
    svd.add_argument("--arrival", default="poisson",
                     choices=ARRIVALS.names(),
                     help="arrival process shaping offered load "
                          "(default: poisson)")
    svd.add_argument("--rate", type=float, default=0.05,
                     help="mean offered requests per tenant per cycle "
                          "at intensity 1.0 (default: 0.05)")
    svd.add_argument("--tenants", type=int, default=3,
                     help="independent client populations (default: 3)")
    svd.add_argument("--mvm-fraction", type=float, default=0.5,
                     help="fraction of requests that are MVM offloads; "
                          "the rest are interposer packets "
                          "(default: 0.5)")
    svd.add_argument("--nodes", type=int, default=16,
                     help="interposer nodes (default: 16)")
    svd.add_argument("--ports", type=int, default=8,
                     help="photonic fabric ports (default: 8)")
    svd.add_argument("--batch-size", type=int, default=8,
                     help="close a tenant batch at this many requests "
                          "(default: 8)")
    svd.add_argument("--batch-window", type=int, default=64,
                     help="or when its oldest request has waited this "
                          "many cycles (default: 64)")
    svd.add_argument("--admission-rate", type=float, default=0.12,
                     help="token-bucket refill per tenant, requests "
                          "per cycle (default: 0.12)")
    svd.add_argument("--admission-burst", type=float, default=24.0,
                     help="token-bucket depth in requests "
                          "(default: 24)")
    svd.add_argument("--fault", default=None, choices=FAULTS.names(),
                     help="inject one seeded fault mid-session "
                          "(default: fault-free)")
    svd.add_argument("--fault-magnitude", type=float, default=1.0,
                     help="fault severity multiplier (default: 1.0)")
    svd.add_argument("--max-events", type=int, default=None,
                     metavar="N",
                     help="bound the in-memory event log (default: "
                          "unbounded)")
    svd.add_argument("--replicas", type=_positive_int, default=1,
                     metavar="R",
                     help="shard tenants across R independent fabric "
                          "replicas (default: 1, the single daemon); "
                          "per-tenant streams are byte-identical to "
                          "the unsharded session's")
    svd.add_argument("--out", default=None, metavar="PATH",
                     help="write the session report as canonical JSON")
    svd.add_argument("--telemetry-dir", default=None, metavar="DIR",
                     help="write events.jsonl / snapshots.jsonl / "
                          "metrics.prom to DIR after the session")
    svd.add_argument("--check", action="store_true",
                     help="validate the event log, exposition, ledger "
                          "conservation, and drain; nonzero exit on "
                          "problems")
    svd.add_argument("--http-port", type=int, default=None,
                     metavar="PORT",
                     help="serve live /metrics //healthz while the "
                          "session runs (0 picks a free port; default: "
                          "no HTTP)")
    svd.add_argument("--host", default="127.0.0.1",
                     help="bind address for --http-port (default: "
                          "127.0.0.1)")
    svd.add_argument("--linger", type=float, default=0.0,
                     metavar="SECONDS",
                     help="keep the HTTP endpoint up this long after "
                          "the session ends (default: 0)")

    srv = sub.add_parser(
        "metrics-server",
        help="serve a telemetry directory over HTTP: /metrics "
             "(Prometheus text format), /healthz, /events, /snapshots "
             "(DESIGN.md §15)")
    srv.add_argument("--dir", default="telemetry", metavar="DIR",
                     help="telemetry directory to serve (default: "
                          "telemetry)")
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default: 127.0.0.1)")
    srv.add_argument("--port", type=int, default=9109,
                     help="bind port; 0 picks a free one (default: 9109)")
    srv.add_argument("--check", action="store_true",
                     help="validate the event log and exposition, then "
                          "exit (nonzero on problems)")
    srv.add_argument("--once", action="store_true",
                     help="print the exposition to stdout and exit "
                          "(no server)")

    top = sub.add_parser(
        "top", help="terminal dashboard over a telemetry directory")
    top.add_argument("--dir", default="telemetry", metavar="DIR",
                     help="telemetry directory to read (default: "
                          "telemetry)")
    top.add_argument("--follow", action="store_true",
                     help="repaint continuously instead of one frame")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between repaints with --follow "
                          "(default: 2.0)")
    top.add_argument("--frames", type=int, default=None, metavar="N",
                     help="stop after N repaints with --follow "
                          "(default: run until Ctrl-C)")
    top.add_argument("--top", type=int, default=10, metavar="N",
                     help="series shown per section (default: 10)")
    top.add_argument("--events", type=int, default=8, metavar="N",
                     help="recent events shown (default: 8)")

    trc = sub.add_parser(
        "trace", help="instrumented run -> Chrome trace JSON "
                      "(Perfetto-loadable) + metrics JSONL")
    trc.add_argument("workload", nargs="?", default="rotation3d",
                     help="workload name (default: rotation3d)")
    trc.add_argument("--config", default="flumen_a",
                     choices=CONFIGURATIONS.names(),
                     help="configuration to trace (default: flumen_a, "
                          "the only one exercising all five layers)")
    trc.add_argument("--small", action="store_true",
                     help="reduced workload shapes (fast smoke runs)")
    trc.add_argument("--out", default="trace.json", metavar="PATH",
                     help="trace output path (default: trace.json)")
    trc.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="metrics JSONL path (default: derived from "
                          "--out)")
    trc.add_argument("--check", action="store_true",
                     help="schema-check the emitted trace; nonzero exit "
                          "on problems or missing layers")
    trc.add_argument("--mesh", default=None, metavar="ARCH",
                     help="mesh architecture for the fabric mirror "
                          "(registry name; default: clements)")

    flt = sub.add_parser(
        "faults", parents=engine,
        help="fault-injection campaigns with graceful degradation "
             "(DESIGN.md §12)")
    flt.add_argument("--fault", nargs="+", metavar="KIND",
                     help="fault kinds to campaign (default: every "
                          "registered kind plus the 'none' control)")
    flt.add_argument("--magnitudes", nargs="+", type=float, default=[1.0],
                     metavar="M", help="fault severity multipliers "
                                       "(default: 1.0)")
    flt.add_argument("--runs", type=int, default=3,
                     help="seeded runs per (fault, magnitude) point "
                          "(default: 3)")
    flt.add_argument("--cycles", type=int, default=1200,
                     help="simulated cycles per run (default: 1200)")
    flt.add_argument("--seed", type=int, default=0,
                     help="base seed; same seed -> byte-identical "
                          "artifacts")
    flt.add_argument("--no-golden", action="store_true",
                     help="skip the golden-numbers cross-check on the "
                          "zero-fault control")
    flt.add_argument("--out", default=None, metavar="PATH",
                     help="write campaign records as JSON")
    flt.add_argument("--csv", default=None, metavar="PATH",
                     help="write flattened per-run rows as CSV")
    flt.add_argument("--mesh", default="clements", metavar="ARCH",
                     help="mesh architecture the compute partition "
                          "under test is decomposed with (default: "
                          "clements)")

    prf = sub.add_parser(
        "perf", help="pinned performance suite -> BENCH_<rev>.json, "
                     "with baseline comparison (DESIGN.md §13)")
    prf.add_argument("--small", action="store_true",
                     help="CI subset (a strict subset of the full "
                          "suite; a full-suite baseline covers it)")
    prf.add_argument("--only", default=None, metavar="PREFIX",
                     help="run only benchmarks whose name starts with "
                          "PREFIX")
    prf.add_argument("--out", default=None, metavar="PATH",
                     help="artifact path (default: BENCH_<rev>.json)")
    prf.add_argument("--baseline", default="BENCH_baseline.json",
                     metavar="PATH",
                     help="baseline to compare against (default: "
                          "BENCH_baseline.json; skipped if missing "
                          "unless --check)")
    prf.add_argument("--check", action="store_true",
                     help="require the baseline to exist (digest "
                          "mismatches and blown timing budgets always "
                          "exit nonzero when a baseline is compared)")
    prf.add_argument("--tolerance", type=float, default=2.0,
                     help="allowed wall-clock ratio vs baseline "
                          "(default: 2.0; digests are always strict)")
    prf.add_argument("--summary-md", default=None, metavar="PATH",
                     help="append a markdown report (suite table + "
                          "baseline trend) to PATH — in CI, pass "
                          "\"$GITHUB_STEP_SUMMARY\"")
    prf.add_argument("--mesh", default=None, metavar="ARCH",
                     help="run only the mesh_depth benchmark of one "
                          "architecture (shorthand for --only "
                          "mesh_depth/ARCH)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s")
    handler = {
        "info": _cmd_info,
        "latency": _cmd_latency,
        "compute": _cmd_compute,
        "system": _cmd_system,
        "area": _cmd_area,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
        "trace": _cmd_trace,
        "faults": _cmd_faults,
        "perf": _cmd_perf,
        "metrics-server": _cmd_metrics_server,
        "top": _cmd_top,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
