"""Per-layer host-time attribution for the traced benchmark run.

The program is not modified: :func:`install` wraps public entry points
of each layer (plus the two private seams named below) from the outside,
and every wrapper records one span.  A span's *self time* is its
duration minus the time its child spans cover, so the self times of all
spans plus the time no span covers (``unattributed_s``) add up to the
measured run.

Per-element calls (``Cache.access``, ``Counter.inc``) are far too hot to
wrap; their work is counted from the layer's own statistics and their
time lands in the enclosing span.  Two seams are wrapped although they
are private, because no public function bounds the work:
``SystemModel._cache_counts`` (the L3-direct walk of Flumen-A runs
inline there) and ``SnapshotSampler._sample`` (the one place a snapshot
is taken).  ``Workload.address_streams`` is replaced by a version that
materialises each address stream inside the ``workloads`` span, so
generating addresses and simulating caches are timed apart; the
addresses, and so every simulated output, are unchanged.
"""

from __future__ import annotations

import array
import functools
import sys
import time
from collections import defaultdict

#: The benchmark's layers: the program's packages, in stack order.
LAYERS = ("engine", "workloads", "multicore", "noc", "core", "photonics",
          "faults", "serve", "obs")


class SpanTracer:
    """Self time and call counts per ``(layer, name)`` span."""

    def __init__(self) -> None:
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        #: Work counted from the layers' own statistics.
        self.counts: dict[str, float] = defaultdict(float)
        #: Instances whose statistics are read after the run.
        self.kept: dict[str, list] = defaultdict(list)
        # Child time of each open span; the bottom entry is the root.
        self._stack = [0.0]

    def wrap(self, fn, layer: str, name: str, after=None):
        """``fn`` timed as one span; ``after(tracer, result, args)``
        runs outside the span to collect counts."""
        key = (layer, name)
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[key] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[key] += 1
            if after is not None:
                after(self, result, args)
            return result

        return spanned

    def method(self, cls, attr: str, layer: str, name: str,
               after=None) -> None:
        setattr(cls, attr,
                self.wrap(cls.__dict__[attr], layer, name, after))

    def function(self, module, attr: str, layer: str, name: str) -> None:
        """Wrap a module function everywhere it was imported by name."""
        original = getattr(module, attr)
        spanned = self.wrap(original, layer, name)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, attr, None) is original):
                setattr(mod, attr, spanned)

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` spent outside the program out of the open
        span's self time, as if a child span had covered them."""
        self._stack[-1] += seconds

    def total(self, layer: str, *names: str) -> float:
        return sum((s for (lay, name), s in self.self_s.items()
                    if lay == layer and (not names or name in names)), 0.0)

    def count_calls(self, layer: str, name: str) -> int:
        return self.calls.get((layer, name), 0)


# ----------------------------------------------------------------------
# count collectors (run after the span closes)
# ----------------------------------------------------------------------

def _keep(group: str):
    def keep(tracer: SpanTracer, result, args) -> None:
        tracer.kept[group].append(args[0])
    return keep


def _count_accesses(tracer: SpanTracer, result, args) -> None:
    _counts, hierarchy = result
    tracer.counts["multicore.accesses"] += sum(
        level.stats.accesses
        for level in (hierarchy.l1, hierarchy.l2, hierarchy.l3))


def _count_skipped(tracer: SpanTracer, result, args) -> None:
    tracer.counts["noc.cycles_skipped"] += args[1]


def _count_mvms(tracer: SpanTracer, result, args) -> None:
    tracer.counts["core.mvms"] += len(result)


def _materialized_streams(tracer: SpanTracer, original):
    build = tracer.wrap(
        lambda workload: [(phase, array.array("q", stream))
                          for phase, stream in original(workload)],
        "workloads", "stream")

    @functools.wraps(original)
    def address_streams(self):
        yield from build(self)

    return address_streams


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# ----------------------------------------------------------------------
# instrumentation
# ----------------------------------------------------------------------

def install(tracer: SpanTracer) -> None:
    """Wrap every layer's entry points with ``tracer`` spans."""
    import repro.analysis.engine as engine
    import repro.analysis.tasks  # noqa: F401  (binds the task names)
    import repro.core.control_unit as control_unit
    import repro.core.scheduler as scheduler
    import repro.core.system as system
    import repro.faults.campaign as campaign
    import repro.faults.injector as injector
    import repro.faults.recovery as recovery
    import repro.multicore.cache as cache
    import repro.noc.flumen_net as flumen_net
    import repro.noc.kernel as kernel
    import repro.noc.network as network
    import repro.noc.optbus as optbus
    import repro.noc.simulation as simulation
    import repro.noc.soa as soa
    import repro.noc.traffic as traffic
    import repro.obs.events as events
    import repro.obs.merge as merge
    import repro.obs.snapshot as snapshot
    import repro.photonics.batch as batch
    import repro.photonics.calibration as calibration
    import repro.photonics.clements as clements
    import repro.photonics.registry as mesh_registry
    import repro.photonics.svd as svd
    import repro.serve.admission as admission
    import repro.serve.arrivals as arrivals
    import repro.serve.cluster as cluster
    import repro.serve.daemon as daemon
    import repro.workloads as workloads
    import repro.workloads.base as workload_base

    method, function = tracer.method, tracer.function

    method(engine.SweepEngine, "run", "engine", "run")

    function(workloads, "make_workload", "workloads", "build")
    for cls in _subclasses(workload_base.Workload):
        if "phases" in cls.__dict__:
            method(cls, "phases", "workloads", "phases")
    workload_base.Workload.address_streams = _materialized_streams(
        tracer, workload_base.Workload.address_streams)

    method(system.SystemModel, "_cache_counts", "multicore", "cache",
           after=_count_accesses)
    method(cache.CacheHierarchy, "access_stream", "multicore", "cache")

    method(kernel.SimKernel, "run", "noc", "run")
    method(kernel.SimKernel, "offer_packet", "noc", "offer")
    for cls in (soa.SoANetwork, soa.SoAFlumenNetwork, soa.SoAOptBusNetwork,
                network.Network, flumen_net.FlumenNetwork,
                optbus.OptBusNetwork):
        method(cls, "step", "noc", "step")
    for cls, attr in ((soa.SoANetwork, "_skip_idle"),
                      (soa.SoAFlumenNetwork, "_skip_idle"),
                      (soa.SoAOptBusNetwork, "_skip_idle"),
                      (flumen_net.FlumenNetwork, "skip_idle_cycles"),
                      (flumen_net.FlumenNetwork, "skip_quiet_cycles")):
        method(cls, attr, "noc", "skip", after=_count_skipped)
    for cls in (traffic.TrafficGenerator, traffic.TracePlayback):
        method(cls, "packets_for_cycle", "noc", "traffic")
    function(simulation, "make_network", "noc", "build")

    method(system.SystemModel, "run", "core", "system")
    sched = scheduler.FlumenScheduler
    method(sched, "__init__", "core", "init", after=_keep("schedulers"))
    method(sched, "tick", "core", "tick")
    for attr in ("drain", "skip_idle_cycles", "skip_quiet_cycles"):
        method(sched, attr, "core", "scheduler")
    method(control_unit.MZIMControlUnit, "flush_mvms", "core", "mvm_flush",
           after=_count_mvms)

    for attr in ("propagate", "matrix"):
        method(clements.MZIMesh, attr, "photonics", attr)
    method(mesh_registry.MeshArchitecture, "decompose", "photonics",
           "decompose")
    method(calibration.PhysicalMesh, "measure", "photonics", "measure")
    function(calibration, "calibrate_by_decomposition", "photonics",
             "calibrate")
    function(clements, "decompose", "photonics", "decompose")
    function(clements, "random_unitary", "photonics", "decompose")
    function(svd, "program_svd", "photonics", "svd")
    function(batch, "apply_jobs", "photonics", "batch")

    function(campaign, "run_fault_campaign", "faults", "campaign")
    method(injector.FaultInjector, "tick", "faults", "injector")
    method(recovery.FabricRecovery, "__init__", "faults", "recovery",
           after=_keep("recoveries"))
    method(recovery.FabricRecovery, "service", "faults", "recovery")
    method(recovery.FabricRecovery, "mesh_probe", "faults", "probe")

    method(daemon.ServeDaemon, "__init__", "serve", "init")
    method(daemon.ServeDaemon, "run", "serve", "run")
    method(daemon.ServeDaemon, "step", "serve", "step")
    method(arrivals.ClientPopulation, "prebuild", "serve", "prebuild")
    function(admission, "precompute_decisions", "serve", "prebuild")
    method(cluster.ReplicaSet, "run", "serve", "cluster")
    function(merge, "merge_event_logs", "serve", "merge")
    function(merge, "merge_snapshot_series", "serve", "merge")

    method(events.EventLog, "emit", "obs", "emit")
    method(snapshot.SnapshotSampler, "_sample", "obs", "snapshot")


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: SpanTracer, wall_s: float) -> dict:
    """``{metric: (value, unit)}`` for one traced run of ``wall_s``."""
    from repro.photonics.batch import batch_stats
    from repro.photonics.svd import svd_cache_stats

    t = tracer
    out = {f"{layer}.self_s": (t.total(layer), "s") for layer in LAYERS}
    out["unattributed_s"] = (wall_s - sum(t.self_s.values()), "s")

    stepped = t.count_calls("noc", "step")
    ticks = t.count_calls("core", "tick")
    flushes = t.count_calls("core", "mvm_flush")
    accesses = t.counts["multicore.accesses"]
    svd = svd_cache_stats()
    stacked = batch_stats()
    out.update({
        "workloads.stream_s": (t.total("workloads", "stream", "phases"),
                               "s"),
        "multicore.cache_s": (t.total("multicore", "cache"), "s"),
        "multicore.accesses": (accesses, "count"),
        "multicore.ns_per_access": (
            _ratio(1e9 * t.total("multicore"), accesses), "ns"),
        "noc.cycles_stepped": (float(stepped), "count"),
        "noc.cycles_skipped": (t.counts["noc.cycles_skipped"], "count"),
        "noc.ns_per_cycle": (_ratio(1e9 * t.total("noc"), stepped), "ns"),
        "noc.packets": (float(t.count_calls("noc", "offer")), "count"),
        "core.scheduler_s": (t.total("core", "tick", "scheduler"), "s"),
        "core.scheduler_ticks": (float(ticks), "count"),
        "core.grants": (float(sum(s.stats.granted
                                  for s in t.kept["schedulers"])), "count"),
        "core.mvm_flush_s": (t.total("core", "mvm_flush"), "s"),
        "core.mvm_flushes": (float(flushes), "count"),
        "core.mvms_per_flush": (_ratio(t.counts["core.mvms"], flushes),
                                "ratio"),
        "photonics.propagate_calls": (
            float(t.count_calls("photonics", "propagate")), "count"),
        "photonics.svd_hit_ratio": (
            _ratio(svd["hits"], svd["hits"] + svd["misses"]), "ratio"),
        "photonics.stacked_frac": (
            _ratio(stacked["stacked"], stacked["jobs"]), "ratio"),
        "faults.probes": (float(t.count_calls("faults", "probe")), "count"),
        "faults.recalibrations": (
            float(sum(r.recalibrations for r in t.kept["recoveries"])),
            "count"),
        "serve.steps": (float(t.count_calls("serve", "step")), "count"),
        "serve.prebuild_s": (t.total("serve", "prebuild"), "s"),
        "serve.merge_s": (t.total("serve", "merge"), "s"),
        "obs.emit_s": (t.total("obs", "emit"), "s"),
        "obs.events": (float(t.count_calls("obs", "emit")), "count"),
        "obs.snapshots": (float(t.count_calls("obs", "snapshot")), "count"),
    })
    return out
