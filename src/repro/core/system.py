"""End-to-end system model: workloads x topologies (Figures 13, 14, 15).

Binds the multicore substrate (cores + cache hierarchy), the NoP cycle
simulator, and — for Flumen-A — the MZIM compute path with the Algorithm 1
scheduler, producing runtime and a per-component energy breakdown for each
(workload, topology) pair.

Execution model
---------------
* **Baselines (Ring / Mesh / OptBus / Flumen-I)**: all MACs run on the
  cores.  Core time = issue + exposed memory stalls; the workload's memory
  traffic (DRAM fills and writebacks) plays through the topology's cycle
  simulator, and runtime is the slower of compute and communication.
* **Flumen-A**: each offloadable matmul phase becomes an MZIM job.
  Photonic time = phase programming (ping-ponged across the two
  sub-partitions) + WDM input windows + operand streaming at link
  bandwidth + result return; the cores keep partial-sum accumulation and
  all non-offloadable work, overlapped with the photonic pipeline.
  Scheduler grant latency and communication blocking come from co-running
  Algorithm 1 against the same background traffic.

Energy follows the same counters: core/L1/L2/L3/DRAM from the multicore
model, NoP from the network energy model, and the MZIM compute energy from
the photonic model (Section 5.3's calibration).

The configuration set is not hardcoded: each named configuration is a
:class:`~repro.core.pipelines.ConfigPipeline` looked up in the pipeline
registry, so new topology/compute combinations plug in via
``CONFIGURATIONS.register`` and immediately appear in :meth:`run_all`,
the sweep CLI, and the fault campaigns' golden-reference cross-check
(``repro.faults.campaign.golden_numbers_record``).  This model always
simulates a healthy fabric; reliability studies attach a
:class:`~repro.core.control_unit.HealthMonitor` and degradation ladder
to the same control unit + scheduler pair through :mod:`repro.faults`.
"""

from __future__ import annotations

import logging
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from repro.config import SystemConfig
from repro.core.accelerator import OffloadPlan, plan_offload
from repro.core.control_unit import ComputeRequest, MZIMControlUnit
from repro.core.pipelines import CONFIGURATIONS, ConfigPipeline
from repro.core.scheduler import FlumenScheduler, compute_duration_cycles
from repro.multicore.cache import CacheHierarchy, CacheStats, HierarchyCounts
from repro.multicore.cpu import CoreModel
from repro.multicore.energy import CoreEnergyModel, EnergyBreakdown
from repro.noc.energy import NetworkEnergyModel
from repro.noc.simulation import make_network
from repro.noc.traffic import TracePlayback
from repro.obs import NULL_OBS, Obs
from repro.photonics.compute_energy import MZIMComputeModel

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.workloads.base import MatmulPhase, Workload

log = logging.getLogger("repro.system")

#: Memory-controller endpoints on the 16-node NoP.
MEMORY_CONTROLLERS = (0, 5, 10, 15)


@dataclass
class WorkloadRun:
    """Runtime + energy of one workload under one configuration."""

    workload: str
    configuration: str
    runtime_s: float
    energy: EnergyBreakdown
    core_cycles: float = 0.0
    comm_cycles: float = 0.0
    mzim_cycles: float = 0.0
    avg_packet_latency: float = 0.0
    offloaded_macs: int = 0

    @property
    def edp(self) -> float:
        """Energy-delay product (J*s) — Figure 15's metric."""
        return self.energy.total * self.runtime_s


class SystemModel:
    """The 64-core / 16-chiplet evaluation platform (Table 1)."""

    def __init__(self, system: SystemConfig | None = None,
                 parallel_cores: int = 8, nodes: int = 16,
                 obs: Obs = NULL_OBS) -> None:
        self.system = system or SystemConfig()
        #: Cores that share one workload (these kernels do not scale to
        #: all 64 cores; two chiplets' worth is the paper-era assumption).
        self.parallel_cores = parallel_cores
        self.nodes = nodes
        self.obs = obs
        self.core_model = CoreModel(self.system.core)
        #: Fraction of memory-miss latency still exposed to the cores when
        #: operands stream directly to the MZIM under Flumen-A.
        self.offload_stall_fraction = 0.25
        self.energy_model = CoreEnergyModel()
        self.net_energy = NetworkEnergyModel(system=self.system)
        self.mzim_model = MZIMComputeModel(
            compute=self.system.compute,
            architecture=self.system.mesh_architecture)

    # ------------------------------------------------------------------
    # shared pieces
    # ------------------------------------------------------------------

    def _cache_counts(self, workload: Workload,
                      offloaded: bool) -> tuple[HierarchyCounts, CacheHierarchy]:
        """Simulate the workload's access streams through one hierarchy.

        Under Flumen-A, offloaded operand streams bypass L1/L2 (they move
        from L3 to the transceiver), matching Section 5.4.1's observation
        that L1/L2 energy falls while L3/DRAM stay flat.

        The counts depend only on the streams and the core/cache tables,
        so they are memoized process-wide (see :data:`_COUNTS_CACHE`): a
        sweep walks each workload's streams once per ``offloaded`` mode,
        not once per configuration.  A hit still builds a fresh
        hierarchy (callers need its ``stall_cycles``) and replays the
        same metric increments and tracer spans as the walk; only the
        returned hierarchy's level stats stay at zero.
        """
        global _counts_cache_hits, _counts_cache_misses
        hierarchy = CacheHierarchy(self.system.core, self.system.cache,
                                   obs=self.obs)
        key = (type(workload).address_streams, tuple(workload.phases()),
               self.system.core, self.system.cache, offloaded)
        walked = _COUNTS_CACHE.get(key)
        if walked is not None:
            _COUNTS_CACHE.move_to_end(key)
            _counts_cache_hits += 1
            for _name, _processed, counts in walked.phases:
                hierarchy.account(counts)
            hierarchy.account(walked.direct)
        else:
            _counts_cache_misses += 1
            walked = _walk_streams(hierarchy, workload, offloaded)
            _COUNTS_CACHE[key] = walked
            while len(_COUNTS_CACHE) > _COUNTS_CACHE_CAPACITY:
                _COUNTS_CACHE.popitem(last=False)
        tracer = self.obs.tracer
        total = HierarchyCounts()
        # The cache sim is stream-based, not cycle-based; spans on the
        # multicore track use a "stream offset" clock (cumulative
        # addresses processed), a deterministic per-layer time domain.
        offset = 0
        for name, processed, counts in walked.phases:
            if tracer.enabled:
                tracer.complete(
                    "multicore", "cache", name, offset, offset + processed,
                    addresses=processed, offloaded=offloaded,
                    l1_hits=counts.l1.hits, l2_hits=counts.l2.hits,
                    l3_hits=counts.l3.hits)
            offset += processed
            total.add(counts)
        # The L3-direct walk's DRAM fills are in no phase's counts.
        total.dram_accesses += walked.direct.dram_accesses
        return total, hierarchy

    def _traffic_events(self, counts: HierarchyCounts, spread_cycles: int,
                        extra_packets: int = 0
                        ) -> tuple[list[tuple[int, int, int, int]], int]:
        """Build the NoP trace: DRAM fills + writebacks as packets.

        Returns ``(events, scale)`` where the trace was subsampled by
        ``scale`` to stay simulable; energy counters are multiplied back.
        """
        line_flits = 3  # 64B line + header over a ~32B phit
        total_packets = counts.dram_accesses + extra_packets
        scale = self._subsample(total_packets, "NoP trace")
        packets = total_packets // scale
        window = max(1, spread_cycles // scale)
        events = []
        for i in range(packets):
            cycle = (i * window) // max(packets, 1)
            mc = MEMORY_CONTROLLERS[i % len(MEMORY_CONTROLLERS)]
            consumer = (i * 7) % self.nodes
            if consumer == mc:
                consumer = (consumer + 1) % self.nodes
            events.append((cycle, mc, consumer, line_flits))
        return events, scale

    def _subsample(self, packets: int, trace: str) -> int:
        """Subsampling factor keeping a trace under the simulated cap."""
        cap = self.system.max_simulated_packets
        scale = max(1, math.ceil(packets / cap))
        if scale > 1:
            log.info(
                "%s subsampled %dx: %d packets -> %d (cap %d); "
                "energy counters rescaled",
                trace, scale, packets, packets // scale, cap)
        return scale

    def _simulate_nop(self, pipeline: ConfigPipeline,
                      counts: HierarchyCounts, core_cycles: float
                      ) -> tuple[float, EnergyBreakdown, float]:
        """Run the pipeline's network backend on the workload trace.

        Returns (comm_cycles, nop_energy_as_breakdown, avg_latency).
        """
        events, scale = self._traffic_events(counts, int(core_cycles))
        net = make_network(pipeline.topology, self.nodes, obs=self.obs)
        window = max(1, int(core_cycles) // scale)
        net.run(TracePlayback(events), cycles=window, drain=True,
                max_drain_cycles=20_000)
        return self._measure(net, pipeline, window, scale, core_cycles)

    def _measure(self, net, pipeline: ConfigPipeline, window: int,
                 scale: int, span_cycles: float
                 ) -> tuple[float, EnergyBreakdown, float]:
        """(comm cycles, NoP energy, mean packet latency) of a finished
        run of ``window`` cycles over a trace subsampled ``scale`` times.
        """
        comm_cycles = span_cycles + max(0, net.cycle - window) * scale
        result = net.result("trace", 0.0)
        # Scale traffic counters back up for energy accounting.
        object.__setattr__(result, "link_traversals",
                           result.link_traversals * scale)
        object.__setattr__(result, "flit_hops", result.flit_hops * scale)
        object.__setattr__(result, "cycles", int(span_cycles))
        report = self.net_energy.of(result, kind=pipeline.link_energy)
        return (comm_cycles, EnergyBreakdown(nop=report.total),
                result.latency.average)

    def _phase_plan(self, phase: MatmulPhase,
                    partition_ports: int = 8) -> OffloadPlan:
        plan = plan_offload(phase.rows, phase.cols, phase.vectors,
                            mzim_size=partition_ports,
                            wavelengths=self.system.compute
                            .computation_wavelengths)
        return plan

    # ------------------------------------------------------------------
    # configurations
    # ------------------------------------------------------------------

    def run(self, workload: Workload, configuration: str) -> WorkloadRun:
        """Evaluate one workload under one registered configuration."""
        pipeline = CONFIGURATIONS.get(configuration)
        try:
            runner = self._COMPUTE_PATHS[pipeline.compute_path]
        except KeyError:
            raise ValueError(
                f"configuration {pipeline.name!r} declares compute path "
                f"{pipeline.compute_path!r}; this model implements "
                f"{tuple(self._COMPUTE_PATHS)}") from None
        run = runner(self, workload, pipeline)
        if self.obs.tracer.enabled:
            runtime_cycles = int(round(
                run.runtime_s * self.system.core.frequency_hz))
            self.obs.tracer.complete(
                "engine", "runs", f"{run.workload}/{run.configuration}",
                0, runtime_cycles,
                runtime_s=run.runtime_s, energy_j=run.energy.total,
                core_cycles=run.core_cycles, comm_cycles=run.comm_cycles,
                mzim_cycles=run.mzim_cycles,
                offloaded_macs=run.offloaded_macs)
        return run

    def run_all(self, workload: Workload) -> dict[str, WorkloadRun]:
        """Evaluate the workload under every registered configuration."""
        return {cfg: self.run(workload, cfg)
                for cfg in CONFIGURATIONS.names()}

    def _run_baseline(self, workload: Workload,
                      pipeline: ConfigPipeline) -> WorkloadRun:
        counts, hierarchy = self._cache_counts(workload, offloaded=False)
        macs = workload.total_macs()
        extra = workload.extra_core_ops()
        cores = self._cores_for(workload)
        cost = self.core_model.phase_cost(
            macs, extra, counts, hierarchy, cores)
        comm_cycles, nop_energy, avg_lat = self._simulate_nop(
            pipeline, counts, cost.total_cycles)
        runtime_cycles = max(cost.total_cycles, comm_cycles)
        runtime_s = self.core_model.seconds(runtime_cycles)

        energy = self._component_energy(
            macs_on_core=macs, other_ops=cost.other_ops,
            counts=counts, runtime_s=runtime_s, active_cores=cores)
        energy = energy + nop_energy
        return WorkloadRun(
            workload=workload.name, configuration=pipeline.name,
            runtime_s=runtime_s, energy=energy,
            core_cycles=cost.total_cycles, comm_cycles=comm_cycles,
            avg_packet_latency=avg_lat)

    def _run_accelerated(self, workload: Workload,
                         pipeline: ConfigPipeline) -> WorkloadRun:
        counts, hierarchy = self._cache_counts(workload, offloaded=True)
        phases = workload.phases()
        partition_ports = self.system.mzim_ports  # full-fabric compute
        mzim_cycles = 0.0
        mzim_energy = 0.0
        offloaded = 0
        partial_adds = 0
        freq = self.system.core.frequency_hz
        link_bytes_per_cycle = (self.system.phot_link.bandwidth_bps
                                / 8.0 / freq)
        for phase in phases:
            plan = self._phase_plan(phase, partition_ports)
            plan = _apply_sparsity(plan, phase, workload)
            # Ping-pong across the two sub-partitions hides half the
            # per-block programming behind the other half's compute.
            duration = compute_duration_cycles(plan, self.system)
            program_cycles = plan.matrix_switches * math.ceil(
                self.system.compute.mzim_switch_delay_s * freq)
            duration -= program_cycles // 2
            streaming = phase.input_bytes / link_bytes_per_cycle
            mzim_cycles += max(duration, streaming)
            offloaded += plan.macs_offloaded
            partial_adds += plan.partial_sum_adds
            # Energy: one programmed block processes all its vectors in a
            # single (serialized) compute window.
            vectors_per_block = max(1, plan.mvms
                                    // max(1, plan.matrix_switches))
            per_block = self.mzim_model.matmul_energy(
                plan.mzim_size, vectors_per_block)
            mzim_energy += per_block.total * plan.matrix_switches

        # Core side: accumulation + non-offloadable work.  Operand streams
        # flow L3 -> transceiver without stalling the cores (the streaming
        # term above is the bandwidth bound); only a residual fraction of
        # miss latency reaches the accumulating cores.
        # Partial-sum accumulation is a regular vector add and runs on the
        # SIMD pipes at twice the generic op rate.
        extra = workload.extra_core_ops() + partial_adds // 2
        cores = self._cores_for(workload)
        cost = self.core_model.phase_cost(0, extra, None, None, cores)
        residual_stalls = (hierarchy.stall_cycles(
            counts, mlp=self.system.core.memory_level_parallelism)
            * self.offload_stall_fraction / cores)
        core_cycles = cost.total_cycles + residual_stalls

        # Scheduler co-simulation for grant latency and comm blocking.
        grant_wait, avg_lat, comm_cycles, nop_energy = \
            self._scheduler_overhead(pipeline, counts,
                                     max(core_cycles, mzim_cycles),
                                     phases, partition_ports, mzim_cycles)
        pipeline_cycles = max(mzim_cycles + grant_wait, core_cycles)
        runtime_cycles = max(pipeline_cycles, comm_cycles)
        runtime_s = self.core_model.seconds(runtime_cycles)

        energy = self._component_energy(
            macs_on_core=0, other_ops=cost.other_ops,
            counts=counts, runtime_s=runtime_s, active_cores=cores)
        energy = energy + nop_energy
        energy.mzim += mzim_energy
        return WorkloadRun(
            workload=workload.name, configuration=pipeline.name,
            runtime_s=runtime_s, energy=energy,
            core_cycles=core_cycles, comm_cycles=comm_cycles,
            mzim_cycles=mzim_cycles, avg_packet_latency=avg_lat,
            offloaded_macs=offloaded)

    def _scheduler_overhead(self, pipeline: ConfigPipeline,
                            counts: HierarchyCounts,
                            span_cycles: float, phases: list[MatmulPhase],
                            partition_ports: int, mzim_cycles: float
                            ) -> tuple[float, float, float, EnergyBreakdown]:
        """Co-run Algorithm 1 with the background traffic.

        The compute partition takes half the fabric (the Figure 5 even
        split); the chiplets doing core-side work sit in the other half,
        where most of the memory traffic flows.  Packets that do target
        partition endpoints wait — that is the communication-blocking
        overhead Section 5.4.2 quantifies (~9% packet latency increase).

        Returns (grant wait cycles, avg packet latency under blocking,
        comm completion cycles, NoP energy).
        """
        line_flits = 3
        scale = self._subsample(counts.dram_accesses,
                                "scheduler co-sim trace")
        packets = counts.dram_accesses // scale
        window = max(1, int(span_cycles) // scale)
        # Compute partition on the low fabric ports -> endpoints 0..7
        # blocked; traffic runs among the free half with a 15% tail
        # crossing into the blocked half.
        free = [n for n in range(self.nodes // 2, self.nodes)]
        events = []
        for i in range(packets):
            cycle = (i * window) // max(packets, 1)
            mc = free[0] if i % 2 else free[len(free) // 2]
            if i % 7 == 0:
                consumer = (i * 5) % (self.nodes // 2)  # blocked half
            else:
                consumer = free[(i * 3) % len(free)]
            if consumer == mc:
                consumer = free[-1]
            events.append((cycle, mc, consumer, line_flits))
        net = make_network(pipeline.topology, self.nodes, obs=self.obs)
        control = MZIMControlUnit(net, self.system, obs=self.obs)
        fabric = None
        if self.obs.tracer.enabled:
            # Mirror grants onto a real photonic fabric only when tracing,
            # so the reprogramming timeline (phase-write counts) shows up;
            # the null path skips the SVD decompositions entirely.
            from repro.photonics.fabric import FlumenFabric
            fabric = FlumenFabric(
                control.fabric_ports, obs=self.obs,
                mesh_architecture=(pipeline.mesh_architecture
                                   or self.system.mesh_architecture))
        scheduler = FlumenScheduler(control, self.system, obs=self.obs,
                                    fabric=fabric)
        # One compute request per phase, holding half the fabric for the
        # (subsampled) photonic pipeline duration.
        hold = max(1, int(mzim_cycles / scale / max(1, len(phases))))
        for index, phase in enumerate(phases):
            plan = self._phase_plan(phase, partition_ports)
            # Explicit per-run ids: the default factory is a process-global
            # counter, which would leak run ordering into trace args and
            # break byte-identical same-seed traces.
            request = ComputeRequest(
                node=0, plan=plan, matrix_key=f"wl/{phase.name}",
                submit_cycle=0,
                ports_needed=max(2, control.fabric_ports // 2),
                duration_override=hold, request_id=index)
            # Bypass submit(): phases here model jobs whose phase mappings
            # stream from L3 rather than resident matrix memory.
            control.enqueue(request)
        # The window and its drain are booked as one run of the network.
        with net.running():
            scheduler.run(window, TracePlayback(events))
            scheduler.drain(20_000)
        comm_cycles, nop_energy, avg_lat = self._measure(
            net, pipeline, window, scale, span_cycles)
        return (scheduler.stats.average_wait, avg_lat, comm_cycles,
                nop_energy)

    def _cores_for(self, workload: Workload) -> int:
        """Per-workload parallelism override, else the system default."""
        return getattr(workload, "parallel_cores", None) \
            or self.parallel_cores

    def _component_energy(self, macs_on_core: int, other_ops: int,
                          counts: HierarchyCounts, runtime_s: float,
                          active_cores: int | None = None
                          ) -> EnergyBreakdown:
        em = self.energy_model
        core = em.compute_energy(macs_on_core, other_ops,
                                 active_cores or self.parallel_cores,
                                 runtime_s)
        # L1 word-granular energy: two operand reads per MAC, one per op.
        l1_word_accesses = 2 * macs_on_core + other_ops
        l1 = (l1_word_accesses * em.l1_energy_j
              + counts.l1.accesses * em.l1_energy_j)
        l2 = counts.l2.accesses * em.l2_energy_j
        l3 = counts.l3.accesses * em.l3_energy_j
        dram = counts.dram_accesses * em.dram_energy_j
        return EnergyBreakdown(core=core, l1=l1, l2=l2, l3=l3, dram=dram)

    #: Execution modes a pipeline's ``compute_path`` may select.
    _COMPUTE_PATHS = {"core": _run_baseline, "mzim": _run_accelerated}


class _WalkedStreams(NamedTuple):
    """Configuration-independent result of one hierarchy walk."""

    #: Per phase: (span name, addresses processed, level counts).
    phases: tuple[tuple[str, int, HierarchyCounts], ...]
    #: L3 and DRAM counts of the offloaded L3-direct walk, which
    #: bypasses L1 and L2 (all zero when nothing was offloaded).
    direct: HierarchyCounts


#: Process-wide LRU memo of hierarchy walks, keyed by
#: ``(address_streams function, phases, core table, cache table,
#: offloaded)``.  It stores counts, never a ``CacheHierarchy``: a walked
#: paper-shape L3 holds two 16,384 x 16 int64 arrays.
_COUNTS_CACHE: OrderedDict[tuple, _WalkedStreams] = OrderedDict()
_COUNTS_CACHE_CAPACITY = 64
_counts_cache_hits = 0
_counts_cache_misses = 0


def hierarchy_counts_cache_stats() -> dict:
    """Hit/miss/size counters for the :meth:`SystemModel._cache_counts`
    memo."""
    return {"hits": _counts_cache_hits, "misses": _counts_cache_misses,
            "size": len(_COUNTS_CACHE), "capacity": _COUNTS_CACHE_CAPACITY}


def clear_hierarchy_counts_cache() -> None:
    """Drop all memoized hierarchy walks and reset the counters."""
    global _counts_cache_hits, _counts_cache_misses
    _COUNTS_CACHE.clear()
    _counts_cache_hits = 0
    _counts_cache_misses = 0


def _walk_streams(hierarchy: CacheHierarchy, workload: Workload,
                  offloaded: bool) -> _WalkedStreams:
    """Run every address stream of ``workload`` through ``hierarchy``,
    feeding its metric counters as the walk goes."""
    names, streams = [], []
    for phase, stream in workload.address_streams():
        names.append(getattr(phase, "name", str(phase)))
        streams.append(stream)
    if not offloaded:
        return _WalkedStreams(
            tuple((name, counts.l1.accesses, counts) for name, counts
                  in zip(names, hierarchy.access_streams(streams))),
            HierarchyCounts())
    # Offloaded operands go L3 -> transceiver: one L3-only walk.
    lines, lengths = hierarchy.stream_lines(streams)
    hits = hierarchy.l3.access_lines(lines)
    hierarchy.dram_accesses += hits.size - int(hits.sum())
    direct = HierarchyCounts(
        l3=CacheStats(hierarchy.l3.stats.accesses, hierarchy.l3.stats.hits),
        dram_accesses=hierarchy.dram_accesses)
    hierarchy.account(direct)
    return _WalkedStreams(
        tuple((name, processed, HierarchyCounts())
              for name, processed in zip(names, lengths)),
        direct)


def _apply_sparsity(plan: OffloadPlan, phase: MatmulPhase,
                    workload: Workload) -> OffloadPlan:
    """Shrink block counts for structurally sparse weight matrices.

    Block-diagonal kernels (per-channel convolutions) program only their
    nonzero blocks; the controller skips the rest, exactly as
    :class:`~repro.core.accelerator.BlockMatmul` does.
    """
    fraction = getattr(workload, "nonzero_block_fraction", None)
    if fraction is None or fraction >= 1.0:
        return plan
    switches = max(1, int(plan.matrix_switches * fraction))
    windows = max(1, int(plan.optical_windows * fraction))
    mvms = max(1, int(plan.mvms * fraction))
    # Zero blocks produce no partials, so accumulation shrinks too.
    adds = int(plan.partial_sum_adds * fraction)
    return OffloadPlan(
        mzim_size=plan.mzim_size, wavelengths=plan.wavelengths,
        rows=plan.rows, cols=plan.cols, vectors=plan.vectors,
        block_rows=plan.block_rows, block_cols=plan.block_cols,
        matrix_switches=switches, optical_windows=windows, mvms=mvms,
        partial_sum_adds=adds,
        macs_offloaded=plan.macs_offloaded)
