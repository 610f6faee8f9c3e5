"""The MZIM control unit (Section 3.4, Figure 8).

Owns the photonic fabric's request buffers, the compute-request queue, the
matrix memory holding precomputed phase mappings, and the arbitration
waveguide through which chiplets talk to the controller.  Communication
arbitration itself (the wavefront arbiter) lives in
:class:`repro.noc.soa.SoAFlumenNetwork`; this class layers the
compute-side state on top and exposes the utilization feedback nodes use to
decide between offloading and computing locally.

Reliability hook (DESIGN.md §12): a :class:`HealthMonitor` may be
attached to the control unit (by
:meth:`repro.faults.recovery.FabricRecovery.attach`).  It periodically
compares expected vs. measured transfer behaviour — the calibration
module's basis-vector probe plus a received-power ENOB check — and an
unhealthy monitor makes :meth:`MZIMControlUnit.advise_offload` steer
nodes back to their local cores while the degradation ladder
(:mod:`repro.faults.ladder`) walks its recovery rungs.  Without a
monitor attached, behaviour is bit-for-bit identical to the
pre-fault-subsystem control unit.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.config import SystemConfig
from repro.core.accelerator import BlockMatmul, OffloadPlan, block_matmul_many
from repro.noc.soa import SoAFlumenNetwork
from repro.obs import NULL_OBS, Obs

_request_ids = itertools.count()


@dataclass
class ComputeRequest:
    """One node's request to run a matmul job in the interconnect."""

    node: int
    plan: OffloadPlan
    matrix_key: str
    submit_cycle: int
    #: Fabric ports the partition needs (even, >= 2).
    ports_needed: int = 4
    #: Optional explicit partition hold time in cycles; when None the
    #: scheduler derives it from the plan (Table 1 timings).
    duration_override: int | None = None
    #: Accounting context: which tenant's request stream this job belongs
    #: to.  Threaded onto per-tenant counters and structured events by
    #: the scheduler and control unit (the serve daemon's currency).
    tenant: str = "default"
    request_id: int = field(default_factory=lambda: next(_request_ids))

    def __post_init__(self) -> None:
        if self.ports_needed < 2 or self.ports_needed % 2:
            raise ValueError(
                f"partition needs an even port count >= 2, "
                f"got {self.ports_needed}")


class MatrixMemory:
    """Local memory holding precomputed MZIM phase mappings (Section 3.3.3).

    Phase programming is expensive at runtime, so matrices are decomposed
    ahead of time and the controller only streams stored phases to the
    DACs.  Capacity is counted in stored ``N x N`` blocks.
    """

    def __init__(self, capacity_blocks: int = 256) -> None:
        self.capacity_blocks = capacity_blocks
        self._entries: dict[str, BlockMatmul] = {}
        self._lru: deque[str] = deque()

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        """Matrices stored (each may span several blocks)."""
        return len(self._entries)

    def blocks_used(self) -> int:
        return sum(len(e.programs) for e in self._entries.values())

    def store(self, key: str, matmul: BlockMatmul) -> None:
        """Insert a precomputed block program set, evicting LRU entries."""
        if len(matmul.programs) > self.capacity_blocks:
            raise ValueError(
                f"matrix needs {len(matmul.programs)} blocks; memory holds "
                f"{self.capacity_blocks}")
        if key in self._entries:
            self._lru.remove(key)
        self._entries[key] = matmul
        self._lru.append(key)
        while self.blocks_used() > self.capacity_blocks:
            victim = self._lru.popleft()
            del self._entries[victim]

    def get(self, key: str) -> BlockMatmul:
        if key not in self._entries:
            raise KeyError(f"matrix {key!r} not in MZIM matrix memory")
        self._lru.remove(key)
        self._lru.append(key)
        return self._entries[key]


class HealthMonitor:
    """Expected-vs-measured fabric health probe (DESIGN.md §12).

    Every ``interval_cycles`` the monitor samples up to three signals:

    * ``mesh_probe()`` — normalized transfer-matrix error of the compute
      mesh against its target (the calibration basis-vector probe,
      :func:`repro.photonics.calibration.matrix_error`);
    * ``link_probe()`` — transfer error of the communication paths
      (1.0 while a dead interposer link has no detour programmed);
    * ``power_probe()`` — received optical power in watts, converted to
      detector ENOB via :func:`repro.photonics.noise.effective_bits`.

    A sample is unhealthy when the combined error exceeds
    ``error_threshold`` or the ENOB falls below ``min_effective_bits``.
    The monitor only *observes*; acting on an unhealthy sample is the
    degradation ladder's job (:mod:`repro.faults.ladder`).
    """

    def __init__(self, *,
                 mesh_probe: Callable[[], float] | None = None,
                 link_probe: Callable[[], float] | None = None,
                 power_probe: Callable[[], float] | None = None,
                 error_threshold: float = 0.05,
                 min_effective_bits: float = 4.0,
                 interval_cycles: int = 64,
                 obs: Obs = NULL_OBS) -> None:
        if interval_cycles < 1:
            raise ValueError(
                f"interval_cycles must be >= 1, got {interval_cycles}")
        if error_threshold <= 0.0:
            raise ValueError(
                f"error_threshold must be > 0, got {error_threshold}")
        self.mesh_probe = mesh_probe
        self.link_probe = link_probe
        self.power_probe = power_probe
        self.error_threshold = error_threshold
        self.min_effective_bits = min_effective_bits
        self.interval_cycles = interval_cycles
        self.probes = 0
        self.last_sample: dict | None = None
        self.obs = obs
        self._tracer = obs.tracer
        self._m_probes = obs.metrics.counter("core.health_probes")
        self._m_unhealthy = obs.metrics.counter("core.health_unhealthy")
        self._g_error = obs.metrics.gauge("core.health_error")
        self._g_enob = obs.metrics.gauge("core.health_enob")

    @property
    def healthy(self) -> bool:
        """Last sample's verdict (healthy until the first probe)."""
        return self.last_sample is None or bool(self.last_sample["healthy"])

    def due(self, cycle: int) -> bool:
        return cycle % self.interval_cycles == 0

    def probe(self, cycle: int) -> dict:
        """Take one sample now, regardless of the probe interval."""
        error = 0.0
        if self.mesh_probe is not None:
            error = max(error, float(self.mesh_probe()))
        if self.link_probe is not None:
            error = max(error, float(self.link_probe()))
        enob = None
        if self.power_probe is not None:
            from repro.photonics.noise import effective_bits
            enob = float(effective_bits(float(self.power_probe())))
        healthy = error <= self.error_threshold and (
            enob is None or enob >= self.min_effective_bits)
        sample = {"cycle": cycle, "error": error, "enob": enob,
                  "healthy": healthy}
        self.last_sample = sample
        self.probes += 1
        self._m_probes.inc()
        if not healthy:
            self._m_unhealthy.inc()
        self._g_error.set(error)
        if enob is not None:
            self._g_enob.set(enob)
        if self._tracer.enabled:
            self._tracer.instant(
                "core", "health", "health_probe", cycle,
                error=round(error, 6),
                enob=None if enob is None else round(enob, 3),
                healthy=healthy)
        return sample

    def sample(self, cycle: int) -> dict | None:
        """Probe if a sample is due this cycle; return it (else None)."""
        if not self.due(cycle):
            return None
        return self.probe(cycle)


@dataclass
class MVMResult:
    """One completed fleet MVM: which job, whose request, what came out."""

    job_id: int
    node: int
    matrix_key: str
    result: np.ndarray
    tenant: str = "default"


def nodes_rule(fabric_ports: int) -> tuple[Callable[[int], bool], str]:
    """(valid?, rule text) for a network's node count under a fabric of
    ``fabric_ports`` MZIM ports: every port needs its own endpoint."""
    return (lambda nodes: nodes >= fabric_ports,
            f">= {fabric_ports}, one network endpoint per fabric port")


class MZIMControlUnit:
    """Compute-side brain of the Flumen fabric."""

    def __init__(self, network: SoAFlumenNetwork,
                 system: SystemConfig | None = None,
                 obs: Obs = NULL_OBS) -> None:
        self.network = network
        self.system = system or SystemConfig()
        valid, rule = nodes_rule(self.fabric_ports)
        if not valid(network.nodes):
            raise ValueError(f"nodes must be {rule}, got {network.nodes}")
        #: Single buffer of compute requests per network edge (Figure 8);
        #: we model the merged queue the Partitioner scans.
        self.compute_buffer: deque[ComputeRequest] = deque()
        self.matrix_memory = MatrixMemory()
        self.requests_received = 0
        #: Fabric health monitor (None = always healthy); attached by
        #: :meth:`repro.faults.recovery.FabricRecovery.attach`.
        self.health: HealthMonitor | None = None
        #: Queued numeric MVM jobs awaiting a fleet-wide stacked dispatch:
        #: ``(job_id, node, matrix_key, vectors, tenant)``.
        self._mvm_queue: list[tuple[int, int, str, np.ndarray, str]] = []
        self._mvm_ids = itertools.count()
        #: LRU memo of repeated (program, vectors) MVM jobs: maps
        #: ``(id(BlockMatmul), vectors bytes)`` to the computed result.
        #: Values hold a reference to the :class:`BlockMatmul` itself so
        #: a garbage-collected program can never alias a reused ``id()``.
        self._mvm_memo: "OrderedDict[tuple[int, bytes], " \
            "tuple[object, np.ndarray]]" = OrderedDict()
        self.obs = obs
        self._tracer = obs.tracer
        self._events = obs.events
        self._m_offload_accept = obs.metrics.counter("core.offload_accepted")
        self._m_offload_reject = obs.metrics.counter("core.offload_rejected")
        self._m_mvm_jobs = obs.metrics.counter("core.mvm_jobs")
        self._m_mvm_flushes = obs.metrics.counter("core.mvm_flushes")

    @property
    def fabric_ports(self) -> int:
        """MZIM port count (8 for the 16-chiplet system, Section 5.1)."""
        return self.system.mzim_ports

    @property
    def endpoints_per_port(self) -> int:
        """Network endpoints sharing one MZIM port."""
        return max(1, self.network.nodes // self.fabric_ports)

    def port_range_endpoints(self, lo_port: int, hi_port: int) -> set[int]:
        """Network endpoints covered by fabric ports ``[lo_port, hi_port)``."""
        k = self.endpoints_per_port
        return set(range(lo_port * k, hi_port * k))

    def endpoint_port(self, endpoint: int) -> int | None:
        """Fabric port serving network ``endpoint`` (None: no port does)."""
        port = endpoint // self.endpoints_per_port
        return port if port < self.fabric_ports else None

    def enqueue(self, request: ComputeRequest) -> None:
        """Place a request in the compute buffer (already arbitrated)."""
        self.compute_buffer.append(request)
        self.requests_received += 1
        self._m_offload_accept.inc()
        self.obs.metrics.counter("core.tenant_offload_accepted",
                                 tenant=request.tenant).inc()
        if self._tracer.enabled:
            self._tracer.instant(
                "core", "offload", "offload_accept", request.submit_cycle,
                request_id=request.request_id, node=request.node,
                ports_needed=request.ports_needed)

    def submit(self, request: ComputeRequest, cycle: int) -> None:
        """Accept a compute request over the arbitration waveguide."""
        if request.ports_needed > self.fabric_ports:
            raise ValueError(
                f"request wants {request.ports_needed} ports; fabric has "
                f"{self.fabric_ports}")
        if request.matrix_key not in self.matrix_memory:
            raise KeyError(
                f"matrix {request.matrix_key!r} must be preloaded into "
                f"matrix memory before requesting compute (Section 3.3.3)")
        self.enqueue(request)

    # -- fleet-wide MVM dispatch ------------------------------------------

    def queue_mvm(self, matrix_key: str, vectors: np.ndarray,
                  node: int = 0, tenant: str = "default") -> int:
        """Queue one numeric MVM job against a preloaded matrix.

        Jobs accumulate until :meth:`flush_mvms`, which executes the whole
        fleet through one stacked ``(B, k, 2, 2)`` kernel dispatch —
        concurrent offloads from different cores share a single pass
        instead of propagating block by block.  Returns the job id.
        """
        if matrix_key not in self.matrix_memory:
            raise KeyError(
                f"matrix {matrix_key!r} must be preloaded into matrix "
                f"memory before queueing an MVM (Section 3.3.3)")
        job_id = next(self._mvm_ids)
        self._mvm_queue.append((job_id, node, matrix_key,
                                np.asarray(vectors, dtype=float),
                                str(tenant)))
        return job_id

    def pending_mvms(self) -> int:
        """Jobs queued and not yet flushed."""
        return len(self._mvm_queue)

    def flush_mvms(self) -> list[MVMResult]:
        """Execute every queued MVM in one fleet-wide stacked dispatch.

        Results come back in submission order and are bit-identical to
        running each job's :class:`~repro.core.accelerator.BlockMatmul`
        sequentially (the stacked kernel's oracle contract, DESIGN.md
        §14); repeated jobs are answered from a memo of earlier results
        (:meth:`_memoized_matmuls`).  The queue is emptied even if a job
        fails.
        """
        queue, self._mvm_queue = self._mvm_queue, []
        if not queue:
            return []
        jobs = [(self.matrix_memory.get(key), vectors)
                for _, _, key, vectors, _ in queue]
        outputs = self._memoized_matmuls(jobs)
        self._m_mvm_jobs.inc(len(queue))
        self._m_mvm_flushes.inc()
        tenant_jobs: dict[str, int] = {}
        for _, _, _, _, tenant in queue:
            tenant_jobs[tenant] = tenant_jobs.get(tenant, 0) + 1
        for tenant, n in tenant_jobs.items():
            self.obs.metrics.counter("core.tenant_mvm_jobs",
                                     tenant=tenant).inc(n)
        if self._events.enabled:
            self._events.emit(
                "mvm_flush", self.network.cycle,
                jobs=len(queue),
                nodes=sorted({node for _, node, _, _, _ in queue}),
                blocks=sum(len(job.programs) for job, _ in jobs),
                tenants={t: tenant_jobs[t] for t in sorted(tenant_jobs)})
        if self._tracer.enabled:
            self._tracer.instant(
                "core", "offload", "mvm_flush", self.network.cycle,
                jobs=len(queue),
                blocks=sum(len(job.programs) for job, _ in jobs))
        return [MVMResult(job_id=job_id, node=node, matrix_key=key,
                          result=result, tenant=tenant)
                for (job_id, node, key, _, tenant), result
                in zip(queue, outputs)]

    def _memoized_matmuls(self, jobs: list) -> list[np.ndarray]:
        """Stacked-dispatch outputs with repeated jobs served from memo.

        A serving fabric flushes the *same* preloaded tenant program
        against the *same* pinned vector block thousands of times; the
        stacked kernel's per-job results are bit-identical to computing
        each job alone (DESIGN.md §14), so identical ``(program,
        vectors)`` jobs may be answered from a bounded LRU of previous
        results — byte-equivalent output, no numeric work.  Only the
        subset of genuinely new jobs runs through
        :func:`~repro.core.accelerator.block_matmul_many`.  Returned
        (and cached) arrays are copies, so callers may mutate results
        without poisoning the memo.  The memo keeps at most
        ``max(8, 4 * len(matrix_memory))`` results: a few vector blocks
        per stored matrix.
        """
        bound = max(8, 4 * len(self.matrix_memory))
        outputs: list[np.ndarray | None] = [None] * len(jobs)
        keys: list[tuple[int, bytes]] = []
        fresh: list[int] = []
        first_seen: dict[tuple[int, bytes], int] = {}
        for i, (program, vectors) in enumerate(jobs):
            key = (id(program), vectors.tobytes())
            keys.append(key)
            hit = self._mvm_memo.get(key)
            if hit is not None:
                self._mvm_memo.move_to_end(key)
                outputs[i] = hit[1].copy()
            elif key not in first_seen:
                # A duplicate within this flush is computed once, below.
                first_seen[key] = i
                fresh.append(i)
        if fresh:
            computed = block_matmul_many([jobs[i] for i in fresh])
            for i, result in zip(fresh, computed):
                outputs[i] = result
                self._mvm_memo[keys[i]] = (jobs[i][0], result.copy())
                while len(self._mvm_memo) > bound:
                    self._mvm_memo.popitem(last=False)
        for i, key in enumerate(keys):
            if outputs[i] is None:
                # Within-flush duplicate; its first occurrence may
                # already have been evicted from a tiny memo, so copy
                # from the computed output rather than the cache.
                outputs[i] = outputs[first_seen[key]].copy()
        return outputs  # type: ignore[return-value]

    def network_utilization(self, scan_depth: float | None = None) -> float:
        """Utilization feedback broadcast to the chiplets (Section 3.4)."""
        zeta = self.system.scheduler.zeta if scan_depth is None else scan_depth
        return self.network.buffer_utilization(scan_depth=zeta)

    def advise_offload(self, utilization_ceiling: float = 0.8) -> bool:
        """Node-side admission hint: offload only when the network is calm.

        "nodes will not request compute access if the network utilization
        conveyed to them by the MZIM control unit is too high" (Section 3.4).
        An attached, currently-unhealthy :class:`HealthMonitor` also
        rejects: while the fabric is being recovered, nodes compute
        locally rather than queue on a degraded photonic path.
        """
        utilization = self.network_utilization()
        unhealthy = self.health is not None and not self.health.healthy
        accept = utilization < utilization_ceiling and not unhealthy
        if not accept:
            self._m_offload_reject.inc()
        if self._tracer.enabled:
            self._tracer.instant(
                "core", "offload", "offload_advice", self.network.cycle,
                utilization=round(utilization, 6),
                ceiling=utilization_ceiling, accept=accept,
                fabric_healthy=not unhealthy)
        return accept
