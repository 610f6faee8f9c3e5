"""The `repro serve` daemon: a live Flumen fabric under open load.

One :class:`ServeDaemon` is a long-lived co-simulation of the full
stack — seeded client populations (:mod:`repro.serve.arrivals`),
token-bucket admission (:mod:`repro.serve.admission`), per-tenant
request batching draining into the control unit's fleet MVM queue
(``queue_mvm`` / ``flush_mvms``), Algorithm 1 repartitioning driven by
the *observed* compute backlog, and the degradation ladder running live
(:class:`~repro.faults.recovery.FabricRecovery`): a fault injected
mid-session walks RECALIBRATE → SHRINK → REROUTE → ELECTRICAL while
the daemon keeps answering, and no admitted request is ever dropped —
at worst it completes on the electrical fallback path.

Lifecycle is a small state machine, every edge an emitted
``serve_transition`` event::

    BOOT ──start──▶ SERVING ──duration reached──▶ DRAINING ──empty──▶ STOPPED

BOOT builds the fabric and preloads tenant matrices; SERVING accepts
arrivals for ``config.duration`` cycles; DRAINING stops admission and
runs the same per-cycle body until every admitted request has
completed (bounded by ``config.drain_limit``); STOPPED takes the final
snapshot.

Determinism contract (byte-identical session replay): the daemon runs
entirely on the simulated clock — arrivals, admission refills, batch
age-outs, probes, ladder backoff, and every event/snapshot timestamp
are cycle-based, never wall time; all randomness flows from per-purpose
generators seeded via ``point_seed(config.seed, purpose)``; and request
ids are per-session ordinals (never the process-global
:class:`~repro.core.control_unit.ComputeRequest` counter).  Two runs of
the same :class:`ServeConfig` therefore produce byte-identical event
logs, snapshot series, expositions, and session reports — with or
without a live HTTP observer attached, since the read side never
mutates daemon state.

The accounting ledger is conserved at every snapshot::

    offered == admitted + rejected
    in_flight == admitted - completed

which the hypothesis suite asserts across arrival shapes and seeds.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.engine import point_seed
from repro.config import DeviceParams, SystemConfig
from repro.core.accelerator import BlockMatmul, plan_offload
from repro.core.control_unit import ComputeRequest, MZIMControlUnit
from repro.core.scheduler import FlumenScheduler
from repro.faults.injector import FaultInjector
from repro.faults.ladder import BackoffPolicy
from repro.faults.models import FAULTS, FaultSchedule
from repro.faults.recovery import FabricRecovery
from repro.noc.flumen_net import FlumenNetwork
from repro.noc.packet import Packet
from repro.obs import Obs, percentile_summary
from repro.serve.admission import (
    AdmissionController,
    precompute_decisions,
)
from repro.serve.arrivals import ARRIVALS, Arrival, ClientPopulation

#: Latency histogram buckets, in cycles (shared by mvm and comm series).
LATENCY_BOUNDS = (8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
                  1024.0, 2048.0, 4096.0)


class DaemonState(enum.Enum):
    """Daemon lifecycle; transitions are emitted as events."""

    BOOT = "boot"
    SERVING = "serving"
    DRAINING = "draining"
    STOPPED = "stopped"


@dataclass(frozen=True)
class ServeConfig:
    """Parameters of one serving session (all time in cycles)."""

    #: Cycles of the SERVING phase (arrivals accepted).
    duration: int = 4096
    seed: int = 0
    #: Arrival-process name (a :data:`~repro.serve.arrivals.ARRIVALS` key).
    arrival: str = "poisson"
    #: Mean offered requests per tenant per cycle at intensity 1.0.
    rate: float = 0.05
    tenants: int = 3
    #: Fraction of offered requests that are MVM offloads (rest: comm).
    mvm_fraction: float = 0.5
    nodes: int = 16
    ports: int = 8
    # -- batching ----------------------------------------------------------
    #: Close a tenant batch at this many requests...
    batch_size: int = 8
    #: ...or when its oldest request has waited this many cycles.
    batch_window: int = 64
    #: Photonic service time for a dispatched batch: base + per-request.
    service_base_cycles: int = 32
    service_per_request_cycles: int = 4
    # -- admission ---------------------------------------------------------
    #: Token-bucket refill per tenant (requests per cycle).
    admission_rate: float = 0.12
    #: Token-bucket depth (burst tolerance), in requests.
    admission_burst: float = 24.0
    # -- faults ------------------------------------------------------------
    #: Fault kind to inject mid-session (None = fault-free).
    fault: str | None = None
    fault_magnitude: float = 1.0
    probe_interval: int = 48
    backoff: BackoffPolicy = field(default_factory=lambda: BackoffPolicy(
        base_cycles=16, factor=2.0, max_retries=2,
        max_backoff_cycles=512))
    # -- misc --------------------------------------------------------------
    #: DRAINING gives up (and reports it) after this many extra cycles.
    drain_limit: int = 60_000
    packet_flits: int = 4
    snapshot_interval: int = 256
    #: Bound the event log for long sessions (None = unbounded).
    max_events: int | None = None
    #: Explicit tenant roster (a cluster shard); ``None`` means the
    #: default ``tenant0 .. tenantN-1``.  Per-tenant RNG streams are
    #: keyed by name, so a shard serving a subset of a session's
    #: tenants draws exactly the streams those tenants would see in
    #: the unsharded session.
    tenant_list: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ValueError(f"duration must be >= 1, got {self.duration}")
        ARRIVALS.get(self.arrival)  # raises listing known names
        if self.tenant_list is not None:
            roster = tuple(str(t) for t in self.tenant_list)
            if not roster:
                raise ValueError("tenant_list must not be empty")
            if len(set(roster)) != len(roster):
                raise ValueError(
                    f"tenant_list has duplicates: {roster}")
            object.__setattr__(self, "tenant_list", roster)
            object.__setattr__(self, "tenants", len(roster))
        if self.tenants < 1:
            raise ValueError(f"tenants must be >= 1, got {self.tenants}")
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if self.batch_window < 1:
            raise ValueError(
                f"batch_window must be >= 1, got {self.batch_window}")
        if self.fault is not None:
            FAULTS.get(self.fault)  # raises with the registered list

    def tenant_names(self) -> tuple[str, ...]:
        """Stable tenant identifiers (``tenant0`` .. ``tenantN-1``).

        An explicit ``tenant_list`` (a cluster shard's roster) takes
        precedence over the generated names.
        """
        if self.tenant_list is not None:
            return self.tenant_list
        return tuple(f"tenant{i}" for i in range(self.tenants))

    def to_dict(self) -> dict:
        """JSON-serializable config record (embedded in the report)."""
        record = dataclasses.asdict(self)
        record["backoff"] = dataclasses.asdict(self.backoff)
        return record


@dataclass
class _Batch:
    """One open per-tenant batch awaiting dispatch."""

    tenant: str
    opened_cycle: int
    requests: list[Arrival] = field(default_factory=list)
    submit_cycles: list[int] = field(default_factory=list)


class _ServeNetwork(FlumenNetwork):
    """FlumenNetwork that surfaces per-packet delivery to the daemon.

    The kernel's latency stats are aggregate; the daemon needs each
    delivery attributed to the tenant that offered the packet, so this
    subclass forwards every completed packet through ``on_deliver``.
    """

    on_deliver = None

    def _deliver(self, packet: Packet, delivered_cycle: int,
                 track: str, **trace_args: object) -> None:
        super()._deliver(packet, delivered_cycle, track, **trace_args)
        if self.on_deliver is not None:
            self.on_deliver(packet, delivered_cycle)


class ServeDaemon:
    """Long-lived serving loop over one live Flumen fabric.

    Build it, then call :meth:`run` for the whole session, or drive
    :meth:`start` / :meth:`step` / :meth:`finish` yourself (the perf
    harness and tests do) — the report is identical either way.
    """

    def __init__(self, config: ServeConfig,
                 obs: Obs | None = None,
                 vectorized: bool = True) -> None:
        self.config = config
        self.obs = obs if obs is not None else Obs.telemetry(
            snapshot_interval=config.snapshot_interval,
            max_events=config.max_events)
        self.state = DaemonState.BOOT
        self.cycle = 0
        self.system = SystemConfig()
        self.devices = DeviceParams()
        self._rng = np.random.default_rng(
            point_seed(config.seed, "serve/fabric"))
        self.recovery = FabricRecovery(
            ports=config.ports, nodes=config.nodes,
            seed=point_seed(config.seed, "serve/recovery"),
            rng=self._rng, backoff=config.backoff,
            probe_interval=config.probe_interval,
            devices=self.devices, obs=self.obs)
        self.ladder = self.recovery.ladder
        self.net = _ServeNetwork(config.nodes, obs=self.obs)
        self.net.on_deliver = self._on_deliver
        self.recovery.bind_network(self.net)
        self.control = MZIMControlUnit(self.net, self.system,
                                       obs=self.obs,
                                       health=self.recovery.monitor)
        self.scheduler = FlumenScheduler(self.control, self.system,
                                         obs=self.obs,
                                         ladder=self.ladder)
        self.population = ClientPopulation(
            config.tenant_names(), ARRIVALS.get(config.arrival)(),
            config.rate, config.mvm_fraction, config.nodes,
            config.seed)
        self.admission = AdmissionController(
            config.admission_rate, config.admission_burst)
        if config.fault is None:
            schedule = FaultSchedule()
        else:
            schedule = FaultSchedule.seeded(
                [config.fault], point_seed(config.seed, "serve/faults"),
                window_cycles=config.duration, ports=config.ports,
                nodes=config.nodes, magnitude=config.fault_magnitude)
        self.injector = FaultInjector(
            schedule, self.recovery.domain,
            seed=point_seed(config.seed, "serve/faults"), obs=self.obs)
        # Ledger (mirrored into serve.* metrics every cycle).
        self.offered = 0
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.drained = True
        self._open: dict[str, _Batch] = {}
        self._in_scheduler: dict[int, _Batch] = {}
        self._batch_ordinal = 0
        self._packet_tenant: dict[int, str] = {}
        self._mvm_latencies: list[int] = []
        self._per_tenant: dict[str, dict[str, int]] = {
            t: {"offered": 0, "admitted": 0, "rejected": 0,
                "completed": 0}
            for t in config.tenant_names()}
        metrics = self.obs.metrics
        self._m_offered = metrics.counter("serve.offered")
        self._m_admitted = metrics.counter("serve.admitted")
        self._m_rejected = metrics.counter("serve.rejected")
        self._m_completed = metrics.counter("serve.completed")
        self._g_in_flight = metrics.gauge("serve.in_flight")
        self._g_open_batches = metrics.gauge("serve.open_batches")
        self._h_mvm = metrics.histogram("serve.latency_cycles",
                                        bounds=LATENCY_BOUNDS,
                                        kind="mvm")
        self._h_comm = metrics.histogram("serve.latency_cycles",
                                         bounds=LATENCY_BOUNDS,
                                         kind="comm")
        # Per-tenant fabric state: a preloaded matrix program and a
        # fixed vector block every MVM in the tenant's stream reuses.
        self._vectors: dict[str, np.ndarray] = {}
        self._tenants = config.tenant_names()
        for tenant in self._tenants:
            t_rng = np.random.default_rng(
                point_seed(config.seed, f"serve/matrix/{tenant}"))
            matrix = t_rng.normal(size=(config.ports, config.ports))
            self.control.matrix_memory.store(
                f"serve/{tenant}",
                BlockMatmul(matrix, mzim_size=config.ports))
            self._vectors[tenant] = t_rng.normal(
                size=(config.ports, 4))
        # Lazily-cached per-tenant labeled counters (creation stays
        # on-first-use so the metric series set matches the live path).
        self._c_admitted: dict[str, object] = {}
        self._c_rejected: dict[str, object] = {}
        self._c_completed: dict[str, object] = {}
        # -- vectorized fast path (two-slot oracle/fast pattern) ----------
        # The fast slot pre-draws the whole arrival schedule (wheel),
        # replays admission as array-form token buckets, memoizes the
        # fleet-MVM flush and the healthy-mesh probe, and lets run() /
        # _drain() fast-forward provably idle cycles.  Every artifact —
        # events, snapshots, ledger, report — is byte-identical to the
        # oracle slot (``vectorized=False``), which keeps the original
        # per-cycle objects live.
        self.vectorized = bool(vectorized)
        if self.vectorized:
            self._wheel = self.population.prebuild(config.duration)
            self._decisions: dict[int, list[bool]] | None = \
                precompute_decisions(
                    self._wheel, config.tenant_names(),
                    config.admission_rate, config.admission_burst)
            self._arrival_source = self._wheel
            self.control.mvm_memo_entries = max(8, 4 * config.tenants)
            self.recovery.probe_memo = True
        else:
            self._wheel = None
            self._decisions = None
            self._arrival_source = self.population

    # -- accounting --------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Admitted requests not yet completed (ledger invariant)."""
        return self.admitted - self.completed

    def _sync_gauges(self) -> None:
        self._g_in_flight.set(float(self.in_flight))
        self._g_open_batches.set(float(len(self._open)))

    def _transition(self, dst: DaemonState, reason: str) -> None:
        src, self.state = self.state, dst
        self.obs.events.emit("serve_transition", self.cycle,
                             src=src.value, dst=dst.value,
                             reason=reason)

    # -- request intake ----------------------------------------------------

    def _tenant_counter(self, cache: dict, name: str, tenant: str):
        counter = cache.get(tenant)
        if counter is None:
            counter = self.obs.metrics.counter(name, tenant=tenant)
            cache[tenant] = counter
        return counter

    def _offer(self, arrival: Arrival,
               admit: bool | None = None) -> None:
        """Offer one arrival; ``admit`` carries a precomputed verdict.

        The oracle slot passes ``None`` and consults the live
        :class:`AdmissionController`; the vectorized slot passes the
        array-form replay's (bit-identical) decision.
        """
        self.offered += 1
        self._m_offered.inc()
        tenant = self._per_tenant[arrival.tenant]
        tenant["offered"] += 1
        if admit is None:
            admit = self.admission.admit(arrival.tenant, self.cycle)
        if not admit:
            self.rejected += 1
            self._m_rejected.inc()
            tenant["rejected"] += 1
            self._tenant_counter(self._c_rejected,
                                 "serve.tenant_rejected",
                                 arrival.tenant).inc()
            self.obs.events.emit("admission_reject", self.cycle,
                                 tenant=arrival.tenant,
                                 kind=arrival.kind)
            return
        self.admitted += 1
        self._m_admitted.inc()
        tenant["admitted"] += 1
        self._tenant_counter(self._c_admitted,
                             "serve.tenant_admitted",
                             arrival.tenant).inc()
        if arrival.kind == "comm":
            packet = Packet(
                src=arrival.src, dst=arrival.dst,
                size_flits=self.config.packet_flits,
                create_cycle=self.net.cycle,
                traffic_class="serve")
            self._packet_tenant[packet.packet_id] = arrival.tenant
            self.net.offer_packet(packet)
        else:
            batch = self._open.get(arrival.tenant)
            if batch is None:
                batch = _Batch(tenant=arrival.tenant,
                               opened_cycle=self.cycle)
                self._open[arrival.tenant] = batch
            batch.requests.append(arrival)
            batch.submit_cycles.append(self.cycle)

    # -- batching → Algorithm 1 -------------------------------------------

    def _dispatch_gate(self) -> bool:
        """May a closed batch enter the scheduler this cycle?

        Mirrors the campaign's offload gate: nodes hold work back while
        the network is saturated or the fabric is being recovered —
        *unless* the ladder has reached its terminal electrical rung
        (the fallback path is always serviceable) or the daemon is
        draining (shutdown flushes everything that was admitted).
        """
        return (self.control.advise_offload()
                or self.ladder.electrical_fallback
                or self.state is DaemonState.DRAINING)

    def _dispatch_due(self) -> None:
        if not self._open:
            return
        gate = None  # evaluated lazily: advise_offload emits metrics
        for tenant in self._tenants:
            batch = self._open.get(tenant)
            if batch is None:
                continue
            due = (len(batch.requests) >= self.config.batch_size
                   or self.cycle - batch.opened_cycle
                   >= self.config.batch_window)
            if not due:
                continue
            if gate is None:
                gate = self._dispatch_gate()
            if not gate:
                return  # retry every held batch next cycle
            del self._open[tenant]
            self._submit_batch(batch)

    def _submit_batch(self, batch: _Batch) -> None:
        config = self.config
        request_id = self._batch_ordinal
        self._batch_ordinal += 1
        plan = plan_offload(
            config.ports, config.ports,
            4 * len(batch.requests), mzim_size=config.ports,
            wavelengths=self.system.compute.computation_wavelengths)
        duration = (config.service_base_cycles
                    + config.service_per_request_cycles
                    * len(batch.requests))
        self.control.compute_buffer.append(ComputeRequest(
            node=batch.requests[0].node, plan=plan,
            matrix_key=f"serve/{batch.tenant}",
            submit_cycle=self.cycle,
            ports_needed=max(2, config.ports // 4),
            duration_override=duration,
            tenant=batch.tenant, request_id=request_id))
        self.control.requests_received += 1
        self._in_scheduler[request_id] = batch

    def _collect_completions(self) -> None:
        if not self.scheduler.completions:
            return
        for request_id, done_cycle in \
                self.scheduler.take_completions().items():
            batch = self._in_scheduler.pop(request_id, None)
            if batch is None:
                continue
            for arrival, submitted in zip(batch.requests,
                                          batch.submit_cycles):
                latency = done_cycle - submitted
                self._mvm_latencies.append(latency)
                self._h_mvm.observe(float(latency))
                self.completed += 1
                self._m_completed.inc()
                self._per_tenant[batch.tenant]["completed"] += 1
                self._tenant_counter(self._c_completed,
                                     "serve.tenant_completed",
                                     batch.tenant).inc()
                self.control.queue_mvm(
                    f"serve/{batch.tenant}",
                    self._vectors[batch.tenant],
                    node=arrival.node, tenant=batch.tenant)
        if self.control.pending_mvms:
            # One stacked fleet dispatch services every batch that
            # completed this cycle (DESIGN.md §14).
            self.control.flush_mvms()

    def _on_deliver(self, packet: Packet, delivered_cycle: int) -> None:
        """Per-packet completion hook from the network kernel."""
        tenant = self._packet_tenant.pop(packet.packet_id, None)
        if tenant is None:
            return
        self._h_comm.observe(float(delivered_cycle
                                   - packet.create_cycle))
        self.completed += 1
        self._m_completed.inc()
        self._per_tenant[tenant]["completed"] += 1
        self._tenant_counter(self._c_completed,
                             "serve.tenant_completed", tenant).inc()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """BOOT -> SERVING; idempotence is an error, not a no-op."""
        if self.state is not DaemonState.BOOT:
            raise RuntimeError(f"cannot start from {self.state}")
        self._sync_gauges()
        self._transition(DaemonState.SERVING,
                         f"session seed={self.config.seed} "
                         f"duration={self.config.duration}")

    def step(self) -> None:
        """One simulated cycle of the serving (or draining) loop."""
        serving = self.state is DaemonState.SERVING
        if serving:
            arrivals = self._arrival_source.requests_for_cycle(
                self.cycle)
            if self._decisions is None:
                for arrival in arrivals:
                    self._offer(arrival)
            else:
                verdicts = self._decisions.get(self.cycle, ())
                for arrival, verdict in zip(arrivals, verdicts):
                    self._offer(arrival, verdict)
            self.injector.tick(self.cycle)
        self.recovery.service(self.cycle)
        self._dispatch_due()
        self.scheduler.tick()
        self.net.step()
        self._collect_completions()
        sampler = self.obs.sampler
        offer = sampler is not None and self.cycle & 63 == 0
        if offer or not self.vectorized:
            # Gauges are only *read* at snapshot samples and at
            # finish(), and both gauges are pure functions of current
            # daemon state, so the fast slot syncs them just before a
            # snapshot offer instead of every cycle — the sampled
            # values are identical either way.
            self._sync_gauges()
        if offer:
            # Throttled snapshot offer (the sampler's interval stays
            # the sampling authority, as in SimKernel.run).
            sampler.tick(self.cycle)
        self.cycle += 1

    # -- idle fast-forward (vectorized slot only) --------------------------

    def _idle_skip(self, end: int) -> int:
        """Length of the provably no-op cycle run starting at ``cycle``.

        Returns 0 whenever the next cycle might do *anything* the
        oracle slot's :meth:`step` would do — an arrival, a fault-event
        or continuous-fault tick, a probe (every ``probe_interval``
        cycles), a batch reaching its size or age threshold (a held-due
        batch re-evaluates the dispatch gate, and so its metrics, every
        cycle), a firing snapshot offer, or any queued/active work in
        the scheduler or the network.  Otherwise every skipped cycle is
        exactly ``arbiter rotate + idle utilization + three clock
        increments``, which :meth:`_skip_cycles` replays in bulk,
        byte-identically.
        """
        cycle = self.cycle
        if not self.ladder.healthy or self.obs.tracer.enabled:
            return 0
        config = self.config
        bound = end
        # Net first: under load it is the countdown that most often
        # forbids the skip, and it is the cheaper of the two queries.
        for countdown in (self.net.quiet_countdown(),
                          self.scheduler.quiet_countdown()):
            if countdown is not None:
                if countdown <= 2:
                    return 0
                bound = min(bound, cycle + countdown - 1)
        for batch in self._open.values():
            due_cycle = batch.opened_cycle + config.batch_window
            if (len(batch.requests) >= config.batch_size
                    or due_cycle <= cycle):
                return 0
            bound = min(bound, due_cycle)
        if self.state is DaemonState.SERVING:
            if self._arrival_source.requests_for_cycle(cycle):
                return 0
            next_arrival = self._wheel.next_arrival_cycle(cycle + 1)
            if next_arrival is not None:
                bound = min(bound, next_arrival)
            next_fault = self.injector.next_due_cycle(cycle)
            if next_fault is not None:
                if next_fault <= cycle:
                    return 0
                bound = min(bound, next_fault)
        interval = config.probe_interval
        if cycle % interval == 0:
            return 0
        bound = min(bound, (cycle // interval + 1) * interval)
        sampler = self.obs.sampler
        if sampler is not None:
            # Offers happen every 64 local cycles; the sampler fires on
            # the *rebased* timeline, so translate its global due time
            # back through the shared clock before rounding up.
            local_due = sampler.clock.first_reaching(sampler.next_due)
            offer = max(cycle, local_due)
            fire = (offer + 63) & ~63
            if fire <= cycle:
                return 0
            bound = min(bound, fire)
        return max(0, bound - cycle)

    def _skip_cycles(self, cycles: int) -> None:
        """Bulk-advance ``cycles`` quiet cycles across all three clocks."""
        scheduler = self.scheduler
        if (scheduler.active or scheduler.electrical
                or scheduler.control.compute_buffer):
            scheduler.skip_quiet_cycles(cycles)
        else:
            scheduler.skip_idle_cycles(cycles)
        self.net.skip_quiet_cycles(cycles)
        self.cycle += cycles

    def _advance_until(self, end: int) -> None:
        """Vectorized loop body: fast-forward idle runs, step the rest."""
        skip = self._idle_skip(end)
        if skip > 1:
            self._skip_cycles(skip)
        else:
            self.step()

    def _drain(self) -> None:
        self._transition(DaemonState.DRAINING,
                         f"in_flight={self.in_flight}")
        deadline = self.cycle + self.config.drain_limit
        while self.cycle < deadline:
            if (self.in_flight == 0 and not self._open
                    and not self._in_scheduler
                    and self.net.quiescent()):
                break
            if self.vectorized:
                self._advance_until(deadline)
            else:
                self.step()
        else:
            self.drained = False
        self.drained = self.drained and self.in_flight == 0

    def finish(self) -> dict:
        """Drain, stop, take the final snapshot, return the report."""
        self._drain()
        self._sync_gauges()
        self._transition(DaemonState.STOPPED,
                         f"completed={self.completed}")
        if self.obs.sampler is not None:
            self.obs.sampler.sample(self.cycle)
        return self.report()

    def run(self) -> dict:
        """The whole session: start, serve, drain, report.

        The vectorized slot fast-forwards idle cycle runs here (and in
        :meth:`_drain`); :meth:`step` itself stays strictly
        single-cycle so manual drivers behave identically in both
        slots.
        """
        self.start()
        if self.vectorized:
            end = self.config.duration
            while self.cycle < end:
                self._advance_until(end)
        else:
            for _ in range(self.config.duration):
                self.step()
        return self.finish()

    # -- reporting ---------------------------------------------------------

    def report(self) -> dict:
        """Canonical session record (byte-stable under one seed)."""
        stats = self.scheduler.stats
        injected = [
            {"cycle": e.cycle, "kind": e.fault.kind,
             "params": e.fault.params()}
            for e in self.injector.injected]
        total_cycles = self.cycle
        return {
            "config": self.config.to_dict(),
            "state": self.state.value,
            "cycles": total_cycles,
            "ledger": {
                "offered": self.offered,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "in_flight": self.in_flight,
            },
            "conserved": (
                self.offered == self.admitted + self.rejected
                and self.in_flight == self.admitted - self.completed),
            "drained": self.drained,
            "per_tenant": self._per_tenant,
            "latency": {
                "mvm": percentile_summary(self._mvm_latencies),
                "comm": percentile_summary(
                    list(self.net.latency.latencies)),
            },
            "goodput_per_kcycle": (
                1000.0 * self.completed / total_cycles
                if total_cycles else 0.0),
            "scheduler": stats.to_dict(),
            "ladder": self.ladder.to_dict(),
            "final_rung": self.ladder.rung.name,
            "electrical_completions": stats.electrical_completions,
            "injected": injected,
            "detected_cycle": self.recovery.detected_cycle,
            "events": len(self.obs.events),
            "snapshots": (len(self.obs.sampler)
                          if self.obs.sampler is not None else 0),
        }
