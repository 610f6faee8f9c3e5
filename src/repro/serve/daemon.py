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

Every request transition is written once, into the session's
:class:`~repro.serve.ledger.Ledger`, from which the report and the
``serve.*`` counters derive.  The report's ``conserved`` checks::

    offered == admitted + rejected
    in_flight == requests held in batches and undelivered packets

and the hypothesis suite checks the counters at every snapshot.
"""

from __future__ import annotations

import dataclasses
import enum
from collections.abc import Callable
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.analysis.engine import point_seed
from repro.config import DeviceParams, SystemConfig
from repro.core.accelerator import BlockMatmul, plan_offload
from repro.core.control_unit import ComputeRequest, MZIMControlUnit
from repro.core.scheduler import FlumenScheduler
from repro.faults.ladder import BackoffPolicy
from repro.faults.models import FAULTS
from repro.faults.recovery import GEOMETRY_RULES, FabricRecovery
from repro.noc.packet import Packet
from repro.noc.soa import SoAFlumenNetwork
from repro.obs import Obs
from repro.obs.snapshot import OFFER_STRIDE
from repro.serve.admission import AdmissionController, precompute_decisions
from repro.serve.arrivals import (
    ARRIVALS,
    Arrival,
    ClientPopulation,
    check_rate,
)
from repro.serve.ledger import FIELDS, KINDS, Ledger

#: Latency histogram buckets, in cycles (shared by mvm and comm series).
LATENCY_BOUNDS = (8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
                  1024.0, 2048.0, 4096.0)


#: Numeric :class:`ServeConfig` fields and derived sizes: name ->
#: (valid?, rule text).  Checked at construction, so a bad value never
#: reaches a pool worker.
_FIELD_RULES: dict[str, tuple[Callable[[Any], bool], str]] = {
    **GEOMETRY_RULES,
    "batch_size": (lambda v: v >= 1, ">= 1"),
    "batch_window": (lambda v: v >= 1, ">= 1"),
    "mvm_fraction": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "admission_rate": (lambda v: v > 0.0, "> 0"),
    "admission_burst": (lambda v: v >= 1.0, ">= 1"),
    "probe_interval": (lambda v: v >= 1, ">= 1"),
    "snapshot_interval": (lambda v: v >= 1, ">= 1"),
    "packet_flits": (lambda v: v >= 1, ">= 1"),
    "drain_limit": (lambda v: v >= 0, ">= 0"),
    "max_events": (lambda v: v is None or v >= 1, ">= 1 or None"),
}


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
        # An unknown arrival name raises listing the known ones.
        check_rate(self.rate, ARRIVALS.get(self.arrival)())
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
        for name, (valid, rule) in _FIELD_RULES.items():
            value = getattr(self, name)
            if not valid(value):
                raise ValueError(f"{name} must be {rule}, got {value}")
        if self.fault is not None:
            FAULTS.get(self.fault)  # raises with the registered list

    @property
    def partition_ports(self) -> int:
        """Fabric ports each dispatched batch asks for."""
        return max(2, self.ports // 4)

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


class _ServeNetwork(SoAFlumenNetwork):
    """Flumen network that surfaces per-packet delivery to the daemon.

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

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.obs = Obs.telemetry(
            snapshot_interval=config.snapshot_interval,
            max_events=config.max_events)
        self.state = DaemonState.BOOT
        self.system = SystemConfig()
        self.devices = DeviceParams()
        self.recovery = FabricRecovery(
            ports=config.ports, nodes=config.nodes,
            seed=point_seed(config.seed, "serve/recovery"),
            rng=np.random.default_rng(
                point_seed(config.seed, "serve/fabric")),
            fault=config.fault,
            magnitude=config.fault_magnitude,
            window_cycles=config.duration,
            fault_seed=point_seed(config.seed, "serve/faults"),
            backoff=config.backoff, probe_interval=config.probe_interval,
            devices=self.devices, obs=self.obs)
        self.ladder = self.recovery.ladder
        self.net = _ServeNetwork(config.nodes, obs=self.obs)
        self.net.on_deliver = self._on_deliver
        self.control = MZIMControlUnit(self.net, self.system, obs=self.obs)
        self.scheduler = FlumenScheduler(self.control, self.system,
                                         obs=self.obs)
        self.recovery.attach(self.scheduler)
        self.population = ClientPopulation(
            config.tenant_names(), ARRIVALS.get(config.arrival)(),
            config.rate, config.mvm_fraction, config.nodes,
            config.seed)
        self.admission = AdmissionController(
            config.admission_rate, config.admission_burst)
        #: The session's one record of request counts and latencies.
        self.ledger = Ledger(config.tenant_names())
        self.drained = True
        #: Hooks of the session's co-simulation loop.
        self._loop = {"before_tick": self._before_tick,
                      "after_step": self._after_step,
                      "next_due": self._next_due}
        self._session = ExitStack()
        self._open: dict[str, _Batch] = {}
        self._in_scheduler: dict[int, _Batch] = {}
        self._batch_ordinal = 0
        self._packet_tenant: dict[int, str] = {}
        metrics = self.obs.metrics
        # The ledger's counts as counters, written at each sync; a
        # tenant's series appears once its count is non-zero.
        self._counters = {f: metrics.counter(f"serve.{f}") for f in FIELDS}
        self._tenant_counters: dict[tuple[str, str], object] = {}
        self._g_in_flight = metrics.gauge("serve.in_flight")
        self._g_open_batches = metrics.gauge("serve.open_batches")
        #: The telemetry view of the ledger's latencies, bucketed.
        self._h_latency = {kind: metrics.histogram(
            "serve.latency_cycles", bounds=LATENCY_BOUNDS, kind=kind)
            for kind in KINDS}
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
        # The whole arrival schedule is drawn up front (the wheel) and
        # its admission verdicts replayed through ``self.admission``,
        # and the loop fast-forwards provably idle cycles.
        # ``tests/reference_serve.py`` holds the per-cycle loop every
        # artifact is byte-compared against.
        self._wheel = self.population.prebuild(config.duration)
        self._decisions = precompute_decisions(self._wheel,
                                               self.admission)

    # -- accounting --------------------------------------------------------

    @property
    def cycle(self) -> int:
        """The session's simulated clock (the scheduler's)."""
        return self.scheduler.cycle

    @property
    def in_flight(self) -> int:
        """Admitted requests not yet completed, by the ledger."""
        return self.ledger.totals()["in_flight"]

    def held(self) -> int:
        """Admitted requests the serving structures hold: open batches,
        batches in the scheduler and undelivered packets."""
        return (sum(len(b.requests) for b in self._open.values())
                + sum(len(b.requests) for b in self._in_scheduler.values())
                + len(self._packet_tenant))

    def _sync_metrics(self) -> None:
        """Write the ledger's counts and the gauges into the registry.

        Snapshots are the only readers between syncs, so a sync before
        each snapshot offer and one at :meth:`finish` keep every
        snapshot exact.
        """
        totals, series = self.ledger.totals(), self._tenant_counters
        for name, counter in self._counters.items():
            counter.value = totals[name]
        for tenant, row in self.ledger.rows.items():
            for name in FIELDS[1:]:
                if row[name]:
                    if (name, tenant) not in series:
                        series[name, tenant] = self.obs.metrics.counter(
                            f"serve.tenant_{name}", tenant=tenant)
                    series[name, tenant].value = row[name]
        self._g_in_flight.set(float(totals["in_flight"]))
        self._g_open_batches.set(float(len(self._open)))

    def _transition(self, dst: DaemonState, reason: str) -> None:
        src, self.state = self.state, dst
        self.obs.events.emit("serve_transition", self.cycle,
                             src=src.value, dst=dst.value,
                             reason=reason)

    # -- request intake ----------------------------------------------------

    def _offer(self, arrival: Arrival, admit: bool) -> None:
        """Offer one arrival with its admission verdict."""
        row = self.ledger.rows[arrival.tenant]
        row["offered"] += 1
        if not admit:
            row["rejected"] += 1
            self.obs.events.emit("admission_reject", self.cycle,
                                 tenant=arrival.tenant,
                                 kind=arrival.kind)
            return
        row["admitted"] += 1
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
            ports_needed=config.partition_ports,
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
            self.ledger.rows[batch.tenant]["completed"] += len(
                batch.requests)
            for arrival, submitted in zip(batch.requests,
                                          batch.submit_cycles):
                latency = done_cycle - submitted
                self.ledger.observe("mvm", latency)
                self._h_latency["mvm"].observe(float(latency))
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
        latency = delivered_cycle - packet.create_cycle
        self.ledger.rows[tenant]["completed"] += 1
        self.ledger.observe("comm", latency)
        self._h_latency["comm"].observe(float(latency))

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """BOOT -> SERVING; idempotence is an error, not a no-op.

        Opens the session's one network run, which :meth:`finish` closes.
        """
        if self.state is not DaemonState.BOOT:
            raise RuntimeError(f"cannot start from {self.state}")
        self._session.enter_context(self.net.running(stamp_stepped=True))
        self._sync_metrics()
        self._transition(DaemonState.SERVING,
                         f"session seed={self.config.seed} "
                         f"duration={self.config.duration}")

    def step(self) -> None:
        """One simulated cycle of the serving (or draining) loop."""
        self.scheduler.run(1, **self._loop)

    def _before_tick(self, cycle: int) -> None:
        if self.state is DaemonState.SERVING:
            for arrival, admit in self._arrivals(cycle):
                self._offer(arrival, admit)
            self.recovery.injector.tick(cycle)
        self.recovery.service(cycle)
        self._dispatch_due()

    def _after_step(self, cycle: int) -> None:
        self._collect_completions()
        if cycle % OFFER_STRIDE == 0:
            # Counters and gauges are only read by snapshots (and at
            # finish()), so they are synced before each snapshot offer.
            self._sync_metrics()

    def _arrivals(self, cycle: int):
        """``(arrival, admitted)`` pairs offered at ``cycle``."""
        return zip(self._wheel.requests_for_cycle(cycle),
                   self._decisions.get(cycle, ()))

    def _next_due(self, cycle: int) -> int | None:
        """First cycle ``>= cycle`` at which the loop hooks may act.

        The earliest of recovery's next action (probe, ladder, or fault
        tick while serving), an arrival, or a batch reaching its size or
        age threshold (a held-due batch re-evaluates the dispatch gate,
        and so its metrics, every cycle).
        """
        config = self.config
        serving = self.state is DaemonState.SERVING
        # An arrival now is the commonest answer under load, and the
        # cheapest to find.
        if serving and self._wheel.requests_for_cycle(cycle):
            return cycle
        due = self.recovery.next_due(cycle, injecting=serving)
        for batch in self._open.values():
            if len(batch.requests) >= config.batch_size:
                return cycle
            due = min(due, batch.opened_cycle + config.batch_window)
        if serving:
            nxt = self._wheel.next_arrival_cycle(cycle + 1)
            if nxt is not None:
                due = min(due, nxt)
        return due

    def finish(self) -> dict:
        """Drain, stop, take the final snapshot, return the report."""
        self._transition(DaemonState.DRAINING,
                         f"in_flight={self.in_flight}")
        drained = self.scheduler.drain(
            self.config.drain_limit, **self._loop,
            pending=lambda: bool(self._open or self._in_scheduler
                                 or self._packet_tenant))
        self.drained = drained and self.in_flight == 0
        self._session.close()
        self._sync_metrics()
        self._transition(DaemonState.STOPPED,
                         f"completed={self.ledger.totals()['completed']}")
        self.obs.sampler.sample(self.cycle)
        return self.report()

    def run(self) -> dict:
        """The whole session: start, serve, drain, report.

        Idle cycle runs are fast-forwarded here (and in the drain);
        :meth:`step` itself stays strictly single-cycle, so a manual
        driver gets the same report.
        """
        self.start()
        self.scheduler.run(self.config.duration - self.cycle, **self._loop)
        return self.finish()

    # -- reporting ---------------------------------------------------------

    def report(self) -> dict:
        """Canonical session record (byte-stable under one seed)."""
        stats = self.scheduler.stats
        total_cycles = self.cycle
        books = self.ledger.render(self.held())
        return {
            "config": self.config.to_dict(),
            "state": self.state.value,
            "cycles": total_cycles,
            **books,
            "drained": self.drained,
            "goodput_per_kcycle": (
                1000.0 * books["ledger"]["completed"] / total_cycles
                if total_cycles else 0.0),
            "scheduler": stats.to_dict(),
            **self.recovery.report(),
            "electrical_completions": stats.electrical_completions,
            "events": len(self.obs.events),
            "snapshots": len(self.obs.sampler),
        }
