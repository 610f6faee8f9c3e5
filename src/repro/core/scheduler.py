"""Algorithm 1: the Flumen scheduling process.

``SchedulerMain`` loops over partition evaluation periods of ``tau``
cycles.  At each period boundary the ``Partitioner`` scans the compute
request buffer; a request is granted a compute partition when the request
buffers of the nodes it would displace are under the utilization threshold
``eta`` at scan depth ``zeta``.  Completed computations return their
results through a many-to-one configuration and the partition rejoins the
communication set.

This module drives a :class:`~repro.noc.soa.SoAFlumenNetwork` (port
blocking models the partition stealing fabric bandwidth) and accounts the
compute timeline from the Table 1 parameters (6 ns programming, 5 GHz input
modulation, WDM width).

Reliability hook (DESIGN.md §12): an optional
:class:`~repro.faults.ladder.DegradationLadder` modulates Algorithm 1
when the health monitor has flagged the fabric — partition sizes are
capped (SHRINK rung), placement avoids retired ports (REROUTE rung),
and at the terminal ELECTRICAL rung the partitioner stops granting the
photonic fabric entirely, servicing every queued request on the
electrical core path instead (:func:`electrical_duration_cycles`).
With no ladder attached the scheduling path is unchanged.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.config import SystemConfig
from repro.core.accelerator import OffloadPlan
from repro.core.control_unit import ComputeRequest, MZIMControlUnit
from repro.obs import NULL_OBS, Obs
from repro.obs.snapshot import OFFER_STRIDE

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.faults.ladder import DegradationLadder
    from repro.photonics.fabric import FlumenFabric, Partition

log = logging.getLogger("repro.noc")


def compute_duration_cycles(plan: OffloadPlan,
                            system: SystemConfig) -> int:
    """Network cycles a compute partition holds the fabric for one job.

    Phase programming per matrix switch (6 ns), one input-modulation cycle
    per optical window (5 GHz against the 2.5 GHz network clock), and the
    many-to-one result return (reconfiguration plus one flit per result
    vector group).
    """
    freq = system.core.frequency_hz
    program = math.ceil(system.compute.mzim_switch_delay_s * freq)
    input_cycles = math.ceil(
        plan.optical_windows * freq / system.compute.input_modulation_hz)
    return_config = math.ceil(system.compute.comm_switch_delay_s * freq)
    return_flits = plan.block_rows * math.ceil(
        plan.vectors / plan.wavelengths)
    return (plan.matrix_switches * program
            + input_cycles
            + return_config + return_flits)


def electrical_duration_cycles(plan: OffloadPlan,
                               system: SystemConfig,
                               cores: int = 4) -> int:
    """Network cycles the electrical fallback needs for the same job.

    The terminal rung of the degradation ladder runs the offloaded MACs
    on the requesting chiplet's SIMD cores (the same cost model the
    offload policy uses for its local-vs-photonic break-even), scaled
    from core clock to network clock.
    """
    from repro.multicore.cpu import CoreModel

    core = CoreModel(system.core)
    cost = core.phase_cost(plan.macs_offloaded, 0, None, None, cores)
    return max(1, int(math.ceil(cost.total_cycles)))


def _first_fit(taken: list[bool], size: int) -> tuple[int, int] | None:
    """First-fit contiguous free fabric port range ``[lo, hi)`` of ``size``."""
    run = 0
    for p, busy in enumerate(taken):
        run = 0 if busy else run + 1
        if run == size:
            return p - size + 1, p + 1
    return None


@dataclass
class _ElectricalJob:
    """A compute request being serviced on the electrical fallback path."""

    request: ComputeRequest
    total_cycles: int
    remaining_cycles: int
    start_cycle: int


@dataclass
class ActiveComputation:
    """A compute partition currently holding fabric ports."""

    request: ComputeRequest
    lo_port: int
    hi_port: int
    total_cycles: int
    remaining_cycles: int
    started: bool = False
    grant_cycle: int = 0
    start_cycle: int = 0
    #: Mirrored photonic partition (only when the scheduler drives a
    #: :class:`~repro.photonics.fabric.FlumenFabric`).
    fabric_partition: Partition | None = None

    @property
    def ports(self) -> tuple[int, int]:
        return self.lo_port, self.hi_port


@dataclass
class SchedulerStats:
    granted: int = 0
    completed: int = 0
    deferred_evaluations: int = 0
    total_wait_cycles: int = 0
    total_drain_cycles: int = 0
    busy_port_cycles: int = 0
    #: Requests completed on the electrical fallback path (ladder rung).
    electrical_completions: int = 0

    @property
    def average_wait(self) -> float:
        return self.total_wait_cycles / self.granted if self.granted else 0.0

    def to_dict(self) -> dict:
        """JSON-ready snapshot of the Algorithm 1 counters."""
        return {
            "granted": self.granted,
            "completed": self.completed,
            "deferred_evaluations": self.deferred_evaluations,
            "total_wait_cycles": self.total_wait_cycles,
            "total_drain_cycles": self.total_drain_cycles,
            "busy_port_cycles": self.busy_port_cycles,
            "electrical_completions": self.electrical_completions,
            "average_wait": self.average_wait,
        }


class FlumenScheduler:
    """SchedulerMain + Partitioner (Algorithm 1) over a Flumen network.

    ``fabric`` optionally attaches a
    :class:`~repro.photonics.fabric.FlumenFabric` mirror: grants split
    the fabric, partition starts program the SVD circuit, completions
    configure the many-to-one result return and release the ports — so
    the photonic layer's reprogramming timeline (phase-write counts per
    event) appears in traces alongside the scheduling decisions.
    """

    def __init__(self, control_unit: MZIMControlUnit,
                 system: SystemConfig | None = None,
                 obs: Obs = NULL_OBS,
                 fabric: FlumenFabric | None = None,
                 ladder: DegradationLadder | None = None) -> None:
        self.control = control_unit
        self.system = system or control_unit.system
        self.cfg = self.system.scheduler
        self.active: list[ActiveComputation] = []
        #: Jobs running on the electrical fallback path (ELECTRICAL rung).
        self.electrical: list[_ElectricalJob] = []
        #: Optional degradation ladder (DESIGN.md §12); None = no faults.
        self.ladder = ladder
        self.stats = SchedulerStats()
        self.cycle = 0
        #: Completed request ids, with completion cycles (for callers).
        self.completions: dict[int, int] = {}
        self.obs = obs
        self._tracer = obs.tracer
        self._events = obs.events
        self._m_grants = obs.metrics.counter("core.partition_grants")
        self._m_deferrals = obs.metrics.counter("core.partition_deferrals")
        self._m_completed = obs.metrics.counter("core.partitions_completed")
        self._m_electrical = obs.metrics.counter(
            "core.electrical_fallback_jobs")
        self._h_beta = obs.metrics.histogram(
            "core.beta", bounds=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                                 0.8, 0.9, 1.0))
        self.fabric = fabric
        if fabric is not None:
            if fabric.n != control_unit.fabric_ports:
                raise ValueError(
                    f"fabric has {fabric.n} ports; control unit manages "
                    f"{control_unit.fabric_ports}")
            fabric.obs_clock = lambda: self.cycle
            # Boot state: the whole fabric is one communication partition
            # with no circuits programmed yet.
            fabric.configure_communication({})

    def _account_tenant(self, name: str, tenant: str,
                        amount: int = 1) -> None:
        """Per-tenant accounting series (grant-rate events, off hot path)."""
        self.obs.metrics.counter(name, tenant=tenant).inc(amount)

    def take_completions(self) -> dict[int, int]:
        """Drain and return completed request ids -> completion cycles.

        Batch callers read :attr:`completions` once after a run and let
        it grow; a long-lived daemon polls every cycle and must not
        accumulate an unbounded map, so this hands the current batch to
        the caller and resets the dict.  Photonic and electrical-rung
        completions both land here, so a daemon consuming this stream
        never loses an admitted request to a ladder transition.
        """
        done, self.completions = self.completions, {}
        return done

    def skip_idle_cycles(self, cycles: int) -> None:
        """:meth:`skip_quiet_cycles` for a fully idle scheduler only."""
        if self.active or self.electrical or self.control.compute_buffer:
            raise RuntimeError("skip_idle_cycles with queued or active "
                               "work would skip its lifecycle")
        self.skip_quiet_cycles(cycles)

    def quiet_countdown(self) -> int | None:
        """Cycles until the earliest in-flight completion.

        ``None``: fully idle.  ``0``: not quiet — a granted computation
        still draining its port endpoints, or a partitioner evaluation
        due this tick.  A positive ``r``: the next ``r - 1`` ticks are
        pure countdown, any strict prefix of which
        :meth:`skip_quiet_cycles` may apply.  Queued requests are inert
        between the tau-periodic evaluations, so they only bound the
        countdown at the next one.
        """
        countdown: int | None = None
        for comp in self.active:
            if not comp.started:
                return 0
            if countdown is None or comp.remaining_cycles < countdown:
                countdown = comp.remaining_cycles
        for job in self.electrical:
            if countdown is None or job.remaining_cycles < countdown:
                countdown = job.remaining_cycles
        if self.control.compute_buffer:
            phase = self.cycle % self.cfg.tau_cycles
            if phase == 0:
                return 0
            until_eval = self.cfg.tau_cycles - phase + 1
            if countdown is None or until_eval < countdown:
                countdown = until_eval
        return countdown

    def skip_quiet_cycles(self, cycles: int) -> None:
        """Advance ``cycles`` pure-countdown cycles in one bulk step.

        Legal when every active computation has started and
        ``cycles < quiet_countdown()``.  Each such tick only decrements
        the in-flight jobs and accrues busy-port cycles, so the bulk
        step is byte-equivalent to ``cycles`` ticks; it raises rather
        than skip a completion, evaluation or drain.
        """
        if cycles <= 0:
            return
        if self.control.compute_buffer:
            phase = self.cycle % self.cfg.tau_cycles
            if phase == 0 or phase + cycles > self.cfg.tau_cycles:
                raise RuntimeError("skip_quiet_cycles across a "
                                   "partitioner evaluation would stall "
                                   "queued work")
        for comp in self.active:
            if not comp.started:
                raise RuntimeError("skip_quiet_cycles before a "
                                   "computation starts would skip its "
                                   "drain accounting")
            if comp.remaining_cycles <= cycles:
                raise RuntimeError("skip_quiet_cycles across a "
                                   "completion would skip its lifecycle")
        for job in self.electrical:
            if job.remaining_cycles <= cycles:
                raise RuntimeError("skip_quiet_cycles across a "
                                   "completion would skip its lifecycle")
        for comp in self.active:
            comp.remaining_cycles -= cycles
            self.stats.busy_port_cycles += \
                cycles * (comp.hi_port - comp.lo_port)
        for job in self.electrical:
            job.remaining_cycles -= cycles
        self.cycle += cycles

    # -- Algorithm 1, lines 19-28 ---------------------------------------

    def _partitioner(self) -> None:
        """Scan the compute buffer once, granting partitions buffers allow.

        Two facts hold for the whole pass: grants only ever take ports,
        and nothing the pass does touches the request buffers β reads
        (``block_ports`` and the fabric mirror change neither).  So the
        free-port map is built once and marked per grant, a size whose
        first-fit scan failed defers every later request that large or
        larger, placements are found once per size between grants, and
        β is memoised per placement.  Each request still gets its own
        event, histogram sample and tracer instants, in buffer order;
        the deferrals between two grants are counted and appended to the
        event log as one run (DESIGN.md §13).
        """
        if self.ladder is not None and self.ladder.electrical_fallback:
            self._fallback_to_electrical()
            return
        network = self.control.network
        taken = self._taken_ports()
        # First-fit placement per ports_needed, valid until a grant.
        placements: dict[int, tuple[int, int] | None] = {}
        # Smallest effective size whose first-fit scan failed.
        no_fit = len(taken) + 1
        betas: dict[tuple[int, int], float] = {}
        kept: list[ComputeRequest] = []
        # partition_defer rows of the current run of deferrals.
        defers: list[tuple[str, int, dict]] = []
        for request in self.control.compute_buffer:
            need = request.ports_needed
            if need in placements:
                placement = placements[need]
            else:
                size = self._effective_ports(need)
                placement = (_first_fit(taken, size) if size < no_fit
                             else None)
                if placement is None:
                    no_fit = min(no_fit, size)
                placements[need] = placement
            if placement is None:
                payload = {"reason": "no_ports", "ports_needed": need}
                if self._tracer.enabled:
                    self._tracer.instant(
                        "core", "alg1", "partition_defer", self.cycle,
                        request_id=request.request_id, **payload)
            else:
                lo, hi = placement
                beta = betas.get(placement)
                if beta is None:
                    beta = betas[placement] = network.buffer_utilization(
                        sorted(self.control.port_range_endpoints(lo, hi)),
                        scan_depth=self.cfg.zeta)
                granted = beta <= self.cfg.eta
                self._h_beta.observe(beta)
                if self._tracer.enabled:
                    self._tracer.instant(
                        "core", "alg1", "beta_eval", self.cycle,
                        request_id=request.request_id, beta=round(beta, 6),
                        eta=self.cfg.eta, zeta=self.cfg.zeta,
                        granted=granted)
                if granted:
                    taken[lo:hi] = [True] * (hi - lo)
                    placements.clear()
                    self._end_deferral_run(defers)
                    self._grant(request, lo, hi, beta)
                    continue
                payload = {"reason": "beta", "beta": round(beta, 6),
                           "eta": self.cfg.eta}
            kept.append(request)
            defers.append((request.tenant, request.request_id, payload))
        self._end_deferral_run(defers)
        self.control.compute_buffer.clear()
        self.control.compute_buffer.extend(kept)

    def _taken_ports(self) -> list[bool]:
        """Per fabric port: held by an active partition or retired.

        Ports the degradation ladder has retired (dead-link endpoints)
        are never part of a placement.
        """
        taken = [False] * self.control.fabric_ports
        for comp in self.active:
            taken[comp.lo_port:comp.hi_port] = \
                [True] * (comp.hi_port - comp.lo_port)
        if self.ladder is not None:
            for p in self.ladder.unusable_ports:
                if 0 <= p < len(taken):
                    taken[p] = True
        return taken

    def _end_deferral_run(self, defers: list[tuple[str, int, dict]]
                          ) -> None:
        """Account a run of deferred evaluations (the requests stay
        queued) and append its ``partition_defer`` rows as one batch.
        """
        if defers:
            self.stats.deferred_evaluations += len(defers)
            self._m_deferrals.inc(len(defers))
            self._events.emit_many("partition_defer", self.cycle, defers)
            defers.clear()

    def _grant(self, request: ComputeRequest, lo: int, hi: int,
               beta: float) -> None:
        """Start a compute partition on ports ``[lo, hi)`` for ``request``.

        The caller drops the request from the compute buffer.
        """
        endpoints = self.control.port_range_endpoints(lo, hi)
        self.control.network.block_ports(endpoints)
        duration = (request.duration_override
                    if request.duration_override is not None
                    else compute_duration_cycles(request.plan, self.system))
        comp = ActiveComputation(
            request=request, lo_port=lo, hi_port=hi,
            total_cycles=duration, remaining_cycles=duration,
            grant_cycle=self.cycle)
        if self.fabric is not None:
            comp.fabric_partition = self.fabric.split(lo, hi)
        self.active.append(comp)
        self.stats.granted += 1
        self._m_grants.inc()
        wait = self.cycle - request.submit_cycle
        self.stats.total_wait_cycles += wait
        self._account_tenant("core.tenant_partition_grants", request.tenant)
        self._account_tenant("core.tenant_wait_cycles", request.tenant, wait)
        if self._events.enabled:
            self._events.emit(
                "partition_grant", self.cycle, tenant=request.tenant,
                request_id=request.request_id, lo_port=lo, hi_port=hi,
                beta=round(beta, 6), wait_cycles=wait, duration=duration)
        if self._tracer.enabled:
            self._tracer.instant(
                "core", "alg1", "mzim_block", self.cycle,
                request_id=request.request_id, lo_port=lo, hi_port=hi,
                endpoints=sorted(endpoints))

    def _effective_ports(self, ports_needed: int) -> int:
        """Partition size after the ladder's SHRINK cap (even, >= 2)."""
        if self.ladder is None:
            return ports_needed
        capped = min(ports_needed, self.ladder.partition_ports_cap)
        capped -= capped % 2
        return max(2, capped)

    def _fallback_to_electrical(self) -> None:
        """ELECTRICAL rung: drain the buffer onto the core-side path.

        No fabric ports are blocked and no photonic partitions are
        programmed, so communication traffic keeps flowing (and packet
        conservation holds) while compute requests are serviced
        electrically.
        """
        rows: list[tuple[str, int, dict]] = []
        for request in self.control.compute_buffer:
            duration = electrical_duration_cycles(request.plan, self.system)
            self.electrical.append(_ElectricalJob(
                request=request, total_cycles=duration,
                remaining_cycles=duration, start_cycle=self.cycle))
            self._m_electrical.inc()
            self._account_tenant("core.tenant_electrical_jobs",
                                 request.tenant)
            rows.append((request.tenant, request.request_id,
                         {"node": request.node, "duration": duration}))
            if self._tracer.enabled:
                self._tracer.instant(
                    "core", "faults", "electrical_fallback", self.cycle,
                    request_id=request.request_id, node=request.node,
                    duration=duration)
        self.control.compute_buffer.clear()
        self._events.emit_many("electrical_fallback", self.cycle, rows)

    # -- Algorithm 1, lines 1-18 -----------------------------------------

    def tick(self) -> None:
        """Advance the scheduler one network cycle.

        The caller steps the underlying network itself; this method manages
        the partition lifecycle around it.
        """
        # done(a) checks (lines 6-11).
        network = self.control.network
        still_active: list[ActiveComputation] = []
        for comp in self.active:
            if not comp.started:
                endpoints = self.control.port_range_endpoints(*comp.ports)
                if network.ports_clear(endpoints):
                    comp.started = True
                    comp.start_cycle = self.cycle
                    if comp.fabric_partition is not None:
                        size = comp.hi_port - comp.lo_port
                        self.fabric.program_compute(
                            comp.fabric_partition, np.eye(size))
                else:
                    self.stats.total_drain_cycles += 1
                    still_active.append(comp)
                    continue
            comp.remaining_cycles -= 1
            self.stats.busy_port_cycles += comp.hi_port - comp.lo_port
            if comp.remaining_cycles <= 0:
                endpoints = self.control.port_range_endpoints(*comp.ports)
                network.unblock_ports(endpoints)
                self._complete(comp.request, comp.grant_cycle,
                               lo_port=comp.lo_port, hi_port=comp.hi_port,
                               drain_cycles=comp.start_cycle
                               - comp.grant_cycle)
                self._account_tenant("core.tenant_busy_port_cycles",
                                     comp.request.tenant,
                                     comp.total_cycles
                                     * (comp.hi_port - comp.lo_port))
                if comp.fabric_partition is not None:
                    self.fabric.configure_gather(
                        comp.fabric_partition, comp.lo_port)
                    self.fabric.release(comp.fabric_partition)
                    comp.fabric_partition = None
                if self._tracer.enabled:
                    self._tracer.instant(
                        "core", "alg1", "mzim_unblock", self.cycle,
                        request_id=comp.request.request_id,
                        endpoints=sorted(endpoints))
                    self._tracer.complete(
                        "core", "partitions", "partition",
                        comp.grant_cycle, self.cycle,
                        request_id=comp.request.request_id,
                        lo_port=comp.lo_port, hi_port=comp.hi_port,
                        drain_cycles=comp.start_cycle - comp.grant_cycle)
            else:
                still_active.append(comp)
        self.active = still_active

        # Electrical fallback jobs progress independently of the fabric.
        still_electrical: list[_ElectricalJob] = []
        for job in self.electrical:
            job.remaining_cycles -= 1
            if job.remaining_cycles <= 0:
                self.stats.electrical_completions += 1
                self._complete(job.request, job.start_cycle,
                               electrical=True)
                if self._tracer.enabled:
                    self._tracer.complete(
                        "core", "partitions", "electrical_job",
                        job.start_cycle, self.cycle,
                        request_id=job.request.request_id,
                        node=job.request.node)
            else:
                still_electrical.append(job)
        self.electrical = still_electrical

        # Partition evaluation every tau cycles (lines 3-5).
        if self.cycle % self.cfg.tau_cycles == 0:
            self._partitioner()
        self.cycle += 1

    def _complete(self, request: ComputeRequest, since: int, *,
                  lo_port: int = -1, hi_port: int = -1,
                  drain_cycles: int = 0, electrical: bool = False) -> None:
        """Book one finished request, photonic or electrical (ports -1):
        stats, completions, its tenant's count, ``partition_complete``."""
        self.stats.completed += 1
        self._m_completed.inc()
        self.completions[request.request_id] = self.cycle
        self._account_tenant("core.tenant_partitions_completed",
                             request.tenant)
        if self._events.enabled:
            self._events.emit(
                "partition_complete", self.cycle, tenant=request.tenant,
                request_id=request.request_id, duration=self.cycle - since,
                lo_port=lo_port, hi_port=hi_port, drain_cycles=drain_cycles,
                **({"electrical": True} if electrical else {}))

    # -- the co-simulation driver -----------------------------------------

    def run(self, cycles: int, traffic=None, *, before_tick=None,
            after_step=None, next_due=None) -> None:
        """Co-simulate scheduler + network for ``cycles`` cycles.

        The one loop alternating :meth:`tick` with the network's step
        (DESIGN.md §11): per cycle ``c``, ``traffic``'s packets,
        ``before_tick(c)``, tick, step, ``after_step(c)`` and a sampler
        offer every :data:`OFFER_STRIDE` cycles.  With the tracer off,
        idle runs are skipped byte-identically while the network is
        quiescent (``network.skip_idle_cycles``, the same skip as trace
        playback) and the scheduler only counts down
        (:meth:`skip_quiet_cycles`), up to the next event —
        ``next_due(c)``, the first cycle ``>= c`` the hooks act on, and
        the traffic's ``next_event_cycle`` (required, as is ``next_due``
        with hooks).
        """
        network = self.control.network
        with network.running() as stamp_stepped:
            self._drive(network.cycle + cycles, traffic, before_tick,
                        after_step, next_due, stamp_stepped)

    def drain(self, max_cycles: int = 100_000, *, before_tick=None,
              after_step=None, next_due=None, pending=None) -> bool:
        """Run :meth:`run`'s loop until the stack is idle.

        ``pending()`` reports work the caller holds outside it.  Returns
        True when the stack was idle before ``max_cycles`` ran out; a
        budget that runs out on a busy stack warns on ``repro.noc``.
        """
        network = self.control.network
        with network.running() as stamp_stepped:
            if self._drive(network.cycle + max_cycles, None, before_tick,
                           after_step, next_due, stamp_stepped,
                           idle=lambda: not self._busy(pending)):
                return True
            if self._busy(pending):
                log.warning(
                    "%s: drain budget of %d cycles exhausted with %d "
                    "flits queued and %d compute requests unfinished; "
                    "results cover a busy stack", network.name,
                    max_cycles, network.total_queued_flits(),
                    len(self.active) + len(self.electrical)
                    + len(self.control.compute_buffer))
            return False

    def _busy(self, pending) -> bool:
        return bool(self.active or self.electrical
                    or self.control.compute_buffer
                    or not self.control.network.quiescent()
                    or (pending is not None and pending()))

    def _drive(self, end: int, traffic, before_tick, after_step, next_due,
               stamp_stepped: bool, idle=None) -> bool:
        """Advance to cycle ``end``; a drain passes ``idle()`` and stops
        early, returning True, once it holds."""
        network = self.control.network
        # The offer after stepping c is stamped c + lag; the reached-cycle
        # convention (lag 1) offers nothing while draining.
        lag = 0 if stamp_stepped else 1
        sampler = None if idle is not None and lag else self.obs.sampler
        playback = getattr(traffic, "next_event_cycle", None)
        # Hooks are skipped over only where next_due says they are idle.
        skippable = (not self._tracer.enabled
                     and (traffic is None or playback is not None)
                     and (next_due is not None
                          or (before_tick is None and after_step is None)))
        dues = [due for due in (next_due, playback) if due is not None]
        while network.cycle < end:
            if idle is not None and idle():
                return True
            cycle = network.cycle
            # Only a quiescent network is skipped; under load this is
            # what most often forbids the skip, so it is checked first.
            if skippable and network.quiescent():
                skip = self._quiet_cycles(cycle, end, dues, sampler, lag)
                if skip > 1:
                    # An idle scheduler's quiet skip is its idle skip.
                    self.skip_quiet_cycles(skip)
                    network.skip_idle_cycles(skip)
                    # A skip stops where a cycle must be stepped (or at
                    # the end), so that cycle steps without asking again.
                    cycle += skip
                    if cycle == end:
                        break
            if traffic is not None:
                for packet in traffic.packets_for_cycle(cycle):
                    network.offer_packet(packet)
            if before_tick is not None:
                before_tick(cycle)
            self.tick()
            network.step()
            if after_step is not None:
                after_step(cycle)
            if sampler is not None and (cycle + lag) % OFFER_STRIDE == 0:
                sampler.tick(cycle + lag)
        return False

    def _quiet_cycles(self, cycle: int, end: int, dues, sampler,
                      lag: int) -> int:
        """Length of the provably idle run of cycles from ``cycle``,
        given a quiescent network."""
        bound = end
        countdown = self.quiet_countdown()
        if countdown is not None:
            if countdown <= 2:
                return 0
            bound = min(bound, cycle + countdown - 1)
        for due in dues:
            nxt = due(cycle)
            if nxt is not None:
                if nxt <= cycle:
                    return 0
                bound = min(bound, nxt)
        # Stop short of the next firing offer; offers that cannot fire
        # may be skipped.  The sampler fires on the rebased timeline, so
        # its global due time goes back through the shared clock.
        if sampler is not None and bound > (
                -(-(cycle + lag) // OFFER_STRIDE) * OFFER_STRIDE - lag):
            due = max(sampler.clock.first_reaching(sampler.next_due),
                      cycle + lag)
            bound = min(bound,
                        -(-due // OFFER_STRIDE) * OFFER_STRIDE - lag)
        return bound - cycle
