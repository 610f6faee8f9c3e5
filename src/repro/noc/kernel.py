"""Shared simulation kernel for every NoP network backend.

The three cycle simulators (electrical wormhole :class:`Network`, the
shared optical bus, and the Flumen MZIM crossbar) all drive the same
machinery: packets are offered into per-backend queues, flits are
ejected and sampled into :class:`~repro.noc.stats.LatencyStats`, the
``run()`` loop interleaves traffic injection with ``step()`` and an
optional quiescence drain, link utilization flushes per interval into
the tracer, and ``result()`` packages the counters.  That machinery
lives here, once; a backend subclass carries only its routing and
arbitration logic:

* ``_enqueue(packet)`` — admit one packet into backend buffering,
* ``step()`` — advance the backend one cycle,
* ``quiescent()`` / ``total_queued_flits()`` — drain bookkeeping.

Only the struct-of-arrays backends (:mod:`repro.noc.soa`) are registered
in :mod:`repro.noc.registry`; the per-object ``Network``, ``OptBusNetwork``
and ``FlumenNetwork`` are the oracles tests pin them against.  Adding a
topology means subclassing :class:`SimKernel`, implementing the four
hooks and registering a factory.  Two optional hooks let a backend
fast-forward trace playback: ``_skip_idle`` (quiescent stretches) and
``_forward_period`` (a busy period, from the offers that wake a
quiescent network back to quiescence).  Every skip goes through
:meth:`SimKernel.skip_idle_cycles`, which refuses a network that is not
quiescent; the co-simulation driver skips through it too.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager

from repro.noc.packet import Packet
from repro.noc.stats import LatencyStats, SimulationResult, UtilizationTracker
from repro.obs import NULL_OBS, Obs
from repro.obs.snapshot import OFFER_STRIDE

log = logging.getLogger("repro.noc")


class SimKernel:
    """Common offer/run/drain/measure machinery for a NoP backend.

    Subclasses set ``name`` (used for metric labels, energy dispatch,
    and :meth:`result`), implement the four backend hooks, and account
    traffic into ``flit_hops`` / ``link_traversals`` from ``step()``.
    """

    #: Backend name; subclasses override (or pass ``name`` to init).
    name = "kernel"

    def __init__(self, name: str, num_links: int,
                 utilization_interval: int = 100,
                 obs: Obs = NULL_OBS) -> None:
        self.name = name
        self.cycle = 0
        self.latency = LatencyStats()
        self.utilization = UtilizationTracker(
            num_links=max(num_links, 1),
            interval_cycles=utilization_interval)
        self.injected_packets = 0
        self.flit_hops = 0
        self.link_traversals = 0
        self.obs = obs
        self._tracer = obs.tracer
        self._sampler = obs.sampler
        metrics = obs.metrics
        self._m_injected = metrics.counter("noc.packets_injected",
                                           topology=name)
        self._m_delivered = metrics.counter("noc.packets_delivered",
                                            topology=name)
        self._h_latency = metrics.histogram("noc.packet_latency_cycles",
                                            topology=name)
        self._sample_end = 0
        #: The open run's stamp convention; None while no run is open.
        self._run_stamp: bool | None = None
        if self._tracer.enabled:
            tracer = self._tracer
            interval = utilization_interval

            def _flush_to_trace(index: int, fraction: float) -> None:
                tracer.counter("noc", "links", "link_busy_fraction",
                               (index + 1) * interval, busy=fraction)
            self.utilization.on_flush = _flush_to_trace

    # -- backend hooks ---------------------------------------------------

    def _enqueue(self, packet: Packet) -> None:
        """Admit one offered packet into the backend's buffering."""
        raise NotImplementedError

    def step(self) -> None:
        """Advance the network one cycle."""
        raise NotImplementedError

    def quiescent(self) -> bool:
        """True when no flit remains anywhere in the network."""
        raise NotImplementedError

    def total_queued_flits(self) -> int:
        """Flits resident in any queue, buffer, or in-flight structure."""
        raise NotImplementedError

    # -- idle fast-forward ------------------------------------------------

    #: Backends whose quiescent ``step()`` provably touches nothing but
    #: the cycle counter, utilization intervals, and (backend-declared)
    #: arbiter rotation set this True and implement :meth:`_skip_idle`.
    _supports_idle_skip = False

    def _skip_idle(self, idle_cycles: int) -> None:
        """Apply ``idle_cycles`` of quiescent stepping in one jump.

        Must leave the backend in exactly the state ``idle_cycles``
        plain ``step()`` calls with no traffic would — including any
        per-cycle arbiter rotation the backend performs while idle.
        Reached only through :meth:`skip_idle_cycles`, so the network is
        quiescent.
        """
        raise NotImplementedError

    def _advance_idle(self, idle_cycles: int) -> None:
        """Kernel-side bookkeeping shared by every ``_skip_idle``."""
        self.cycle += idle_cycles
        self.utilization.record_idle_cycles(idle_cycles)

    def skip_idle_cycles(self, cycles: int) -> None:
        """Advance a quiescent network ``cycles`` cycles in one jump.

        The one network-side skip: :meth:`run`'s trace playback and the
        co-simulation driver (``FlumenScheduler.run``) both come here.
        It raises, leaving the network untouched, unless
        :meth:`quiescent` holds — a buffered source, a circuit in setup
        or transfer, or a pending grant is always stepped.
        """
        if not self.quiescent():
            raise RuntimeError("skip_idle_cycles on a non-quiescent "
                               "network would drop in-flight work")
        self._skip_idle(cycles)

    def _skip_to_next_event(self, traffic, remaining: int) -> int:
        """Skip a quiescent network to the next event; return the cycles."""
        nxt = traffic.next_event_cycle(self.cycle)
        idle = remaining if nxt is None else min(remaining, nxt - self.cycle)
        if idle <= 0:
            return 0
        self.skip_idle_cycles(idle)
        return idle

    # -- busy-period fast-forward ----------------------------------------

    def _forward_period(self, traffic, offered: list[Packet],
                        remaining: int, drain_budget: int) -> int:
        """Carry the busy period ``offered`` starts at a quiescent network.

        ``offered`` is this cycle's packets, not yet offered; ``traffic``
        supplies the later ones; ``remaining`` cycles are left in the run
        window and ``drain_budget`` after it.  A backend may take the
        period over: offer ``offered`` (and every later packet the run
        loop would offer), advance up to ``remaining + drain_budget``
        cycles — leaving exactly the state as many ``step()`` calls
        would, sampler ticks included (:meth:`_sample_stepped`) — and
        return how many it advanced.  0 declines without offering, and
        :meth:`run` offers and steps the cycle as usual.  The base kernel
        declines.
        """
        return 0

    def _sample_stepped(self, first: int, last: int) -> None:
        """Tick the sampler as stepping to cycles ``first..last`` would.

        The run loop ticks after each step that lands on a multiple of
        :data:`OFFER_STRIDE`, up to the end of the run window; the drain
        loop never ticks.
        """
        if self._sampler is None:
            return
        last = min(last, self._sample_end)
        for cycle in range(-(-first // OFFER_STRIDE) * OFFER_STRIDE,
                           last + 1, OFFER_STRIDE):
            self._sampler.tick(cycle)

    # -- traffic ---------------------------------------------------------

    def offer_packet(self, packet: Packet) -> None:
        """Queue a packet at its source and account the injection."""
        self._enqueue(packet)
        self.injected_packets += 1
        self._m_injected.inc()

    # -- measurement -----------------------------------------------------

    def _deliver(self, packet: Packet, delivered_cycle: int,
                 track: str, **trace_args: object) -> None:
        """Sample one completed packet: latency, metrics, lifecycle span."""
        self.latency.record(packet.create_cycle, delivered_cycle,
                            packet.size_flits)
        self._m_delivered.inc()
        self._h_latency.observe(delivered_cycle - packet.create_cycle)
        if self._tracer.enabled:
            self._tracer.complete(
                "noc", track, "packet",
                packet.create_cycle, delivered_cycle,
                src=packet.src, dst=packet.dst,
                flits=packet.size_flits, **trace_args)

    # -- simulation loop -------------------------------------------------

    def run(self, traffic, cycles: int, warmup: int = 0,
            drain: bool = False, max_drain_cycles: int = 50_000) -> None:
        """Drive the network with a traffic source for ``cycles`` cycles.

        ``traffic`` provides ``packets_for_cycle(cycle)``.  With ``drain``
        the simulation continues (without new injection) until every
        in-flight packet is delivered or the drain budget runs out; an
        exhausted budget leaves the network busy and logs a warning on
        logger ``repro.noc``.

        Two fast-forwards apply when the backend supports idle skip,
        tracing is off, and the traffic source can name its next event
        cycle (trace playback can; random generators draw RNG every cycle
        and cannot):

        * **idle skip** — runs of quiescent cycles collapse into one
          :meth:`skip_idle_cycles` jump;
        * **busy period** — packets offered to a quiescent network go
          to ``_forward_period``, which may carry the whole period to
          the next quiescent cycle, bounded by the cycles left plus
          (when draining) the drain budget.

        Every observable — cycle counts, utilization timeline, latencies,
        arbiter state at the next busy cycle — is identical either way.
        """
        self.latency.warmup_cycles = warmup
        with self.running():
            fast_forward = (self._supports_idle_skip
                            and not self._tracer.enabled
                            and hasattr(traffic, "next_event_cycle"))
            sampler = self._sampler
            #: Last cycle the main loop can step to: a period
            #: fast-forward offers the sampler the OFFER_STRIDE marks up
            #: to here, as stepping would, and none in the drain phase.
            self._sample_end = self.cycle + cycles
            remaining = cycles
            drain_budget = max_drain_cycles if drain else 0
            while remaining > 0:
                offered = traffic.packets_for_cycle(self.cycle)
                if fast_forward and offered and self.quiescent():
                    advanced = self._forward_period(
                        traffic, offered, remaining, drain_budget)
                    if advanced:
                        drain_budget -= max(0, advanced - remaining)
                        remaining -= advanced
                        if remaining > 0 and self.quiescent():
                            remaining -= self._skip_to_next_event(traffic,
                                                                  remaining)
                        continue
                for packet in offered:
                    self.offer_packet(packet)
                self.step()
                remaining -= 1
                if sampler is not None and self.cycle % OFFER_STRIDE == 0:
                    # Idle fast-forward below may jump past sample
                    # points; the series then resumes at the post-jump
                    # cycle (skipped cycles mutate no registry).
                    sampler.tick(self.cycle)
                if remaining > 0 and fast_forward and self.quiescent():
                    remaining -= self._skip_to_next_event(traffic, remaining)
            while drain_budget > 0 and not self.quiescent():
                self.step()
                drain_budget -= 1
            if drain and not self.quiescent():
                log.warning(
                    "%s: drain budget of %d cycles exhausted with %d "
                    "flits still queued; results cover a busy network",
                    self.name, max_drain_cycles, self.total_queued_flits())

    @contextmanager
    def running(self, stamp_stepped: bool = False):
        """Keep the books of one run (DESIGN.md §11): :meth:`_begin_run`;
        at close a last snapshot offer, the trailing utilization flush,
        :meth:`_end_run`, a ``noc.run_seconds`` observation and a
        ``run:<name>`` span.  A run opened inside another joins it.

        Yields the open run's stamp convention: the offer after stepping
        cycle ``c`` is stamped ``c + 1``, or ``c`` with ``stamp_stepped``,
        whose close makes no offer (the serve daemon samples itself).
        """
        if self._run_stamp is not None:
            yield self._run_stamp
            return
        start_cycle, wall_start = self.cycle, time.perf_counter()
        self._run_stamp = stamp_stepped
        self._begin_run()
        try:
            yield stamp_stepped
        finally:
            self._run_stamp = None
        if self._sampler is not None and not stamp_stepped:
            self._sampler.tick(self.cycle)
        self.utilization.finish()
        self._end_run()
        self.obs.metrics.timer("noc.run_seconds", topology=self.name) \
            .observe(time.perf_counter() - wall_start)
        if self._tracer.enabled:
            self._tracer.complete(
                "noc", "kernel", f"run:{self.name}",
                start_cycle, self.cycle,
                cycles=self.cycle - start_cycle,
                injected=self.injected_packets)

    def _begin_run(self) -> None:
        """Hook fired as a run opens (before any injection)."""

    def _end_run(self) -> None:
        """Hook fired as a run closes (after the final flush)."""

    def result(self, pattern: str, load: float,
               saturation_latency: float = 500.0) -> SimulationResult:
        """Package measurement into a :class:`SimulationResult`."""
        avg = self.latency.average
        saturated = (avg == 0.0 and self.injected_packets > 0) \
            or avg >= saturation_latency
        return SimulationResult(
            topology=self.name,
            pattern=pattern,
            load=load,
            cycles=self.cycle,
            latency=self.latency,
            utilization=self.utilization,
            injected_packets=self.injected_packets,
            flit_hops=self.flit_hops,
            link_traversals=self.link_traversals,
            saturated=saturated,
        )
