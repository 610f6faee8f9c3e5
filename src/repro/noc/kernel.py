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
hooks and registering a factory.

Trace playback (a traffic source that names its next event cycle, with
the tracer off) has three fast-forwards, all in this module:

* **idle skip** — a backend with ``_supports_idle_skip`` implements
  ``_skip_idle``; every skip goes through :meth:`SimKernel.skip_idle_cycles`,
  which refuses to pass :meth:`SimKernel.quiet_until` (the co-simulation
  driver skips through it too, busy cycles included);
* **busy-period replay** — a backend with ``_replays_periods`` names the
  state a period carries over from one quiescent network to the next:
  the rotation-state lists of ``_arbiter_arrays`` (read and written
  through :class:`_SlotLog` while a period is recorded), clock-driven
  rotation in ``_carry_period``, and the counters of ``_period_counts``
  and ``_period_metrics``.  :meth:`SimKernel._forward_period` records
  each new period by stepping it and replays a recurrence whose offers
  match and whose decisive arbiter reads still hold;
* **bulk runs** — a quiescent network plays the trace's next run of
  lone packets, each a recorded one-packet period (which reads no
  arbiter slot), in one numpy pass (:meth:`SimKernel._play_lone_run`),
  building no ``Packet``; a snapshot sampler still gets the ticks, and
  the counters at each, that per-packet replay would give it.

The random-traffic loop (:meth:`SimKernel._run_stepped`) takes none of
them and carries no check for them.
"""

from __future__ import annotations

import bisect
import logging
import time
from contextlib import contextmanager

import numpy as np

from repro.noc.packet import Packet, skip_packet_ids
from repro.noc.stats import LatencyStats, SimulationResult, UtilizationTracker
from repro.obs import NULL_OBS, Obs
from repro.obs.snapshot import OFFER_STRIDE

log = logging.getLogger("repro.noc")

#: Cap on the offers one network's period memo stores; once it is full,
#: busy periods are stepped and nothing new is recorded.
MEMO_OFFER_CAP = 8192

#: Shortest run of lone packets worth a bulk pass; a shorter one replays
#: packet by packet, which costs less below this length.
BULK_MIN_EVENTS = 16


class _SlotLog(list):
    """Arbiter-state list that logs its writes and first reads.

    Period recording swaps these in for a backend's
    :meth:`SimKernel._arbiter_arrays`.  Each write lands in ``writes``
    (slot -> last value) even when it stores the value already there: a
    replay applies the written slots, not a before/after diff, so it
    reproduces the write from whatever arbiter state the network holds
    at the time.  A read of a slot not yet written lands in ``reads``
    with the value it saw; backends read a slot only when two or more
    candidates compete, so these are exactly the reads that steer the
    period.
    """

    def __init__(self, values: list[int]) -> None:
        super().__init__(values)
        self.writes: dict[int, int] = {}
        self.reads: dict[int, int] = {}

    def __getitem__(self, index):
        value = super().__getitem__(index)
        if index not in self.writes:
            self.reads.setdefault(index, value)
        return value

    def __setitem__(self, index, value) -> None:
        self.writes[index] = value
        super().__setitem__(index, value)


class _Period:
    """One recorded busy period of a :class:`SimKernel` backend."""

    __slots__ = ("steps", "later", "deliveries", "busy_runs", "deltas",
                 "reads", "writes")

    def __init__(self, steps, later, deliveries, busy_runs, deltas,
                 logs) -> None:
        #: Cycles from the first offers to quiescence.
        self.steps = steps
        #: ``(offset, src, dst, size_flits)`` of each offer after the
        #: first cycle, in offer order (a list, as the lookup builds).
        self.later = later
        #: ``(packet index, step offset, delivered offset)`` per
        #: delivery, in delivery order; packets are indexed in offer
        #: order.  The step is the one that delivers; a backend with
        #: propagation delay stamps a later delivered cycle.
        self.deliveries = deliveries
        #: ``(busy_links, cycles)`` runs, in order, for the utilization
        #: tracker.
        self.busy_runs = busy_runs
        #: Deltas of the backend's ``_period_counts`` then
        #: ``_period_metrics``.
        self.deltas = deltas
        #: ``(array, slot, value)`` per decisive read, the array
        #: numbered as in :meth:`SimKernel._arbiter_arrays`.
        self.reads = tuple((array, index, value)
                           for array, log in enumerate(logs)
                           for index, value in log.reads.items())
        #: Per arbiter array: ``(slot, value)`` per slot written.
        self.writes = tuple(tuple(log.writes.items()) for log in logs)


class _LoneRuns:
    """A trace laid against one network's recorded lone periods.

    Built for one ``(trace, lone-period memo version, window end)``; it
    marks every event from the current position on that can sit in a
    bulk run (:meth:`SimKernel._play_lone_run`) and keeps, per trace key,
    the recorded period's arrays for :meth:`play`.
    """

    def __init__(self, net: SimKernel, trace, window_end: int) -> None:
        self.trace = trace
        self.version = net._lone_version
        self.window_end = window_end
        keys, ids = trace.key_ids()
        periods = [net._lone.get(key) for key in keys]
        self.periods = periods
        self.steps = np.array([0 if p is None else p.steps
                               for p in periods], dtype=np.int64)
        #: Offset of the step delivering each key's one packet, and of
        #: its delivered cycle: its latency.
        self.delivering = np.array([0 if p is None else p.deliveries[0][1]
                                    for p in periods], dtype=np.int64)
        self.latency = np.array([0 if p is None else p.deliveries[0][2]
                                 for p in periods], dtype=np.int64)
        width = len(net._period_counts) + len(net._period_metrics)
        self.deltas = np.array([p.deltas if p is not None else (0,) * width
                                for p in periods],
                               dtype=np.int64).reshape(len(keys), width)
        # Utilization template per key: an idle slot (its cycles filled
        # per event with the gap before it), then the period's busy runs.
        busy, cycles, first = [], [], []
        for period in periods:
            first.append(len(busy))
            busy.append(0)
            cycles.append(0)
            for links, run in (() if period is None else period.busy_runs):
                busy.append(links)
                cycles.append(run)
        self.template_busy = np.array(busy, dtype=np.int64)
        self.template_cycles = np.array(cycles, dtype=np.int64)
        self.template_first = np.array(first, dtype=np.int64)
        self.template_len = np.diff(np.append(self.template_first,
                                              len(busy)))
        # Events from the current position on that may sit in a run.
        base = trace._pos
        self.ids = ids
        cyc = trace.cycles
        steps = self.steps[ids[base:]]
        end = cyc[base:] + steps
        nxt = np.append(cyc[base + 1:], np.iinfo(np.int64).max)
        ok = ((steps > 0) & (trace.srcs[base:] != trace.dsts[base:])
              & (end <= window_end) & (nxt >= end))
        #: Absolute positions of the events that break a run.
        self.breaks = (np.flatnonzero(~ok) + base).tolist()

    def run_length(self, pos: int, cycle: int) -> int:
        """Events in the run starting at ``pos`` on a network at
        ``cycle`` (the first event may not predate the clock)."""
        if self.trace.cycles[pos] < cycle:
            return 0
        at = bisect.bisect_left(self.breaks, pos)
        stop = self.breaks[at] if at < len(self.breaks) else len(self.trace)
        return stop - pos

    def play(self, net: SimKernel, pos: int, count: int) -> int:
        """Apply the run of ``count`` events at ``pos`` to ``net``;
        return the cycles it advances."""
        trace = self.trace
        start = net.cycle
        stop = pos + count
        ids = self.ids[pos:stop]
        created = trace.cycles[pos:stop]
        ends = created + self.steps[ids]
        end = int(ends[-1])
        delivered = created + self.latency[ids]
        offers = deliveries = 0
        sampler = net._sampler
        if sampler is not None:
            # Replaying one by one ticks the sampler at each OFFER_STRIDE
            # mark inside a period (idle skips between periods tick
            # none); a tick sees the offers made before its cycle and the
            # deliveries of earlier steps.
            firsts = (created // OFFER_STRIDE + 1) * OFFER_STRIDE
            marks = np.maximum(0, (ends - firsts) // OFFER_STRIDE + 1)
            before = np.cumsum(marks) - marks
            ticks = (np.repeat(firsts - before * OFFER_STRIDE, marks)
                     + np.arange(int(marks.sum())) * OFFER_STRIDE)
            steps = created + self.delivering[ids]
            for tick in ticks.tolist():
                offered = int(np.searchsorted(created, tick))
                done = int(np.searchsorted(steps, tick))
                self._account(net, pos, offers, offered, deliveries, done,
                              delivered)
                offers, deliveries = offered, done
                sampler.tick(tick)
        self._account(net, pos, offers, count, deliveries, count, delivered)
        net._apply_period_totals(
            (np.bincount(ids, minlength=len(self.periods))
             @ self.deltas).tolist())
        # Busy and idle segments: each event's idle gap since the last
        # period's end, then its period's busy runs.
        lengths = self.template_len[ids]
        heads = np.cumsum(lengths)
        total = int(heads[-1])
        heads -= lengths
        picks = (np.repeat(self.template_first[ids] - heads, lengths)
                 + np.arange(total))
        cycles = self.template_cycles[picks]
        cycles[heads[1:]] = created[1:] - ends[:-1]
        cycles[0] = created[0] - start
        net.utilization.record_segments(self.template_busy[picks], cycles)
        # The last write to each slot: keys in order of their last event.
        for key in reversed(dict.fromkeys(reversed(ids.tolist()))):
            net._apply_writes(self.periods[key].writes)
        net._carry_period(end - start)
        net.cycle = end
        net.solo_cycles_jumped += end - start - int(cycles[heads].sum())
        trace.skip_played(count)
        skip_packet_ids(count)
        return end - start

    def _account(self, net: SimKernel, pos: int, offers: int, offered: int,
                 deliveries: int, done: int, delivered: np.ndarray) -> None:
        """Account the run's offers ``offers:offered`` and deliveries
        ``deliveries:done`` (indices into the run starting at ``pos``)."""
        if offered > offers:
            net.injected_packets += offered - offers
            net._m_injected.inc(offered - offers)
        if done > deliveries:
            trace, run = self.trace, slice(pos + deliveries, pos + done)
            net._deliver_run(trace.srcs[run], trace.dsts[run],
                             trace.cycles[run],
                             delivered[deliveries:done], trace.sizes[run])


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
        #: Recorded busy periods keyed by their first cycle's
        #: ``(src, dst, size_flits)`` offers.
        self._periods: dict[tuple, list[_Period]] = {}
        #: Offers stored across ``_periods`` (bounded by MEMO_OFFER_CAP).
        self._memo_offers = 0
        #: ``(src, dst, size_flits)`` -> its recorded lone period (one
        #: packet, no decisive read), for bulk runs; the version counts
        #: additions, so a stale :class:`_LoneRuns` is rebuilt.
        self._lone: dict[tuple[int, int, int], _Period] = {}
        self._lone_version = 0
        self._lone_runs: _LoneRuns | None = None
        #: Cycles advanced by replaying one-packet / multi-packet periods.
        self.solo_cycles_jumped = 0
        self.period_cycles_jumped = 0
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
        """Apply ``idle_cycles`` of countdown-only stepping in one jump.

        Must leave the backend in exactly the state ``idle_cycles``
        plain ``step()`` calls with no traffic would — including any
        per-cycle arbiter rotation the backend performs while idle.
        Reached only through :meth:`skip_idle_cycles`, so the skip ends
        at or before :meth:`quiet_until`.
        """
        raise NotImplementedError

    def _advance_idle(self, idle_cycles: int) -> None:
        """Kernel-side bookkeeping shared by every ``_skip_idle``."""
        self.cycle += idle_cycles
        self.utilization.record_idle_cycles(idle_cycles)

    def quiet_until(self) -> int | None:
        """The first cycle at or after now whose step does more than
        count down, or None when no cycle does until new traffic.

        The default knows no countdown: now on a busy network, unbounded
        on a quiescent one.  A backend that can tell its next event
        (Flumen's event calendar) names a later cycle.
        """
        return None if self.quiescent() else self.cycle

    def skip_idle_cycles(self, cycles: int) -> None:
        """Advance the network ``cycles`` countdown-only cycles in one jump.

        The one network-side skip: :meth:`run`'s trace playback and the
        co-simulation driver (``FlumenScheduler.run``) both come here.
        It raises, leaving the network untouched, unless the skip ends
        at or before :meth:`quiet_until` — an arbitration that may
        grant or a delivery is always stepped.
        """
        horizon = self.quiet_until()
        if horizon is not None and self.cycle + cycles > horizon:
            raise RuntimeError(
                f"skip_idle_cycles past the network's horizon (cycle "
                f"{horizon}) would drop in-flight work")
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

    #: Backends whose busy periods carry over only the arbiter state
    #: :meth:`_arbiter_arrays` names (plus :meth:`_carry_period`), the
    #: counters :attr:`_period_counts` / :attr:`_period_metrics` name and
    #: the clock set this True: :meth:`_forward_period` then records and
    #: replays their periods.  The per-object oracles never do.
    _replays_periods = False

    #: Integer attributes a busy period advances, replayed as deltas.
    _period_counts: tuple[str, ...] = ("flit_hops", "link_traversals")

    #: Metric counters (attribute names) a busy period advances.
    _period_metrics: tuple[str, ...] = ()

    def _arbiter_arrays(self) -> tuple[list[int], ...]:
        """The rotation-state lists a busy period reads and writes."""
        return ()

    def _set_arbiter_arrays(self, arrays: tuple[list[int], ...]) -> None:
        """Install ``arrays`` (same shape as :meth:`_arbiter_arrays`)."""

    def _carry_period(self, cycles: int) -> None:
        """Advance state that turns with the clock, over ``cycles`` cycles
        a replay jumps; a recorded period's stepping already did."""

    def _can_replay(self) -> bool:
        """False while some state outside the recording would change a
        period's outcome; the period is then stepped, unrecorded."""
        return True

    def _forward_period(self, traffic, offered: list[Packet],
                        remaining: int, drain_budget: int) -> int:
        """Carry the busy period ``offered`` starts at a quiescent network.

        ``offered`` is this cycle's packets, not yet offered; ``traffic``
        supplies the later ones; ``remaining`` cycles are left in the run
        window and ``drain_budget`` after it.  A recording replays when
        this period's offers are its offers — the first cycle's by key,
        later ones looked up in the trace up to the period's end or the
        window's, past which the run loop offers nothing — and every
        slot it read decisively still holds the value it read.
        Otherwise the period is stepped and recorded, while the memo has
        room.  Returns the cycles advanced; 0 declines without offering,
        and :meth:`run` offers and steps the cycle as usual.
        """
        if not self._can_replay():
            return 0
        key = tuple([(p.src, p.dst, p.size_flits) for p in offered])
        horizon = remaining + drain_budget
        start = self.cycle
        window_end = start + remaining
        for period in self._periods.get(key, ()):
            if period.steps > horizon or (
                    period.reads and not self._reads_hold(period.reads)):
                continue
            until = min(start + period.steps, window_end)
            if period.later == [
                    (cycle - start, src, dst, size) for cycle, src, dst, size
                    in traffic.upcoming(until)]:
                return self._replay(period, traffic, offered)
        if self._memo_offers >= MEMO_OFFER_CAP:
            return 0
        return self._record(key, traffic, offered, window_end, horizon)

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

    def _reads_hold(self, reads: tuple[tuple[int, int, int], ...]) -> bool:
        arrays = self._arbiter_arrays()
        return all(arrays[array][index] == value
                   for array, index, value in reads)

    def _period_totals(self) -> tuple[int, ...]:
        return (tuple(getattr(self, name) for name in self._period_counts)
                + tuple(getattr(self, name).value
                        for name in self._period_metrics))

    def _apply_period_totals(self, deltas) -> None:
        """Add deltas of :meth:`_period_totals` (one period's, or a bulk
        run's sum)."""
        counts = len(self._period_counts)
        for name, delta in zip(self._period_counts, deltas):
            setattr(self, name, getattr(self, name) + delta)
        for name, delta in zip(self._period_metrics, deltas[counts:]):
            if delta:
                getattr(self, name).inc(delta)

    def _apply_writes(self, writes) -> None:
        for slots, written in zip(self._arbiter_arrays(), writes):
            for index, value in written:
                slots[index] = value

    def _replay(self, period: _Period, traffic,
                offered: list[Packet]) -> int:
        start, steps = self.cycle, period.steps
        packets = list(offered)
        # Offers and deliveries in cycle order, each after the sampler
        # ticks of the cycles before it, as stepping would interleave
        # them; offers precede a same-cycle delivery.  A replayed offer
        # is accounted, not buffered: the period ends with it delivered.
        sampled = self._sampler is not None
        injected = self._m_injected
        self.injected_packets += len(packets)
        injected.inc(len(packets))
        later = iter(period.later)
        nxt = next(later, None)
        ticked = start
        for index, step, delivered in period.deliveries:
            while nxt is not None and nxt[0] <= step:
                cycle = start + nxt[0]
                if sampled:
                    self._sample_stepped(ticked + 1, cycle)
                    ticked = cycle
                for packet in traffic.packets_for_cycle(cycle):
                    self.injected_packets += 1
                    injected.inc()
                    packets.append(packet)
                    nxt = next(later, None)
            if sampled:
                self._sample_stepped(ticked + 1, start + step)
                ticked = start + step
            # Fast-forward runs with the tracer off: no track is drawn.
            self._deliver(packets[index], start + delivered, "")
        if sampled:
            self._sample_stepped(ticked + 1, start + steps)
        self._apply_writes(period.writes)
        self._apply_period_totals(period.deltas)
        record = self.utilization.record_cycles
        for busy, cycles in period.busy_runs:
            record(busy, cycles)
        self._carry_period(steps)
        self.cycle = start + steps
        if len(packets) == 1:
            self.solo_cycles_jumped += steps
        else:
            self.period_cycles_jumped += steps
        return steps

    def _record(self, key: tuple, traffic, offered: list[Packet],
                window_end: int, horizon: int) -> int:
        """Step the period up to ``horizon`` cycles, recording it.

        Offers each trace packet as the run loop would, none from
        ``window_end`` on.  The period is memoised only if it ends within
        the horizon and the memo has room for its offers; otherwise the
        steps taken stand as ordinary stepping.
        """
        start = self.cycle
        room = MEMO_OFFER_CAP - self._memo_offers
        # Offered packets stay referenced here, so their ids stay unique.
        packets: list[Packet] = []
        index: dict[int, int] = {}
        later: list[tuple[int, int, int, int]] = []
        deliveries: list[tuple[int, int, int]] = []
        busy_runs: list[tuple[int, int]] = []

        sample = self._deliver

        def deliver(packet, cycle, track, **trace_args) -> None:
            deliveries.append((index[id(packet)], self.cycle - start,
                               cycle - start))
            sample(packet, cycle, track, **trace_args)

        logs = tuple(_SlotLog(slots) for slots in self._arbiter_arrays())
        self._set_arbiter_arrays(logs)
        self._deliver = deliver
        totals = self._period_totals()
        arrivals = offered
        try:
            while True:
                for packet in arrivals:
                    index[id(packet)] = len(packets)
                    packets.append(packet)
                    if self.cycle > start:
                        later.append((self.cycle - start, packet.src,
                                      packet.dst, packet.size_flits))
                    self.offer_packet(packet)
                before = self.link_traversals
                self.step()
                if self.cycle % OFFER_STRIDE == 0:
                    self._sample_stepped(self.cycle, self.cycle)
                busy = self.link_traversals - before
                if busy_runs and busy_runs[-1][0] == busy:
                    busy_runs[-1] = (busy, busy_runs[-1][1] + 1)
                else:
                    busy_runs.append((busy, 1))
                if (self.quiescent() or self.cycle - start >= horizon
                        or len(packets) > room):
                    break
                arrivals = (traffic.packets_for_cycle(self.cycle)
                            if self.cycle < window_end else ())
        finally:
            del self._deliver
            self._set_arbiter_arrays(tuple(list(log) for log in logs))
        steps = self.cycle - start
        if self.quiescent() and len(packets) <= room:
            deltas = tuple(now - then for now, then
                           in zip(self._period_totals(), totals))
            period = _Period(steps, later, tuple(deliveries),
                             tuple(busy_runs), deltas, logs)
            self._periods.setdefault(key, []).append(period)
            self._memo_offers += len(packets)
            if len(packets) == 1 and not period.reads \
                    and key[0] not in self._lone:
                self._lone[key[0]] = period
                self._lone_version += 1
        return steps

    # -- bulk lone-packet playback ----------------------------------------

    def _play_lone_run(self, traffic, remaining: int) -> int:
        """Play the trace's next run of lone packets in one numpy pass.

        A run is the longest stretch of upcoming events each of which is
        a recorded lone period (:attr:`_lone`: one packet, no decisive
        read), lands at or after the previous one's end, ends inside the
        run window, and sees the next event land at or after its own end
        (so each packet crosses a quiescent network alone, and nothing
        joins it).  The run's packets are never built: delivery cycles,
        latencies, counters, busy and idle utilization segments, the
        last write to each arbiter slot, the trace position and the
        packet-id counter advance as playing them one by one would.
        Returns the cycles advanced, 0 when the next event starts no run.
        """
        pos = traffic._pos
        if pos >= len(traffic) or not self._lone or not self._can_replay():
            return 0
        table = self._lone_runs
        if (table is None or table.trace is not traffic
                or table.version != self._lone_version
                or table.window_end != self.cycle + remaining):
            if self._lone.get(traffic._events[pos][1:]) is None:
                return 0
            table = self._lone_runs = _LoneRuns(self, traffic,
                                                self.cycle + remaining)
        count = table.run_length(pos, self.cycle)
        if count < BULK_MIN_EVENTS:
            return 0
        return table.play(self, pos, count)

    def _deliver_run(self, srcs: np.ndarray, dsts: np.ndarray,
                     created: np.ndarray, delivered: np.ndarray,
                     sizes: np.ndarray) -> None:
        """:meth:`_deliver` for a bulk run's packets, in delivery order
        (the tracer is off on every bulk run)."""
        latencies = delivered - created
        self.latency.record_many(created, latencies, sizes)
        self._m_delivered.inc(len(latencies))
        counts = np.bincount(latencies)
        values = np.flatnonzero(counts)
        self._h_latency.observe_many(values.tolist(),
                                     counts[values].tolist())

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

        When the backend supports idle skip, tracing is off, and the
        traffic source can name its next event cycle (trace playback
        can; random generators draw RNG every cycle and cannot), the
        window is played by :meth:`_play_trace`'s fast-forwards; else
        every cycle is stepped.  Every observable — cycle counts,
        utilization timeline, latencies, arbiter state at the next busy
        cycle — is identical either way.
        """
        self.latency.warmup_cycles = warmup
        with self.running():
            #: Last cycle the main loop can step to: a period
            #: fast-forward offers the sampler the OFFER_STRIDE marks up
            #: to here, as stepping would, and none in the drain phase.
            self._sample_end = self.cycle + cycles
            drain_budget = max_drain_cycles if drain else 0
            if (self._supports_idle_skip and not self._tracer.enabled
                    and hasattr(traffic, "next_event_cycle")):
                drain_budget = self._play_trace(traffic, cycles,
                                                drain_budget)
            else:
                self._run_stepped(traffic, cycles)
            while drain_budget > 0 and not self.quiescent():
                self.step()
                drain_budget -= 1
            if drain and not self.quiescent():
                log.warning(
                    "%s: drain budget of %d cycles exhausted with %d "
                    "flits still queued; results cover a busy network",
                    self.name, max_drain_cycles, self.total_queued_flits())

    def _run_stepped(self, traffic, cycles: int) -> None:
        """Offer and step every cycle of the window."""
        sampler = self._sampler
        for _ in range(cycles):
            for packet in traffic.packets_for_cycle(self.cycle):
                self.offer_packet(packet)
            self.step()
            if sampler is not None and self.cycle % OFFER_STRIDE == 0:
                sampler.tick(self.cycle)

    def _play_trace(self, traffic, remaining: int, drain_budget: int) -> int:
        """Play a trace's window with the fast-forwards; return the drain
        budget left.

        * **idle skip** — runs of quiescent cycles collapse into one
          :meth:`skip_idle_cycles` jump;
        * **bulk run** — a quiescent network plays the trace's next
          run of lone packets in one pass (:meth:`_play_lone_run`);
        * **busy period** — packets offered to a quiescent network go
          to :meth:`_forward_period`, which may carry the whole period
          to the next quiescent cycle, bounded by the cycles left plus
          (when draining) the drain budget.
        """
        sampler = self._sampler
        replay = self._replays_periods
        bulk = replay and hasattr(traffic, "key_ids")
        while remaining > 0:
            quiet = self.quiescent()
            if quiet and bulk:
                advanced = self._play_lone_run(traffic, remaining)
                if advanced:
                    remaining -= advanced
                    if remaining > 0:
                        remaining -= self._skip_to_next_event(traffic,
                                                              remaining)
                    continue
            offered = traffic.packets_for_cycle(self.cycle)
            if quiet and replay and offered:
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
            if remaining > 0 and self.quiescent():
                remaining -= self._skip_to_next_event(traffic, remaining)
        return drain_budget

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
