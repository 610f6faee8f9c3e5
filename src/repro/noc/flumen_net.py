"""Flumen MZIM network model (Figure 10d): a non-blocking photonic crossbar.

Endpoint requests are buffered at the MZIM control unit; a wavefront
arbiter builds conflict-free communication maps each cycle (Section 3.4),
granted circuits pay the 1 ns (~3 cycle) MZI phase-programming delay, then
transfer one flit per cycle wavelength-parallel.

Setup is *pipelined*: while a source's circuit drains its last flits, the
control unit may pre-grant the source's next packet and program the (mode-
disjoint) MZI phases concurrently, so back-to-back packets from a busy
source do not serialize behind reconfiguration.

Ports can be *blocked* to model compute partitions: the scheduler
(:mod:`repro.core.scheduler`) reserves a contiguous port range, and traffic
to or from those ports waits until the partition is released — the
communication-blocking overhead quantified in Section 5.4.2.

Dead interposer paths can be *detoured*: the degradation ladder
(DESIGN.md §12) programs per-pair reroutes via :meth:`reroute_pair`,
after which grants for the pair pay extra setup cycles but packets keep
delivering — no traffic is lost to a rerouted fault.

Injection, the run/drain loop, latency sampling, and result assembly come
from :class:`~repro.noc.kernel.SimKernel`; this module is the crossbar
arbitration and circuit lifecycle only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.noc.arbiter import WavefrontArbiter
from repro.noc.kernel import SimKernel
from repro.noc.packet import Packet
from repro.noc.soa import DEFAULT_RECONFIG_CYCLES
from repro.obs import NULL_OBS, Obs


@dataclass
class _Circuit:
    packet: Packet
    setup_left: int
    remaining_flits: int
    grant_cycle: int = 0


class FlumenNetwork(SimKernel):
    """MZIM crossbar with wavefront arbitration and port blocking."""

    name = "flumen"

    def __init__(self, nodes: int,
                 reconfig_cycles: int = DEFAULT_RECONFIG_CYCLES,
                 propagation_delay: int = 1,
                 request_buffer_capacity: int = 16,
                 utilization_interval: int = 100,
                 pipelined_setup: bool = True,
                 arbitration: str = "wavefront",
                 obs: Obs = NULL_OBS) -> None:
        if nodes < 2:
            raise ValueError("need at least two nodes")
        if arbitration not in ("wavefront", "sequential"):
            raise ValueError(
                f"arbitration must be 'wavefront' or 'sequential', "
                f"got {arbitration!r}")
        super().__init__(name=self.name, num_links=nodes,
                         utilization_interval=utilization_interval,
                         obs=obs)
        self.nodes = nodes
        self.reconfig_cycles = reconfig_cycles
        self.propagation_delay = propagation_delay
        self.request_buffer_capacity = request_buffer_capacity
        self.pipelined_setup = pipelined_setup
        #: "wavefront" builds a maximal matching per cycle (Section 3.4);
        #: "sequential" is the ablation baseline: one grant per cycle.
        self.arbitration = arbitration
        self._sequential_rr = 0
        #: Per-endpoint request buffers in the MZIM control unit.
        self.request_buffers: list[deque[Packet]] = [
            deque() for _ in range(nodes)]
        #: Overflow queues at the endpoints (buffers are finite).
        self._overflow: list[deque[Packet]] = [deque() for _ in range(nodes)]
        #: Sources with anything buffered (request buffer or overflow);
        #: the per-cycle scans only visit these.
        self._waiting_sources: set[int] = set()
        self._arbiter = WavefrontArbiter(nodes)
        self._circuits: dict[int, _Circuit] = {}  # keyed by source port
        #: Pre-granted next circuits whose setup overlaps the active one.
        self._pending: dict[int, _Circuit] = {}
        self._busy_outputs: set[int] = set()
        self.blocked_ports: set[int] = set()
        #: (src, dst) -> extra setup cycles for a programmed detour
        #: around a dead interposer path (DESIGN.md §12).
        self.reroute_penalties: dict[tuple[int, int], int] = {}
        self.rerouted_grants = 0
        self.reconfigurations = 0
        self.arbiter_conflicts = 0
        self._m_reconfig = obs.metrics.counter(
            "noc.reconfigurations", topology=self.name)
        self._m_conflicts = obs.metrics.counter(
            "noc.arbiter_conflicts", topology=self.name)
        self._m_overflow = obs.metrics.counter(
            "noc.buffer_overflows", topology=self.name)
        self._m_reroutes = obs.metrics.counter(
            "noc.rerouted_circuits", topology=self.name)

    # -- scheduler hooks ---------------------------------------------------

    def reroute_pair(self, src: int, dst: int,
                     extra_setup_cycles: int) -> None:
        """Program a detour for (src, dst) around a dead interposer path.

        The degradation ladder's REROUTE rung calls this after a dead
        link is detected: subsequent unicast grants for the pair pay
        ``extra_setup_cycles`` on top of the normal phase-programming
        delay (the detour threads a longer MZI column path), but packets
        still deliver — conservation holds across the fault.
        """
        if extra_setup_cycles < 0:
            raise ValueError(
                f"extra_setup_cycles must be >= 0, got {extra_setup_cycles}")
        self.reroute_penalties[(int(src), int(dst))] = int(extra_setup_cycles)

    def _setup_cycles(self, src: int, dst: int) -> int:
        """Setup delay for one grant, including any detour penalty."""
        extra = self.reroute_penalties.get((src, dst), 0)
        if extra:
            self.rerouted_grants += 1
            self._m_reroutes.inc()
        return self.reconfig_cycles + extra

    def block_ports(self, ports: set[int]) -> None:
        """Reserve ports for a compute partition (no comm grants touch them).

        Active circuits on those ports finish first; the scheduler waits
        for :meth:`ports_clear` before programming the partition.
        """
        self.blocked_ports |= set(ports)

    def unblock_ports(self, ports: set[int]) -> None:
        self.blocked_ports -= set(ports)

    def ports_clear(self, ports: set[int]) -> bool:
        """True when no circuit is transmitting on any of the given ports."""
        for table in (self._circuits, self._pending):
            for src, circuit in table.items():
                if src in ports or any(d in ports for d in
                                       circuit.packet.destinations):
                    return False
        return True

    def buffer_occupancy(self, port: int) -> int:
        """Packets waiting at one control-unit request buffer."""
        return len(self.request_buffers[port]) + len(self._overflow[port])

    def buffer_utilization(self, ports: list[int] | None = None,
                           scan_depth: float = 1.0) -> float:
        """Mean occupancy fraction over the most-utilized buffers.

        ``scan_depth`` is the paper's zeta: the fraction of buffers
        (most-utilized first) averaged.  A small zeta surfaces hot nodes a
        global average would wash out (Section 3.4).
        """
        ports = list(range(self.nodes)) if ports is None else list(ports)
        if not ports:
            return 0.0
        if not 0.0 < scan_depth <= 1.0:
            raise ValueError(f"scan_depth must be in (0, 1], got {scan_depth}")
        fracs = sorted(
            (min(self.buffer_occupancy(p) / self.request_buffer_capacity, 1.0)
             for p in ports),
            reverse=True)
        top = max(1, int(round(scan_depth * len(fracs))))
        return float(np.mean(fracs[:top]))

    # -- traffic -----------------------------------------------------------

    def _enqueue(self, packet: Packet) -> None:
        if len(self.request_buffers[packet.src]) \
                < self.request_buffer_capacity:
            self.request_buffers[packet.src].append(packet)
        else:
            self._overflow[packet.src].append(packet)
            self._m_overflow.inc()
        self._waiting_sources.add(packet.src)

    def _drained(self, src: int) -> None:
        """Drop ``src`` from the waiting set once nothing is buffered."""
        if not self.request_buffers[src] and not self._overflow[src]:
            self._waiting_sources.discard(src)

    def _refill_buffers(self) -> None:
        for port in self._waiting_sources:
            over = self._overflow[port]
            if not over:
                continue
            buf = self.request_buffers[port]
            while over and len(buf) < self.request_buffer_capacity:
                buf.append(over.popleft())

    # -- simulation ----------------------------------------------------------

    def _eligible_source(self, src: int) -> bool:
        """May ``src`` receive a (possibly pipelined) grant this cycle?"""
        if src in self.blocked_ports or src in self._pending:
            return False
        circuit = self._circuits.get(src)
        if circuit is None:
            return True
        return (self.pipelined_setup
                and circuit.setup_left == 0
                and circuit.remaining_flits <= self.reconfig_cycles)

    def step(self) -> None:
        busy = self._advance_circuits()
        self._grant_multicasts()
        requests = self._unicast_requests()
        self._grant_unicasts(requests)
        self._refill_buffers()
        self.utilization.record_cycle(busy)
        if self._tracer.enabled and self.cycle \
                and self.cycle % self.utilization.interval_cycles == 0:
            self._tracer.counter("noc", "arbiter", "arbiter_conflicts",
                                 self.cycle, total=self.arbiter_conflicts)
        self.cycle += 1

    def _advance_circuits(self) -> int:
        """Progress setups and active transfers; returns busy-link count."""
        busy = 0
        # Overlapped setups progress regardless of the active circuit.
        for circuit in self._pending.values():
            if circuit.setup_left > 0:
                circuit.setup_left -= 1
        finished: list[int] = []
        for src, circuit in self._circuits.items():
            if circuit.setup_left > 0:
                circuit.setup_left -= 1
                continue
            circuit.remaining_flits -= 1
            busy += 1
            self.flit_hops += 1
            self.link_traversals += 1
            if circuit.remaining_flits == 0:
                delivered = self.cycle + self.propagation_delay
                self._deliver(circuit.packet, delivered, f"port{src}",
                              grant_wait=(circuit.grant_cycle
                                          - circuit.packet.create_cycle))
                finished.append(src)
        for src in finished:
            for dst in self._circuits[src].packet.destinations:
                self._busy_outputs.discard(dst)
            del self._circuits[src]
            nxt = self._pending.pop(src, None)
            if nxt is not None:
                self._circuits[src] = nxt
                self._busy_outputs.add(nxt.packet.dst)
        return busy

    def _grant_multicasts(self) -> None:
        """Physical multicast grants (splitting states, Section 3.2).

        A multicast head needs its source idle and every destination
        output free; it is granted outside the unicast matching.
        """
        for src in sorted(self._waiting_sources):
            buf = self.request_buffers[src]
            if not buf or not buf[0].multicast_dsts:
                continue
            if src in self._circuits or src in self._pending \
                    or src in self.blocked_ports:
                continue
            dsts = buf[0].multicast_dsts
            if any(d in self._busy_outputs or d in self.blocked_ports
                   for d in dsts):
                continue
            packet = buf.popleft()
            self._drained(src)
            self._circuits[src] = _Circuit(
                packet=packet, setup_left=self.reconfig_cycles,
                remaining_flits=packet.size_flits,
                grant_cycle=self.cycle)
            self._busy_outputs.update(dsts)
            self.reconfigurations += 1
            self._m_reconfig.inc()

    def _unicast_requests(self) -> list[tuple[int, int]]:
        """Sparse ``(src, dst)`` requests from head-of-buffer packets.

        Each source contributes at most one pair (its head-of-buffer
        packet); an empty list is the idle fast path.
        """
        requests: list[tuple[int, int]] = []
        for src in sorted(self._waiting_sources):
            buf = self.request_buffers[src]
            if not buf or buf[0].multicast_dsts \
                    or not self._eligible_source(src):
                continue
            dst = buf[0].dst
            if dst in self._busy_outputs or dst in self.blocked_ports:
                # A source draining toward its tail may still target the
                # output it itself occupies (back-to-back same-destination).
                active = self._circuits.get(src)
                if not (active is not None and active.packet.dst == dst):
                    continue
            if any(p.packet.dst == dst for p in self._pending.values()):
                continue
            requests.append((src, dst))
        return requests

    def _grant_unicasts(self, requests: list[tuple[int, int]]) -> None:
        """Allocate the sparse request list; winners set up circuits."""
        if not requests:
            # Idle fast path.  allocate() rotates the wavefront priority
            # on every call, empty matrix or not, so the skip must too —
            # otherwise later grants diverge from the full scan.
            if self.arbitration == "wavefront":
                self._arbiter.rotate()
            return
        if self.arbitration == "wavefront":
            grants = self._arbiter.allocate_sparse(requests)
        else:  # sequential: one grant per cycle, rotating priority
            grants = []
            by_src = dict(requests)
            for offset in range(self.nodes):
                src = (self._sequential_rr + offset) % self.nodes
                dst = by_src.get(src)
                if dst is not None:
                    grants = [(src, dst)]
                    self._sequential_rr = (src + 1) % self.nodes
                    break
        conflicts = len(requests) - len(grants)
        if conflicts > 0:
            # Requesting sources the allocator could not serve this cycle
            # (output taken or lost the matching) — contention pressure.
            self.arbiter_conflicts += conflicts
            self._m_conflicts.inc(conflicts)
        for src, dst in grants:
            packet = self.request_buffers[src].popleft()
            self._drained(src)
            assert packet.dst == dst
            circuit = _Circuit(packet=packet,
                               setup_left=self._setup_cycles(src, dst),
                               remaining_flits=packet.size_flits,
                               grant_cycle=self.cycle)
            self.reconfigurations += 1
            self._m_reconfig.inc()
            if src in self._circuits:
                self._pending[src] = circuit
                # Reserve the output now so no other grant races it before
                # the pending circuit activates.
                self._busy_outputs.add(dst)
            else:
                self._circuits[src] = circuit
                self._busy_outputs.add(dst)

    def skip_idle_cycles(self, cycles: int) -> None:
        """Advance ``cycles`` quiescent cycles without stepping each one.

        Only legal while :meth:`quiescent` holds and the tracer is off:
        an idle :meth:`step` then touches exactly three pieces of state
        — the wavefront priority diagonal (rotated every cycle, busy or
        not), the utilization intervals (all-idle), and the cycle
        counter — so applying those in bulk is byte-equivalent to
        ``cycles`` empty steps.
        """
        if cycles <= 0:
            return
        if not self.quiescent():
            raise RuntimeError("skip_idle_cycles on a non-quiescent "
                               "network would drop in-flight work")
        if self.arbitration == "wavefront":
            self._arbiter.rotate(cycles)
        self.utilization.record_idle_cycles(cycles)
        self.cycle += cycles

    def quiet_countdown(self) -> int | None:
        """Cycles until the earliest in-flight delivery.

        ``None`` means the network is fully quiescent; ``0`` means it is
        *not* quiet — buffered packets could earn grants, so per-cycle
        arbitration must run.  A positive ``r`` means nothing but
        circuit setup/transfer countdown happens for the next ``r - 1``
        cycles: :meth:`skip_quiet_cycles` may bulk-apply any strict
        prefix of them (the ``r``-th cycle delivers a packet and must be
        a real :meth:`step`).
        """
        if self._waiting_sources:
            return 0
        if not self._circuits:
            return None if not self._pending else 0
        return min(c.setup_left + c.remaining_flits
                   for c in self._circuits.values())

    def skip_quiet_cycles(self, cycles: int) -> None:
        """Advance ``cycles`` pure-transit cycles in one bulk step.

        Legal when nothing is buffered at any endpoint (no grants can
        happen), no delivery falls inside the window
        (``cycles < quiet_countdown()``), and the tracer is off.  Each
        such :meth:`step` only counts setups down, transfers flits on
        already-set-up circuits, rotates the wavefront priority, and
        records utilization — all of which this bulk-applies with
        byte-identical accounting (busy-link counts change only when a
        setup elapses, so utilization is replayed segment by segment).
        """
        if cycles <= 0:
            return
        if self._waiting_sources:
            raise RuntimeError("skip_quiet_cycles with buffered packets "
                               "would skip arbitration")
        circuits = self._circuits.values()
        if any(c.setup_left + c.remaining_flits <= cycles
               for c in circuits):
            raise RuntimeError("skip_quiet_cycles across a delivery "
                               "would drop in-flight work")
        # Busy-link counts are constant between setup expiries; replay
        # the utilization timeline one constant segment at a time.
        points = sorted({c.setup_left for c in circuits
                         if 0 < c.setup_left < cycles})
        prev = 0
        for point in points + [cycles]:
            busy = sum(1 for c in circuits if c.setup_left <= prev)
            self.utilization.record_cycles(busy, point - prev)
            prev = point
        for circuit in circuits:
            elapsed_setup = min(circuit.setup_left, cycles)
            circuit.setup_left -= elapsed_setup
            transferred = cycles - elapsed_setup
            circuit.remaining_flits -= transferred
            self.flit_hops += transferred
            self.link_traversals += transferred
        for circuit in self._pending.values():
            circuit.setup_left = max(0, circuit.setup_left - cycles)
        if self.arbitration == "wavefront":
            self._arbiter.rotate(cycles)
        self.cycle += cycles

    def quiescent(self) -> bool:
        return (not self._circuits and not self._pending
                and all(not b for b in self.request_buffers)
                and all(not o for o in self._overflow))

    def total_queued_flits(self) -> int:
        queued = sum(p.size_flits
                     for q in self.request_buffers for p in q)
        queued += sum(p.size_flits for q in self._overflow for p in q)
        queued += sum(c.remaining_flits for c in self._circuits.values())
        queued += sum(c.remaining_flits for c in self._pending.values())
        return queued
