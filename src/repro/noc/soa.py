"""Struct-of-arrays (SoA) NoP backends: the ones every production path runs.

The per-object simulators (:class:`~repro.noc.network.Network`'s
``Router`` pipeline, :class:`~repro.noc.flumen_net.FlumenNetwork`'s
circuit dicts, :class:`~repro.noc.optbus.OptBusNetwork`'s bus circuits)
are easy to audit but slow: every cycle re-walks Python object graphs,
rebuilds dense arbiter request vectors, and counts down every in-flight
flit individually.  The classes here flatten all mutable router/source/
bus state into parallel flat arrays indexed by ``(router, port, vc)``
(credits, queue occupancy, output allocations, arbiter rotation state,
circuit setup/remaining counters), bucket in-flight flit positions by
arrival cycle so link flight needs no per-cycle countdown, and advance
only the *active* entries each cycle through sparse pending-event sets
— per-cycle cost tracks activity, not network size.  (At these network
sizes — tens of routers — flat Python lists beat ndarray scalar
indexing for the per-element hot fields, so the SoA arrays are plain
lists; NumPy builds the precomputed route/VC-class tables and serves
the wide arbiter paths in :mod:`repro.noc.arbiter`.)

``TOPOLOGIES`` registers only these classes; the sweep, serve, the
fault campaigns, the sweep tasks and ``repro perf`` all build them
through ``make_network``.  The per-object classes are the
**bit-identity oracle**, constructed directly by the equivalence suite
(``tests/reference_noc.py``), just as the per-MZI loop in
``tests/reference_photonics.py`` anchors the columnized photonic
kernel: for every backend the SoA class must reproduce the oracle's
delivered packets, per-flit latency samples, counters, cycle counts,
and trace event order *exactly*.  ``tests/test_soa_kernel.py`` pins
that equivalence property over random traffic and over the traffic
shapes ``repro perf`` times.  The one topology the SoA router network
refuses is ``mesh_wf``, whose adaptive routing draws a route per head
flit; ``noc_latency`` runs it on the per-object ``Network``.

On top of the flat layout, the SoA backends opt into the kernel's idle
fast-forward (``SimKernel.run``): when the network is quiescent and the
traffic source can name its next event cycle (trace playback), the run
loop jumps straight there instead of stepping empty cycles one by one.
Each backend's ``_skip_idle`` advances exactly the state an idle step
would have touched — the cycle counter, the utilization intervals, and
(for Flumen) the wavefront priority diagonal, which the oracle rotates
on every cycle, busy or not.  It is reached only through
``SimKernel.skip_idle_cycles``, which refuses a network that is not
quiescent; the co-simulation driver (``FlumenScheduler.run``) skips
through the same entry, so a circuit in setup or transfer, a pending
pre-grant or a buffered source is always stepped.

All three also take the kernel's busy-period replay and bulk runs
(:mod:`repro.noc.kernel`).  A busy period runs from the offers that wake
a quiescent network back to quiescence; at either end every buffer,
circuit and pending set holds its reset value, so each backend names
only the state that carries over: the three router arbiter arrays
(ring, mesh), the bus round-robin pointers (optbus), and the sequential
pointer plus the wavefront diagonal, which turns once per cycle busy or
idle (Flumen).  Every arbitration reads its rotation state only when
two or more candidates compete, so a lone packet reads nothing and
replays from any arbiter state.

Ordering contracts the SoA step preserves (DESIGN.md §14):

* ``Network``: routers are processed in ascending id, so at most one
  ejection per router per cycle lands in ascending router order;
  credits and link sends are buffered and applied after the router
  pass, exactly as the oracle does.  Link delay is constant, so the
  per-arrival-cycle buckets replay the oracle's in-flight list order.
* ``FlumenNetwork``: deliveries follow *circuit-table insertion order*
  (a dict in the oracle), so the SoA variant stamps every activation —
  including a pending circuit's promotion — into an explicit order
  list and advances circuits in that order.
* ``OptBusNetwork``: buses advance in ascending bus id, matching the
  oracle's sorted scan.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.noc.arbiter import WavefrontArbiter, rr_sparse
from repro.noc.kernel import SimKernel
from repro.noc.packet import Flit, Packet
from repro.noc.topology import LOCAL_PORT, Topology, check_router_geometry
from repro.obs import NULL_OBS, Obs

#: 1 ns phase programming at a 2.5 GHz network clock (Section 4.1).
DEFAULT_RECONFIG_CYCLES = 3

#: Effectively infinite credits for ejection ports (oracle's value).
_EJECT_CREDITS = 10 ** 9


class SoANetwork(SimKernel):
    """Wormhole network with all router state in flat parallel arrays.

    Semantically identical to :class:`~repro.noc.network.Network` over
    the same topology; see the module docstring for the contract.
    State for input VC ``(router, port, vc)`` lives at flat index
    ``(router * P + port) * V + vc`` across the parallel arrays.
    """

    _supports_idle_skip = True
    _replays_periods = True
    _period_counts = ("flit_hops", "link_traversals", "ejected_flits")

    def __init__(self, topology: Topology, num_vcs: int = 2,
                 buffer_depth: int = 8, utilization_interval: int = 100,
                 router_pipeline_cycles: int = 2,
                 obs: Obs = NULL_OBS) -> None:
        check_router_geometry(num_vcs, buffer_depth, router_pipeline_cycles)
        if not topology.fixed_routes:
            # The route table keeps one draw per (router, dst); the
            # per-object Network draws again for every head flit.
            raise ValueError(
                f"{topology.name!r} routes each head flit afresh; "
                f"SoANetwork needs a fixed route per (router, dst)")
        super().__init__(name=topology.name,
                         num_links=topology.num_links(),
                         utilization_interval=utilization_interval,
                         obs=obs)
        self.topology = topology
        self.num_vcs = num_vcs
        self.buffer_depth = buffer_depth
        self.router_pipeline_cycles = router_pipeline_cycles
        R = topology.num_routers
        P = max(topology.num_ports(r) for r in range(R))
        V = num_vcs
        self._R, self._P, self._V = R, P, V
        self._PV = P * V
        n = R * P * V
        # -- SoA state ---------------------------------------------------
        #: Output port each input VC's current packet heads to (-1 none).
        self.out_port = [-1] * n
        #: Output VC allocated to the current packet (-1 none).
        self.out_vc = [-1] * n
        #: Input line (p * V + v) owning each (out_port, out_vc); -1 free.
        self.owner = [-1] * n
        #: Credits toward each (output port, vc); LOCAL never backpressures.
        self.credits = [buffer_depth] * n
        for r in range(R):
            base = (r * P + LOCAL_PORT) * V
            for v in range(V):
                self.credits[base + v] = _EJECT_CREDITS
        #: Round-robin rotation state mirroring the oracle's arbiters.
        self.vc_last = [P * V - 1] * n
        self.sw_in_last = [V - 1] * (R * P)
        self.sw_out_last = [P * V - 1] * (R * P)
        #: Flit queues per input VC (queue occupancy = ``len``).
        self._bufs: list[deque[Flit]] = [deque() for _ in range(n)]
        # -- precomputed topology tables ---------------------------------
        nodes = topology.nodes
        route = np.empty((R, nodes), dtype=np.int64)
        for r in range(R):
            for dst in range(nodes):
                route[r, dst] = topology.route(r, dst)
        self._route_table: list[list[int]] = route.tolist()
        vc_cls = np.empty((nodes, nodes), dtype=np.int64)
        for src in range(nodes):
            for dst in range(nodes):
                vc_cls[src, dst] = topology.vc_class(src, dst) % V
        self._vc_class: list[list[int]] = vc_cls.tolist()
        #: Ring restricts a packet to its VC class; mesh allows all VCs.
        self._restrict_vcs = topology.name == "ring"
        self._all_vcs = tuple(range(V))
        #: (router * P + out_port) -> (next router, in_port) or None.
        self._link: list[tuple[int, int] | None] = [None] * (R * P)
        #: (router * P + in_port) -> upstream flat credit base, or -1.
        self._up_credit_base = [-1] * (R * P)
        for r in range(R):
            for p in range(1, topology.num_ports(r)):
                nxt = topology.link(r, p)
                self._link[r * P + p] = nxt
                if nxt is not None:
                    nr, nport = nxt
                    self._up_credit_base[nr * P + nport] = (r * P + p) * V
        self._link_delay = 1 + router_pipeline_cycles
        # -- pending-event structures (drive the per-cycle pass) ---------
        #: router -> set of (p, v) with an unrouted head flit at the front.
        self._route_pending: dict[int, set[tuple[int, int]]] = {}
        #: router -> set of (p, v) routed but lacking an output VC.
        self._vc_pending: dict[int, set[tuple[int, int]]] = {}
        #: router -> set of ports with any (buffered, VC-allocated) input.
        self._sa_ports: dict[int, set[int]] = {}
        self.source_queues: list[deque[Flit]] = [
            deque() for _ in range(nodes)]
        #: In-flight flit positions bucketed by arrival cycle.  Link
        #: delay is constant, so bucket order replays the oracle's
        #: in-flight list order and no per-cycle countdown is needed.
        self._arrivals: dict[int, list[tuple[int, int, Flit]]] = {}
        self._in_flight_count = 0
        self._waiting_sources: set[int] = set()
        self._total_buffered = 0
        self._open_vcs = 0
        self.ejected_flits = 0
        self._m_hops = obs.metrics.counter(
            "noc.flit_hops", topology=topology.name)
        self._run_hops_base = 0

    # -- pending-set maintenance ----------------------------------------

    @staticmethod
    def _add(table: dict, router: int, item) -> None:
        items = table.get(router)
        if items is None:
            table[router] = {item}
        else:
            items.add(item)

    @staticmethod
    def _discard(table: dict, router: int, item) -> None:
        items = table.get(router)
        if items is not None:
            items.discard(item)
            if not items:
                del table[router]

    # -- traffic ---------------------------------------------------------

    def _enqueue(self, packet: Packet) -> None:
        flits = packet.flits()
        vc = self._vc_class[packet.src][packet.dst]
        for flit in flits:
            flit.vc = vc
        self.source_queues[packet.src].extend(flits)
        self._waiting_sources.add(packet.src)

    def _accept(self, router: int, in_port: int, flit: Flit) -> None:
        idx = (router * self._P + in_port) * self._V + flit.vc
        dq = self._bufs[idx]
        if len(dq) >= self.buffer_depth:
            raise RuntimeError(
                f"router {router} port {in_port} vc {flit.vc} overflow — "
                f"credit protocol violated")
        dq.append(flit)
        self._total_buffered += 1
        if len(dq) == 1:
            # The arrival is now the VC's front flit.  A head at an idle
            # VC awaits routing; a body/tail continues a packet whose
            # output VC is already held, so the port can bid for the
            # switch again.
            if flit.is_head:
                self._add(self._route_pending, router, (in_port, flit.vc))
            elif self.out_vc[idx] != -1:
                self._add(self._sa_ports, router, in_port)

    def _inject(self) -> None:
        emptied: list[int] = []
        PV, V = self._PV, self._V
        for node in sorted(self._waiting_sources):
            queue = self.source_queues[node]
            flit = queue[0]
            idx = node * PV + LOCAL_PORT * V + flit.vc
            if len(self._bufs[idx]) < self.buffer_depth:
                # Heads may enter only if the VC is free of a previous
                # packet (buffered flits or a still-open output port).
                if flit.is_head and (self._bufs[idx]
                                     or self.out_port[idx] != -1):
                    continue
                queue.popleft()
                self._accept(node, LOCAL_PORT, flit)
                if not queue:
                    emptied.append(node)
        self._waiting_sources.difference_update(emptied)

    # -- simulation ------------------------------------------------------

    def step(self) -> None:
        """Advance the network one cycle (oracle stage order)."""
        # 1. Link arrivals whose delay has elapsed land now.
        batch = self._arrivals.pop(self.cycle, None)
        if batch is not None:
            self._in_flight_count -= len(batch)
            for router, in_port, flit in batch:
                self._accept(router, in_port, flit)

        # 2. Injection from source queues.
        if self._waiting_sources:
            self._inject()

        # 3. Router pipelines over the pending-event sets, ascending
        #    router id (the oracle's sorted active scan).  Routers absent
        #    from every set have no routable, allocatable, or movable
        #    flit, so every stage is an exact no-op for them.
        busy_links = 0
        if self._route_pending or self._vc_pending or self._sa_ports:
            credits_back: list[int] = []
            active = set(self._route_pending)
            active.update(self._vc_pending)
            active.update(self._sa_ports)
            for router in sorted(active):
                if router in self._route_pending:
                    self._route_stage(router)
                if router in self._vc_pending:
                    self._vc_alloc_stage(router)
                if router in self._sa_ports:
                    busy_links += self._switch_stage(router, credits_back)
            credits = self.credits
            for i in credits_back:
                credits[i] += 1
        self.utilization.record_cycle(busy_links)
        self.cycle += 1

    def _skip_idle(self, idle_cycles: int) -> None:
        # A quiescent router network moves no arbiter state on an idle
        # cycle, so only the kernel-side clock advances.
        self._advance_idle(idle_cycles)

    def _arbiter_arrays(self) -> tuple[list[int], ...]:
        # At either end of a busy period credits, owners, buffers and the
        # pending sets hold their reset values; only these carry over.
        return self.vc_last, self.sw_in_last, self.sw_out_last

    def _set_arbiter_arrays(self, arrays: tuple[list[int], ...]) -> None:
        self.vc_last, self.sw_in_last, self.sw_out_last = arrays

    def _route_stage(self, router: int) -> None:
        pending = self._route_pending.pop(router)
        vc_pending = self._vc_pending.get(router)
        if vc_pending is None:
            vc_pending = self._vc_pending[router] = set()
        route_row = self._route_table[router]
        base = router * self._PV
        V = self._V
        for p, v in pending:
            idx = base + p * V + v
            head = self._bufs[idx][0]
            self.out_port[idx] = route_row[head.dst]
            self._open_vcs += 1
            vc_pending.add((p, v))

    def _vc_alloc_stage(self, router: int) -> None:
        pending = self._vc_pending[router]
        V, PV = self._V, self._PV
        base = router * PV
        owner = self.owner
        out_port, out_vc = self.out_port, self.out_vc
        # Request groups keyed (out_port, out_vc) in the oracle's
        # ascending-(p, v) scan order.
        requests: dict[int, list[int]] = {}
        for p, v in sorted(pending):
            idx = base + p * V + v
            op = out_port[idx]
            if self._restrict_vcs:
                head = self._bufs[idx][0]
                allowed = (self._vc_class[head.src][head.dst],)
            else:
                allowed = self._all_vcs
            obase = base + op * V
            line = p * V + v
            for ov in allowed:
                if owner[obase + ov] == -1:
                    out_key = obase + ov
                    group = requests.get(out_key)
                    if group is None:
                        requests[out_key] = [line]
                    else:
                        group.append(line)
        for out_key, lines in requests.items():
            if owner[out_key] != -1:
                continue
            # A lone requester wins without reading the rotation state
            # (period recording counts every read as decisive).
            if len(lines) == 1:
                winner = lines[0]
            else:
                winner = rr_sparse(lines, self.vc_last[out_key], PV)
            # The arbiter rotates on every grant, even one discarded
            # below because the input already won another VC this cycle.
            self.vc_last[out_key] = winner
            widx = base + winner
            if out_vc[widx] == -1:
                out_vc[widx] = out_key - base - out_port[widx] * V
                owner[out_key] = winner
                pending.discard(divmod(winner, V))
                self._add(self._sa_ports, router, winner // V)
        if not pending:
            del self._vc_pending[router]

    def _switch_stage(self, router: int, credits_back: list[int]) -> int:
        ports = self._sa_ports[router]
        V, PV = self._V, self._PV
        base = router * PV
        bufs, out_vc, out_port = self._bufs, self.out_vc, self.out_port
        credits, sw_in_last = self.credits, self.sw_in_last
        rp_base = router * self._P
        # Stage 1: each input port nominates one ready VC (credit-gated,
        # per-input round-robin over the VCs).
        # The rotation state is read only when two or more VCs are ready.
        nominated: list[int] = []
        for p in sorted(ports):
            pbase = base + p * V
            ready: list[int] = []
            for v in range(V):
                i = pbase + v
                ov = out_vc[i]
                if ov != -1 and bufs[i] \
                        and credits[base + out_port[i] * V + ov] > 0:
                    ready.append(v)
            if not ready:
                continue
            if len(ready) == 1:
                best_v = ready[0]
            else:
                best_v = rr_sparse(ready, sw_in_last[rp_base + p], V)
            sw_in_last[rp_base + p] = best_v
            nominated.append(p * V + best_v)
        if not nominated:
            return 0
        # Stage 2: each output port picks among nominated inputs, groups
        # in first-nomination order (the oracle's dict insertion order).
        per_output: dict[int, list[int]] = {}
        for line in nominated:
            op = out_port[base + line]
            group = per_output.get(op)
            if group is None:
                per_output[op] = [line]
            else:
                group.append(line)
        busy = 0
        sw_out_last = self.sw_out_last
        for op, lines in per_output.items():
            if len(lines) == 1:
                w = lines[0]
            else:
                w = rr_sparse(lines, sw_out_last[rp_base + op], PV)
            sw_out_last[rp_base + op] = w
            busy += self._traverse(router, w // V, w % V, credits_back)
        return busy

    def _traverse(self, router: int, p: int, v: int,
                  credits_back: list[int]) -> int:
        V = self._V
        base = router * self._PV
        idx = base + p * V + v
        dq = self._bufs[idx]
        flit = dq.popleft()
        self._total_buffered -= 1
        op = self.out_port[idx]
        ov = self.out_vc[idx]
        if flit.is_tail:
            self.owner[base + op * V + ov] = -1
            self.out_port[idx] = -1
            self.out_vc[idx] = -1
            self._open_vcs -= 1
            if dq:
                # Packets on one VC are contiguous: the next front flit
                # is the following packet's head, awaiting routing.
                self._add(self._route_pending, router, (p, v))
        # The port stays switch-eligible only while some VC still holds
        # a buffered flit with an allocated output VC.
        pbase = base + p * V
        for u in range(V):
            if self._bufs[pbase + u] and self.out_vc[pbase + u] != -1:
                break
        else:
            self._discard(self._sa_ports, router, p)
        self.flit_hops += 1
        if p != LOCAL_PORT:
            up_base = self._up_credit_base[router * self._P + p]
            if up_base != -1:
                credits_back.append(up_base + v)
        if op == LOCAL_PORT:
            self._eject(flit)
            return 0
        self.credits[base + op * V + ov] -= 1
        nxt = self._link[router * self._P + op]
        if nxt is None:
            raise RuntimeError(
                f"router {router} routed {flit} off the edge via "
                f"port {op}")
        flit.vc = ov
        arrival = self.cycle + self._link_delay
        bucket = self._arrivals.get(arrival)
        if bucket is None:
            self._arrivals[arrival] = [(nxt[0], nxt[1], flit)]
        else:
            bucket.append((nxt[0], nxt[1], flit))
        self._in_flight_count += 1
        self.link_traversals += 1
        return 1

    def _eject(self, flit: Flit) -> None:
        self.ejected_flits += 1
        if flit.is_tail:
            packet = flit.packet
            self._deliver(packet, self.cycle, f"node{packet.src}")

    def _begin_run(self) -> None:
        self._run_hops_base = self.flit_hops

    def _end_run(self) -> None:
        self._m_hops.inc(self.flit_hops - self._run_hops_base)

    def quiescent(self) -> bool:
        """True when no flit remains anywhere in the network (O(1))."""
        return (self._in_flight_count == 0
                and not self._waiting_sources
                and self._total_buffered == 0
                and self._open_vcs == 0)

    def total_queued_flits(self) -> int:
        return (sum(len(q) for q in self.source_queues)
                + self._total_buffered + self._in_flight_count)


class SoAFlumenNetwork(SimKernel):
    """MZIM crossbar with circuit state in flat arrays + sparse wavefront.

    Semantically identical to
    :class:`~repro.noc.flumen_net.FlumenNetwork`, including the
    scheduler hooks (port blocking, reroutes, buffer feedback) and the
    delivery/trace ordering (circuit-table insertion order, tracked by
    an explicit activation-order list).
    """

    name = "flumen"

    _supports_idle_skip = True
    _replays_periods = True
    _period_counts = ("flit_hops", "link_traversals", "reconfigurations",
                      "arbiter_conflicts")
    _period_metrics = ("_m_reconfig", "_m_conflicts", "_m_overflow")

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
        self.arbitration = arbitration
        #: Sequential arbitration's rotating priority, one slot.
        self._sequential_rr = [0]
        #: The wavefront diagonal as of a busy period's start, one slot
        #: that a contested allocation reads (see :meth:`_arbiter_arrays`).
        self._diagonal = [0]
        self.request_buffers: list[deque[Packet]] = [
            deque() for _ in range(nodes)]
        self._overflow: list[deque[Packet]] = [deque() for _ in range(nodes)]
        self._waiting_sources: set[int] = set()
        self._arbiter = WavefrontArbiter(nodes)
        # -- SoA circuit state, indexed by source port -------------------
        #: Setup cycles left / flits left per *active* circuit.
        self._setup_left = [0] * nodes
        self._remaining = [0] * nodes
        self._grant_cycle = [0] * nodes
        self._packets: list[Packet | None] = [None] * nodes
        #: Active sources in activation order — the oracle's circuit-dict
        #: insertion order, which fixes delivery order.
        self._order: list[int] = []
        # Pending (pipelined-setup) circuits, same flat layout.
        self._p_setup = [0] * nodes
        self._p_remaining = [0] * nodes
        self._p_grant_cycle = [0] * nodes
        self._p_packets: list[Packet | None] = [None] * nodes
        self._pending_srcs: set[int] = set()
        #: Destinations reserved by pending circuits — replaces the
        #: oracle's any()-scan over the pending table (at most one
        #: pending circuit targets a given destination at a time).
        self._pending_dsts: set[int] = set()
        self._busy_outputs: set[int] = set()
        self.blocked_ports: set[int] = set()
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

    # -- scheduler hooks -------------------------------------------------

    def reroute_pair(self, src: int, dst: int,
                     extra_setup_cycles: int) -> None:
        """Program a detour for (src, dst) around a dead interposer path."""
        if extra_setup_cycles < 0:
            raise ValueError(
                f"extra_setup_cycles must be >= 0, got {extra_setup_cycles}")
        self.reroute_penalties[(int(src), int(dst))] = int(extra_setup_cycles)

    def _setup_cycles(self, src: int, dst: int) -> int:
        extra = self.reroute_penalties.get((src, dst), 0)
        if extra:
            self.rerouted_grants += 1
            self._m_reroutes.inc()
        return self.reconfig_cycles + extra

    def block_ports(self, ports: set[int]) -> None:
        self.blocked_ports |= set(ports)

    def unblock_ports(self, ports: set[int]) -> None:
        self.blocked_ports -= set(ports)

    def ports_clear(self, ports: set[int]) -> bool:
        """True when no circuit is transmitting on any of the given ports."""
        for src in self._order:
            if src in ports or any(d in ports for d in
                                   self._packets[src].destinations):
                return False
        for src in self._pending_srcs:
            if src in ports or any(d in ports for d in
                                   self._p_packets[src].destinations):
                return False
        return True

    def buffer_occupancy(self, port: int) -> int:
        """Packets waiting at one control-unit request buffer."""
        return len(self.request_buffers[port]) + len(self._overflow[port])

    def buffer_utilization(self, ports: list[int] | None = None,
                           scan_depth: float = 1.0) -> float:
        """Mean occupancy fraction over the most-utilized buffers."""
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

    # -- traffic ---------------------------------------------------------

    def _enqueue(self, packet: Packet) -> None:
        if len(self.request_buffers[packet.src]) \
                < self.request_buffer_capacity:
            self.request_buffers[packet.src].append(packet)
        else:
            self._overflow[packet.src].append(packet)
            self._m_overflow.inc()
        self._waiting_sources.add(packet.src)

    def _drained(self, src: int) -> None:
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

    # -- simulation ------------------------------------------------------

    def _eligible_source(self, src: int) -> bool:
        if src in self.blocked_ports or src in self._pending_srcs:
            return False
        if self._packets[src] is None:
            return True
        return (self.pipelined_setup
                and self._setup_left[src] == 0
                and self._remaining[src] <= self.reconfig_cycles)

    def step(self) -> None:
        busy = self._advance_circuits()
        if self._waiting_sources:
            self._grant_multicasts()
            pairs = self._unicast_requests()
        else:
            pairs = []
        self._grant_unicasts(pairs)
        self._refill_buffers()
        self.utilization.record_cycle(busy)
        if self._tracer.enabled and self.cycle \
                and self.cycle % self.utilization.interval_cycles == 0:
            self._tracer.counter("noc", "arbiter", "arbiter_conflicts",
                                 self.cycle, total=self.arbiter_conflicts)
        self.cycle += 1

    def _skip_idle(self, cycles: int) -> None:
        # A quiescent step records an idle cycle and rotates the
        # wavefront priority diagonal (the wavefront scan rotates on
        # every allocation, requests or not); sequential moves nothing.
        self._advance_idle(cycles)
        if self.arbitration == "wavefront":
            self._arbiter.rotate(cycles)

    def _arbiter_arrays(self) -> tuple[list[int], ...]:
        # The diagonal turns once per cycle, busy or idle, so a period
        # carries it as a rotation (_carry_period); its outcome depends
        # on it only through a contested allocation, which reads it as of
        # the period's start.
        return self._sequential_rr, [self._arbiter._priority]

    def _set_arbiter_arrays(self, arrays: tuple[list[int], ...]) -> None:
        self._sequential_rr, self._diagonal = arrays

    def _carry_period(self, cycles: int) -> None:
        if self.arbitration == "wavefront":
            self._arbiter.rotate(cycles)

    def _can_replay(self) -> bool:
        # Blocked ports and detours are scheduler state no recording
        # keys on.  Reconfiguration and conflict counters move mid-period,
        # where a replay cannot place them between sampler snapshots.
        return (not self.blocked_ports and not self.reroute_penalties
                and self._sampler is None)

    def _activate(self, src: int, packet: Packet, setup: int,
                  grant_cycle: int) -> None:
        self._packets[src] = packet
        self._setup_left[src] = setup
        self._remaining[src] = packet.size_flits
        self._grant_cycle[src] = grant_cycle
        self._order.append(src)

    def _advance_circuits(self) -> int:
        busy = 0
        for src in self._pending_srcs:
            if self._p_setup[src] > 0:
                self._p_setup[src] -= 1
        if not self._order:
            return busy
        finished: list[int] = []
        setup_left = self._setup_left
        remaining = self._remaining
        for src in self._order:
            if setup_left[src] > 0:
                setup_left[src] -= 1
                continue
            left = remaining[src] - 1
            remaining[src] = left
            busy += 1
            self.flit_hops += 1
            self.link_traversals += 1
            if left == 0:
                packet = self._packets[src]
                delivered = self.cycle + self.propagation_delay
                self._deliver(packet, delivered, f"port{src}",
                              grant_wait=(self._grant_cycle[src]
                                          - packet.create_cycle))
                finished.append(src)
        for src in finished:
            for dst in self._packets[src].destinations:
                self._busy_outputs.discard(dst)
            self._packets[src] = None
            self._order.remove(src)
            if src in self._pending_srcs:
                # Promotion re-inserts at the end of the circuit table,
                # exactly as the oracle's dict insertion does.
                self._pending_srcs.discard(src)
                nxt = self._p_packets[src]
                self._p_packets[src] = None
                self._pending_dsts.discard(nxt.dst)
                self._activate(src, nxt, self._p_setup[src],
                               self._p_grant_cycle[src])
                self._busy_outputs.add(nxt.dst)
        return busy

    def _grant_multicasts(self) -> None:
        for src in sorted(self._waiting_sources):
            buf = self.request_buffers[src]
            if not buf or not buf[0].multicast_dsts:
                continue
            if self._packets[src] is not None or src in self._pending_srcs \
                    or src in self.blocked_ports:
                continue
            dsts = buf[0].multicast_dsts
            if any(d in self._busy_outputs or d in self.blocked_ports
                   for d in dsts):
                continue
            packet = buf.popleft()
            self._drained(src)
            self._activate(src, packet, self.reconfig_cycles, self.cycle)
            self._busy_outputs.update(dsts)
            self.reconfigurations += 1
            self._m_reconfig.inc()

    def _unicast_requests(self) -> list[tuple[int, int]]:
        """Sparse (src, dst) request pairs, ascending src (oracle order)."""
        pairs: list[tuple[int, int]] = []
        for src in sorted(self._waiting_sources):
            buf = self.request_buffers[src]
            if not buf or buf[0].multicast_dsts \
                    or not self._eligible_source(src):
                continue
            dst = buf[0].dst
            if dst in self._busy_outputs or dst in self.blocked_ports:
                # A source draining toward its tail may still target the
                # output it itself occupies (back-to-back same-dest).
                active = self._packets[src]
                if not (active is not None and active.dst == dst):
                    continue
            if dst in self._pending_dsts:
                continue
            pairs.append((src, dst))
        return pairs

    def _grant_unicasts(self, pairs: list[tuple[int, int]]) -> None:
        if not pairs:
            # Idle fast path: the wavefront priority still rotates, as
            # the dense wavefront scan does on an empty matrix.
            if self.arbitration == "wavefront":
                self._arbiter.rotate()
            return
        # A lone request wins without reading the rotation state; a
        # contested one reads it (period recording logs the read).
        if self.arbitration == "wavefront":
            if len(pairs) > 1:
                # The allocator reads the diagonal itself; this read of
                # its period-start slot is the one a recording logs (a
                # _SlotLog while recording, an unused list otherwise).
                self._diagonal[0]
            grants = self._arbiter.allocate_sparse(pairs)
        else:  # sequential: one grant per cycle, rotating priority
            n = self.nodes
            if len(pairs) == 1:
                src, dst = pairs[0]
            else:
                rr = self._sequential_rr[0]
                src, dst = min(pairs, key=lambda ij: (ij[0] - rr) % n)
            grants = [(src, dst)]
            self._sequential_rr[0] = (src + 1) % n
        conflicts = len(pairs) - len(grants)
        if conflicts > 0:
            self.arbiter_conflicts += conflicts
            self._m_conflicts.inc(conflicts)
        for src, dst in grants:
            packet = self.request_buffers[src].popleft()
            self._drained(src)
            assert packet.dst == dst
            setup = self._setup_cycles(src, dst)
            self.reconfigurations += 1
            self._m_reconfig.inc()
            if self._packets[src] is not None:
                # Pipelined pre-grant: reserve the output now so no
                # other grant races it before the circuit activates.
                self._pending_srcs.add(src)
                self._p_packets[src] = packet
                self._p_setup[src] = setup
                self._p_remaining[src] = packet.size_flits
                self._p_grant_cycle[src] = self.cycle
                self._pending_dsts.add(dst)
                self._busy_outputs.add(dst)
            else:
                self._activate(src, packet, setup, self.cycle)
                self._busy_outputs.add(dst)

    def quiescent(self) -> bool:
        return (not self._order and not self._pending_srcs
                and not self._waiting_sources)

    def total_queued_flits(self) -> int:
        queued = sum(p.size_flits
                     for q in self.request_buffers for p in q)
        queued += sum(p.size_flits for q in self._overflow for p in q)
        queued += sum(self._remaining[src] for src in self._order)
        queued += sum(self._p_remaining[src] for src in self._pending_srcs)
        return queued


class SoAOptBusNetwork(SimKernel):
    """MWSR optical bus with bus-circuit state in flat arrays.

    Semantically identical to :class:`~repro.noc.optbus.OptBusNetwork`;
    buses advance in ascending id, matching the oracle's sorted scan.
    """

    name = "optbus"

    _supports_idle_skip = True
    _replays_periods = True

    def __init__(self, nodes: int, arbitration_delay: int = 4,
                 propagation_delay: int = 2,
                 utilization_interval: int = 100,
                 obs: Obs = NULL_OBS) -> None:
        if nodes < 2:
            raise ValueError("need at least two nodes")
        super().__init__(name=self.name, num_links=nodes,
                         utilization_interval=utilization_interval,
                         obs=obs)
        self.nodes = nodes
        self.arbitration_delay = arbitration_delay
        self.propagation_delay = propagation_delay
        self.source_queues: list[deque[Packet]] = [
            deque() for _ in range(nodes)]
        #: Per-bus round-robin rotation state (the oracle's arbiters).
        self._bus_last = [nodes - 1] * nodes
        self._remaining = [0] * nodes
        self._setup_left = [0] * nodes
        self._packets: list[Packet | None] = [None] * nodes
        self._active_buses: set[int] = set()
        self._waiting_sources: set[int] = set()

    def _enqueue(self, packet: Packet) -> None:
        self.source_queues[packet.src].append(packet)
        self._waiting_sources.add(packet.src)

    def step(self) -> None:
        busy = 0
        if self._active_buses:
            setup_left = self._setup_left
            remaining = self._remaining
            for bus in sorted(self._active_buses):
                if setup_left[bus] > 0:
                    setup_left[bus] -= 1
                    continue
                left = remaining[bus] - 1
                remaining[bus] = left
                busy += 1
                self.flit_hops += 1
                self.link_traversals += 1
                if left == 0:
                    delivered = self.cycle + self.propagation_delay
                    self._deliver(self._packets[bus], delivered, f"bus{bus}")
                    self._packets[bus] = None
                    self._active_buses.discard(bus)
        if self._waiting_sources:
            # Request lines per free bus, sources ascending (oracle's
            # sorted scan); each source targets exactly one bus, so
            # per-bus winners never collide.
            requests_per_bus: dict[int, list[int]] = {}
            for src in sorted(self._waiting_sources):
                dst = self.source_queues[src][0].dst
                if self._packets[dst] is None:
                    group = requests_per_bus.get(dst)
                    if group is None:
                        requests_per_bus[dst] = [src]
                    else:
                        group.append(src)
            for bus, srcs in requests_per_bus.items():
                if len(srcs) == 1:
                    winner = srcs[0]
                else:
                    winner = rr_sparse(srcs, self._bus_last[bus],
                                       self.nodes)
                self._bus_last[bus] = winner
                packet = self.source_queues[winner].popleft()
                if not self.source_queues[winner]:
                    self._waiting_sources.discard(winner)
                self._packets[bus] = packet
                self._remaining[bus] = packet.size_flits
                self._setup_left[bus] = self.arbitration_delay
                self._active_buses.add(bus)
        self.utilization.record_cycle(busy)
        self.cycle += 1

    def _skip_idle(self, idle_cycles: int) -> None:
        # Idle bus cycles move no arbiter or circuit state.
        self._advance_idle(idle_cycles)

    def _arbiter_arrays(self) -> tuple[list[int], ...]:
        # A quiescent bus holds no circuit; only the round-robin state
        # carries over from one busy period to the next.
        return (self._bus_last,)

    def _set_arbiter_arrays(self, arrays: tuple[list[int], ...]) -> None:
        (self._bus_last,) = arrays

    def quiescent(self) -> bool:
        return not self._waiting_sources and not self._active_buses

    def total_queued_flits(self) -> int:
        queued = sum(p.size_flits for q in self.source_queues for p in q)
        active = sum(self._remaining[bus] for bus in self._active_buses)
        return queued + active
