"""Cycle-driven wormhole network engine for router-based topologies.

Ties together :class:`~repro.noc.router.Router`, a
:class:`~repro.noc.topology.Topology`, a traffic source, and measurement.
One call to :meth:`Network.step` advances the whole network one cycle:
flits arrive from links, routers run their RC/VA/SA pipeline stages, winning
flits traverse the switch, and credits flow back upstream.

Injection, the run/drain loop, latency sampling, and result assembly come
from :class:`~repro.noc.kernel.SimKernel`; this module is the routed
wormhole datapath only.
"""

from __future__ import annotations

from collections import deque

from repro.noc.kernel import SimKernel
from repro.noc.packet import Flit, Packet
from repro.noc.router import Router
from repro.noc.topology import LOCAL_PORT, Topology, check_router_geometry
from repro.obs import NULL_OBS, Obs

#: Effectively infinite credits for ejection ports.
_EJECT_CREDITS = 10 ** 9


class Network(SimKernel):
    """A wormhole network over an arbitrary router topology."""

    def __init__(self, topology: Topology, num_vcs: int = 2,
                 buffer_depth: int = 8, utilization_interval: int = 100,
                 router_pipeline_cycles: int = 2,
                 obs: Obs = NULL_OBS) -> None:
        check_router_geometry(num_vcs, buffer_depth, router_pipeline_cycles)
        super().__init__(name=topology.name,
                         num_links=topology.num_links(),
                         utilization_interval=utilization_interval,
                         obs=obs)
        self.topology = topology
        self.num_vcs = num_vcs
        self.buffer_depth = buffer_depth
        #: Extra per-hop cycles modelling the router pipeline depth beyond
        #: the architectural RC/VA/SA stages (Booksim's 4-stage default).
        self.router_pipeline_cycles = router_pipeline_cycles
        self.routers = [
            Router(r, topology.num_ports(r), num_vcs, buffer_depth)
            for r in range(topology.num_routers)
        ]
        for router in self.routers:  # ejection never backpressures
            router.credits[LOCAL_PORT] = [_EJECT_CREDITS] * num_vcs
        #: Reverse link map: (router, in_port) -> (upstream router, out_port)
        self._upstream: dict[tuple[int, int], tuple[int, int]] = {}
        for r in range(topology.num_routers):
            for p in range(1, topology.num_ports(r)):
                nxt = topology.link(r, p)
                if nxt is not None:
                    self._upstream[nxt] = (r, p)
        self.source_queues: list[deque[Flit]] = [
            deque() for _ in range(topology.nodes)]
        #: Flits on links: [cycles until arrival, router, in_port, flit].
        self._in_flight: list[list] = []
        #: Routers with resident flits; idle routers are skipped by
        #: :meth:`step` (their pipeline stages are exact no-ops).
        self._active_routers: set[int] = set()
        #: Nodes whose source queue is non-empty.
        self._waiting_sources: set[int] = set()
        self.ejected_flits = 0
        self._m_hops = obs.metrics.counter(
            "noc.flit_hops", topology=topology.name)
        self._run_hops_base = 0

    # -- traffic ---------------------------------------------------------

    def _enqueue(self, packet: Packet) -> None:
        """Queue a packet's flits at its source node."""
        flits = packet.flits()
        vc = self.topology.vc_class(packet.src, packet.dst) % self.num_vcs
        for flit in flits:
            flit.vc = vc
        self.source_queues[packet.src].extend(flits)
        self._waiting_sources.add(packet.src)

    def _inject(self) -> None:
        """Move at most one flit per node from source queue into the router."""
        emptied: list[int] = []
        for node in sorted(self._waiting_sources):
            queue = self.source_queues[node]
            flit = queue[0]
            router = self.routers[node]
            if router.buffer_space(LOCAL_PORT, flit.vc) > 0:
                # Heads may enter only if the VC is free of a previous packet.
                state = router.inputs[LOCAL_PORT][flit.vc]
                if flit.is_head and state.busy:
                    continue
                queue.popleft()
                router.accept_flit(LOCAL_PORT, flit)
                self._active_routers.add(node)
                if not queue:
                    emptied.append(node)
        self._waiting_sources.difference_update(emptied)

    # -- simulation ------------------------------------------------------

    def _allowed_vcs(self, flit: Flit) -> list[int]:
        cls = self.topology.vc_class(flit.src, flit.dst) % self.num_vcs
        if self.topology.name == "ring":
            return [cls]
        return list(range(self.num_vcs))

    def step(self) -> None:
        """Advance the network one cycle."""
        # 1. Link arrivals whose delay has elapsed land now.
        still_flying: list[list] = []
        for entry in self._in_flight:
            entry[0] -= 1
            if entry[0] <= 0:
                self.routers[entry[1]].accept_flit(entry[2], entry[3])
                self._active_routers.add(entry[1])
            else:
                still_flying.append(entry)
        self._in_flight = still_flying

        # 2. Injection from source queues.
        self._inject()

        # 3. Router pipelines — active routers only, in ascending id
        #    order (matching the full scan).  A router without buffered
        #    flits makes every stage an exact no-op (no arbiter state
        #    moves without a request), so skipping it is cycle-exact.
        busy_links = 0
        sends: list[list] = []
        credits_back: list[tuple[int, int, int]] = []
        went_idle: list[int] = []
        for router_id in sorted(self._active_routers):
            router = self.routers[router_id]
            router.route_stage(self.topology.route)
            router.vc_alloc_stage(self._allowed_vcs)
            for in_port, in_vc in router.switch_alloc_stage():
                flit, out_port, out_vc = router.traverse(in_port, in_vc)
                self.flit_hops += 1
                if in_port != LOCAL_PORT:
                    up = self._upstream.get((router.router_id, in_port))
                    if up is not None:
                        credits_back.append((up[0], up[1], in_vc))
                if out_port == LOCAL_PORT:
                    self._eject(flit)
                    continue
                router.credits[out_port][out_vc] -= 1
                nxt = self.topology.link(router.router_id, out_port)
                if nxt is None:
                    raise RuntimeError(
                        f"router {router.router_id} routed {flit} off the "
                        f"edge via port {out_port}")
                flit.vc = out_vc
                sends.append([1 + self.router_pipeline_cycles,
                              nxt[0], nxt[1], flit])
                busy_links += 1
                self.link_traversals += 1
            if router.occupancy() == 0:
                went_idle.append(router_id)
        self._active_routers.difference_update(went_idle)

        # 4. Apply credits and schedule link arrivals.
        for router_id, out_port, vc in credits_back:
            self.routers[router_id].credits[out_port][vc] += 1
        self._in_flight.extend(sends)
        self.utilization.record_cycle(busy_links)
        self.cycle += 1

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
        """True when no flit remains anywhere in the network."""
        return (not self._in_flight
                and all(not q for q in self.source_queues)
                and all(r.idle() for r in self.routers))

    def total_queued_flits(self) -> int:
        return (sum(len(q) for q in self.source_queues)
                + sum(r.occupancy() for r in self.routers)
                + len(self._in_flight))
