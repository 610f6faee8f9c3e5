"""Topologies for the router-based electrical NoPs (Figure 10 a/b).

A topology supplies structure (ports, links) and policy (routing function,
deadlock-avoidance VC classes) to the wormhole network engine.  The two
electrical baselines are:

* :class:`RingTopology` — bidirectional ring, shortest-direction routing,
  two VC classes with dateline deadlock avoidance;
* :class:`MeshTopology` — 2D mesh with XY dimension-order routing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LOCAL_PORT = 0


def check_router_geometry(num_vcs: int, buffer_depth: int,
                          router_pipeline_cycles: int) -> None:
    """Reject a wormhole router geometry no network can simulate."""
    for name, value, low in (("num_vcs", num_vcs, 1),
                             ("buffer_depth", buffer_depth, 1),
                             ("router_pipeline_cycles",
                              router_pipeline_cycles, 0)):
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class Link:
    """A unidirectional router-to-router channel."""

    src_router: int
    src_port: int
    dst_router: int
    dst_port: int


class Topology:
    """Interface the network engine programs against."""

    name = "abstract"
    #: False when :meth:`route` draws a fresh choice on every call, so
    #: each head flit may take a different path.
    fixed_routes = True

    def __init__(self, nodes: int) -> None:
        self.nodes = nodes

    @property
    def num_routers(self) -> int:
        return self.nodes

    def num_ports(self, router: int) -> int:
        raise NotImplementedError

    def link(self, router: int, out_port: int) -> tuple[int, int] | None:
        """(downstream router, downstream input port), or None for local."""
        raise NotImplementedError

    def route(self, router: int, dst: int) -> int:
        """Output port toward ``dst`` (LOCAL_PORT when ``dst == router``)."""
        raise NotImplementedError

    def vc_class(self, src: int, dst: int) -> int:
        """Deadlock-avoidance VC class assigned at injection."""
        return 0

    def num_links(self) -> int:
        """Total unidirectional router-to-router links."""
        count = 0
        for r in range(self.num_routers):
            for p in range(1, self.num_ports(r)):
                if self.link(r, p) is not None:
                    count += 1
        return count

    def average_hops(self) -> float:
        """Mean router-to-router hop count over all src != dst pairs."""
        total, pairs = 0, 0
        for src in range(self.nodes):
            for dst in range(self.nodes):
                if src == dst:
                    continue
                total += self.hop_count(src, dst)
                pairs += 1
        return total / pairs if pairs else 0.0

    def hop_count(self, src: int, dst: int) -> int:
        """Number of links a packet traverses from src to dst."""
        hops = 0
        r = src
        while r != dst:
            port = self.route(r, dst)
            nxt = self.link(r, port)
            assert nxt is not None, "routing led to local port prematurely"
            r = nxt[0]
            hops += 1
            if hops > self.nodes * 2:
                raise RuntimeError(f"routing livelock {src}->{dst}")
        return hops

    def bisection_links(self) -> int:
        """Links crossing the canonical bisection (half vs half nodes)."""
        half = set(range(self.nodes // 2))
        count = 0
        for r in range(self.num_routers):
            for p in range(1, self.num_ports(r)):
                nxt = self.link(r, p)
                if nxt and ((r in half) != (nxt[0] in half)):
                    count += 1
        return count


class RingTopology(Topology):
    """Bidirectional ring: port 1 clockwise (+1), port 2 counter-clockwise."""

    name = "ring"
    CW, CCW = 1, 2

    def num_ports(self, router: int) -> int:
        return 3

    def link(self, router: int, out_port: int) -> tuple[int, int] | None:
        if out_port == LOCAL_PORT:
            return None
        if out_port == self.CW:
            return (router + 1) % self.nodes, self.CCW
        if out_port == self.CCW:
            return (router - 1) % self.nodes, self.CW
        raise ValueError(f"ring has no port {out_port}")

    def route(self, router: int, dst: int) -> int:
        if router == dst:
            return LOCAL_PORT
        forward = (dst - router) % self.nodes
        return self.CW if forward <= self.nodes - forward else self.CCW

    def vc_class(self, src: int, dst: int) -> int:
        """Dateline class: 1 when the chosen direction wraps through 0."""
        forward = (dst - src) % self.nodes
        if forward <= self.nodes - forward:  # clockwise
            return 1 if src + forward >= self.nodes else 0
        return 1 if src - (self.nodes - forward) < 0 else 0


class MeshTopology(Topology):
    """2D mesh with XY routing: ports 1..4 = E, W, N, S."""

    name = "mesh"
    EAST, WEST, NORTH, SOUTH = 1, 2, 3, 4

    def __init__(self, nodes: int) -> None:
        super().__init__(nodes)
        side = int(math.isqrt(nodes))
        if side * side != nodes:
            raise ValueError(f"mesh needs a square node count, got {nodes}")
        self.side = side

    def coords(self, router: int) -> tuple[int, int]:
        return router % self.side, router // self.side

    def router_at(self, x: int, y: int) -> int:
        return y * self.side + x

    def num_ports(self, router: int) -> int:
        return 5

    def link(self, router: int, out_port: int) -> tuple[int, int] | None:
        if out_port == LOCAL_PORT:
            return None
        x, y = self.coords(router)
        if out_port == self.EAST and x + 1 < self.side:
            return self.router_at(x + 1, y), self.WEST
        if out_port == self.WEST and x > 0:
            return self.router_at(x - 1, y), self.EAST
        if out_port == self.NORTH and y > 0:
            return self.router_at(x, y - 1), self.SOUTH
        if out_port == self.SOUTH and y + 1 < self.side:
            return self.router_at(x, y + 1), self.NORTH
        if out_port in (self.EAST, self.WEST, self.NORTH, self.SOUTH):
            return None  # edge of the mesh
        raise ValueError(f"mesh has no port {out_port}")

    def route(self, router: int, dst: int) -> int:
        if router == dst:
            return LOCAL_PORT
        x, y = self.coords(router)
        dx, dy = self.coords(dst)
        if x < dx:
            return self.EAST
        if x > dx:
            return self.WEST
        if y > dy:
            return self.NORTH
        return self.SOUTH


class WestFirstMeshTopology(MeshTopology):
    """Partially adaptive west-first routing (turn model, Glass & Ni).

    All westward hops happen first (no turns into west are ever needed
    afterwards, which breaks every deadlock cycle); the remaining
    east/north/south moves are chosen randomly among productive
    directions, spreading adversarial traffic that dimension-order
    routing concentrates.
    """

    name = "mesh_wf"
    fixed_routes = False

    def __init__(self, nodes: int, seed: int = 0) -> None:
        super().__init__(nodes)
        import numpy as np
        self._rng = np.random.default_rng(seed)

    def route(self, router: int, dst: int) -> int:
        if router == dst:
            return LOCAL_PORT
        x, y = self.coords(router)
        dx, dy = self.coords(dst)
        if dx < x:
            return self.WEST  # west first, unconditionally
        choices = []
        if dx > x:
            choices.append(self.EAST)
        if dy > y:
            choices.append(self.SOUTH)
        if dy < y:
            choices.append(self.NORTH)
        return int(self._rng.choice(choices))


def make_topology(name: str, nodes: int) -> Topology:
    """Topology factory for the electrical baselines."""
    if name == "ring":
        return RingTopology(nodes)
    if name == "mesh":
        return MeshTopology(nodes)
    if name == "mesh_wf":
        return WestFirstMeshTopology(nodes)
    raise ValueError(f"unknown router topology {name!r}")
