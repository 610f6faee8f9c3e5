"""Test-only access to the per-object NoC oracles.

``TOPOLOGIES`` registers only the struct-of-arrays kernels
(:mod:`repro.noc.soa`), so every production path builds those.  The
per-object simulators they are pinned against (``Network``,
``FlumenNetwork``, ``OptBusNetwork``) are reached from here instead:
:data:`ORACLES` builds one per topology name, :func:`oracle_topologies`
swaps them into ``TOPOLOGIES`` for an end-to-end comparison, and
:class:`OracleServeNetwork` is the serve daemon's network on the
per-object Flumen class.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager

from repro.noc.flumen_net import FlumenNetwork
from repro.noc.network import Network
from repro.noc.optbus import OptBusNetwork
from repro.noc.registry import TOPOLOGIES
from repro.noc.topology import make_topology


def _router_network(name: str):
    def build(nodes: int = 16, **kwargs) -> Network:
        return Network(make_topology(name, nodes), **kwargs)
    return build


#: Topology name -> per-object oracle factory, with the
#: ``(nodes, **kwargs)`` signature of the ``TOPOLOGIES`` entries.
ORACLES = {
    "ring": _router_network("ring"),
    "mesh": _router_network("mesh"),
    "optbus": OptBusNetwork,
    "flumen": FlumenNetwork,
}


def make_oracle(name: str, nodes: int = 16, **kwargs):
    """The per-object twin of ``make_network(name, nodes, **kwargs)``."""
    return ORACLES[name](nodes, **kwargs)


@contextmanager
def oracle_topologies():
    """Serve every ``TOPOLOGIES`` name from its per-object oracle."""
    with ExitStack() as stack:
        for name, factory in ORACLES.items():
            stack.enter_context(TOPOLOGIES.temporary(name, factory))
        yield


class OracleServeNetwork(FlumenNetwork):
    """``repro.serve.daemon._ServeNetwork`` on the per-object class."""

    on_deliver = None

    def _deliver(self, packet, delivered_cycle, track, **trace_args):
        super()._deliver(packet, delivered_cycle, track, **trace_args)
        if self.on_deliver is not None:
            self.on_deliver(packet, delivered_cycle)
