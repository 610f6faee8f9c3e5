"""Registry of NoP network backends.

``TOPOLOGIES`` maps a topology name to a factory
``(nodes, **kwargs) -> SimKernel``.
:func:`~repro.noc.simulation.make_network`, the system-model pipelines,
and the property-test suite all resolve backends here, so adding a
topology is one ``TOPOLOGIES.register`` call — no edits to the factory,
the system model, or the sweeps.

Each name carries the per-object reference implementation (the
bit-identity *oracle*) and a struct-of-arrays ``vectorized=True`` twin;
dispatch serves the twin, while ``TOPOLOGIES.get(name,
vectorized=False)`` reaches the oracle the equivalence suite pins it
against (see :mod:`repro.registry`).

The four paper topologies register themselves below with lazy imports
(the factories import their backend module on first use), keeping this
module import-cycle-free and cheap to load.
"""

from __future__ import annotations

from repro.registry import Registry

TOPOLOGIES = Registry("topology")


# -- the paper's four topologies (Figure 10) ---------------------------------
#
# Each registers its per-object oracle and its struct-of-arrays twin;
# dispatch serves the twin, the equivalence suite diffs the two.

@TOPOLOGIES.register("ring")
def _make_ring(nodes: int = 16, **kwargs):
    from repro.noc.network import Network
    from repro.noc.topology import make_topology
    return Network(make_topology("ring", nodes), **kwargs)


@TOPOLOGIES.register("ring", vectorized=True)
def _make_ring_soa(nodes: int = 16, **kwargs):
    from repro.noc.soa import SoANetwork
    from repro.noc.topology import make_topology
    return SoANetwork(make_topology("ring", nodes), **kwargs)


@TOPOLOGIES.register("mesh")
def _make_mesh(nodes: int = 16, **kwargs):
    from repro.noc.network import Network
    from repro.noc.topology import make_topology
    return Network(make_topology("mesh", nodes), **kwargs)


@TOPOLOGIES.register("mesh", vectorized=True)
def _make_mesh_soa(nodes: int = 16, **kwargs):
    from repro.noc.soa import SoANetwork
    from repro.noc.topology import make_topology
    return SoANetwork(make_topology("mesh", nodes), **kwargs)


@TOPOLOGIES.register("optbus")
def _make_optbus(nodes: int = 16, **kwargs):
    from repro.noc.optbus import OptBusNetwork
    return OptBusNetwork(nodes, **kwargs)


@TOPOLOGIES.register("optbus", vectorized=True)
def _make_optbus_soa(nodes: int = 16, **kwargs):
    from repro.noc.soa import SoAOptBusNetwork
    return SoAOptBusNetwork(nodes, **kwargs)


@TOPOLOGIES.register("flumen")
def _make_flumen(nodes: int = 16, **kwargs):
    from repro.noc.flumen_net import FlumenNetwork
    return FlumenNetwork(nodes, **kwargs)


@TOPOLOGIES.register("flumen", vectorized=True)
def _make_flumen_soa(nodes: int = 16, **kwargs):
    from repro.noc.soa import SoAFlumenNetwork
    return SoAFlumenNetwork(nodes, **kwargs)
