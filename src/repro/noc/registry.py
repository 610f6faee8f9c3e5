"""Registry of NoP network backends.

``TOPOLOGIES`` maps a topology name to a factory
``(nodes, **kwargs) -> SimKernel``.
:func:`~repro.noc.simulation.make_network`, the system-model pipelines,
serve, the fault campaigns and the property-test suite all resolve
backends here, so adding a topology is one ``TOPOLOGIES.register`` call
— no edits to the factory, the system model, or the sweeps.

Every name builds a struct-of-arrays kernel (:mod:`repro.noc.soa`).
The per-object simulators those kernels are pinned against are not
registered: the equivalence suite and ``repro perf`` construct them
directly (DESIGN.md §13).

The four paper topologies register themselves below with lazy imports
(the factories import their backend module on first use), keeping this
module import-cycle-free and cheap to load.
"""

from __future__ import annotations

from repro.registry import Registry

TOPOLOGIES = Registry("topology")


# -- the paper's four topologies (Figure 10) ---------------------------------

@TOPOLOGIES.register("ring")
def _make_ring(nodes: int = 16, **kwargs):
    from repro.noc.soa import SoANetwork
    from repro.noc.topology import make_topology
    return SoANetwork(make_topology("ring", nodes), **kwargs)


@TOPOLOGIES.register("mesh")
def _make_mesh(nodes: int = 16, **kwargs):
    from repro.noc.soa import SoANetwork
    from repro.noc.topology import make_topology
    return SoANetwork(make_topology("mesh", nodes), **kwargs)


@TOPOLOGIES.register("optbus")
def _make_optbus(nodes: int = 16, **kwargs):
    from repro.noc.soa import SoAOptBusNetwork
    return SoAOptBusNetwork(nodes, **kwargs)


@TOPOLOGIES.register("flumen")
def _make_flumen(nodes: int = 16, **kwargs):
    from repro.noc.soa import SoAFlumenNetwork
    return SoAFlumenNetwork(nodes, **kwargs)
