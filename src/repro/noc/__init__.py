"""Cycle-accurate network-on-package simulator (Booksim substitute).

Implements the four evaluated NoP topologies (Figure 10): electrical ring
and mesh as flit-level VC wormhole networks, the shared optical bus as a
token-arbitrated MWSR circuit network, and the Flumen MZIM as a
wavefront-arbitrated non-blocking crossbar with reconfiguration delays and
scheduler-controllable port blocking.
"""

from repro.noc.arbiter import (
    RoundRobinArbiter,
    WavefrontArbiter,
)
from repro.noc.energy import EnergyReport, NetworkEnergyModel
from repro.noc.kernel import SimKernel
from repro.noc.packet import Flit, Packet, reset_packet_ids
from repro.noc.registry import TOPOLOGIES
from repro.noc.simulation import (
    SweepConfig,
    load_sweep,
    make_network,
    run_point,
    saturation_load,
    zero_load_latency,
)
from repro.noc.soa import DEFAULT_RECONFIG_CYCLES
from repro.noc.stats import LatencyStats, SimulationResult, UtilizationTracker
from repro.noc.topology import (
    LOCAL_PORT,
    MeshTopology,
    RingTopology,
    Topology,
    make_topology,
)
from repro.noc.traffic import (
    PATTERNS,
    TracePlayback,
    TrafficGenerator,
    make_pattern,
)

__all__ = [
    "DEFAULT_RECONFIG_CYCLES",
    "EnergyReport",
    "Flit",
    "LOCAL_PORT",
    "LatencyStats",
    "MeshTopology",
    "NetworkEnergyModel",
    "PATTERNS",
    "Packet",
    "RingTopology",
    "RoundRobinArbiter",
    "SimKernel",
    "SimulationResult",
    "SweepConfig",
    "TOPOLOGIES",
    "Topology",
    "TracePlayback",
    "TrafficGenerator",
    "UtilizationTracker",
    "WavefrontArbiter",
    "load_sweep",
    "make_network",
    "make_pattern",
    "make_topology",
    "reset_packet_ids",
    "run_point",
    "saturation_load",
    "zero_load_latency",
]
