"""High-level simulation harness: factories, single points, load sweeps.

This is the entry point the benchmarks use to regenerate Figure 11
(latency versus offered load for all four topologies and the synthetic
patterns) and the Section 5.2 energy comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.noc.registry import TOPOLOGIES
from repro.noc.stats import SimulationResult
from repro.noc.traffic import TrafficGenerator


def make_network(name: str, nodes: int = 16,
                 vectorized: bool | None = None, **kwargs):
    """Build a ready-to-run network of any registered topology.

    Resolution goes through :data:`repro.noc.registry.TOPOLOGIES`; an
    unknown name raises a :class:`ValueError` listing the registered set.
    ``vectorized=None`` serves the struct-of-arrays backend when one is
    registered; ``False`` forces the per-object oracle (the equivalence
    suite and byte-identity checks use this), ``True`` requires the
    vectorized twin.
    """
    return TOPOLOGIES.get(name, vectorized=vectorized)(nodes, **kwargs)


@dataclass(frozen=True)
class SweepConfig:
    """Shared knobs for latency/load experiments."""

    nodes: int = 16
    packet_size: int = 4
    cycles: int = 3000
    warmup: int = 1000
    seed: int = 7
    saturation_latency: float = 300.0


def run_point(topology: str, pattern: str, load: float,
              config: SweepConfig | None = None) -> SimulationResult:
    """Simulate one (topology, pattern, load) point."""
    cfg = config or SweepConfig()
    net = make_network(topology, cfg.nodes)
    traffic = TrafficGenerator(cfg.nodes, pattern, load,
                               packet_size=cfg.packet_size, seed=cfg.seed)
    net.run(traffic, cycles=cfg.cycles, warmup=cfg.warmup)
    return net.result(pattern, load,
                      saturation_latency=cfg.saturation_latency)


def load_sweep(topology: str, pattern: str, loads: list[float],
               config: SweepConfig | None = None) -> list[SimulationResult]:
    """Latency-vs-load curve; stops sweeping past saturation."""
    results: list[SimulationResult] = []
    for load in loads:
        result = run_point(topology, pattern, load, config)
        results.append(result)
        if result.saturated:
            break
    return results


def zero_load_latency(topology: str,
                      config: SweepConfig | None = None) -> float:
    """Average latency at near-zero load (the curve's left asymptote)."""
    return run_point(topology, "uniform", 0.02, config).avg_latency


def saturation_load(topology: str, pattern: str,
                    loads: list[float] | None = None,
                    config: SweepConfig | None = None) -> float:
    """First offered load at which the network saturates (1.0 if never)."""
    loads = loads or [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    for result in load_sweep(topology, pattern, loads, config):
        if result.saturated:
            return result.load
    return 1.0
