#!/usr/bin/env python3
"""Explore the four NoP topologies under synthetic traffic (Figure 11).

Sweeps offered load for every topology and pattern the paper evaluates,
prints latency curves as ASCII charts, and reports per-topology network
energy at a fixed operating point (Section 5.2).

Run:  python examples/network_explorer.py
"""

from repro.analysis.report import ascii_chart, format_table
from repro.noc.energy import NetworkEnergyModel
from repro.noc.simulation import SweepConfig, load_sweep, run_point

CONFIG = SweepConfig(cycles=2500, warmup=800)
LOADS = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
TOPOLOGIES = ("ring", "mesh", "optbus", "flumen")


def latency_curves() -> None:
    for pattern in ("uniform", "bit_reversal", "shuffle"):
        series = {}
        for topo in TOPOLOGIES:
            results = load_sweep(topo, pattern, LOADS, CONFIG)
            series[topo] = [(r.load, r.avg_latency) for r in results
                            if not r.saturated]
        print(ascii_chart(series, title=f"\n[{pattern}] latency vs load "
                                        f"(cycles)", log_y=False))


def energy_comparison() -> None:
    print("\n=== Network energy at 0.3 load, uniform traffic ===")
    model = NetworkEnergyModel()
    rows = []
    ring_total = None
    for topo in TOPOLOGIES:
        result = run_point(topo, "uniform", 0.3, CONFIG)
        report = model.of(result)
        if topo == "ring":
            ring_total = report.total
        saving = (1 - report.total / ring_total) * 100 if ring_total else 0
        rows.append([topo, f"{report.total * 1e6:.2f} uJ",
                     f"{saving:.0f}%"])
    print(format_table(["topology", "energy", "reduction vs ring"], rows))


if __name__ == "__main__":
    latency_curves()
    energy_comparison()
