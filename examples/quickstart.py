#!/usr/bin/env python3
"""Quickstart: program a Flumen MZIM, communicate, then compute.

Walks the library's three core abilities in under a minute:

1. program the photonic fabric for point-to-point + broadcast traffic,
2. partition it and run a matrix multiplication in the interconnect,
3. compare the photonic compute energy against the electrical MAC baseline.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.analysis.report import format_table
from repro.photonics.compute_energy import MZIMComputeModel
from repro.photonics.fabric import FlumenFabric
from repro.photonics.routing import program_broadcast, received_power
from repro.photonics.render import render_fabric

rng = np.random.default_rng(7)


def communication_demo() -> None:
    print("=== 1. Communication on an 8-port Flumen fabric ===")
    fabric = FlumenFabric(8)
    fabric.configure_communication({0: 5, 5: 0, 2: 7, 7: 2})
    rows = []
    for src, dst in [(0, 5), (5, 0), (2, 7), (7, 2)]:
        rows.append([f"{src} -> {dst}",
                     fabric.path_mzi_count(src, dst),
                     f"{fabric.path_loss_db(src, dst):.2f} dB"])
    print(format_table(["link", "MZIs on path", "equalized loss"], rows))
    print(f"fabric inventory: {fabric.num_mesh_mzis} mesh MZIs + "
          f"{fabric.num_attenuator_mzis} attenuators, "
          f"{fabric.mesh_columns} columns\n")

    mesh = program_broadcast(0, 8)
    power = received_power(mesh, 0)
    print("broadcast from port 0, per-port received power:",
          np.round(power, 4), "\n")


def compute_demo() -> None:
    print("=== 2. Matrix multiplication inside the interconnect ===")
    fabric = FlumenFabric(8)
    top, bottom = fabric.split_even()  # two 4-input SVD MZIMs (Figure 5)
    matrix = rng.standard_normal((4, 4))
    program = fabric.program_compute(top, matrix)
    vectors = rng.standard_normal((4, 3))
    optical = program.apply(vectors.astype(complex)).real
    exact = matrix @ vectors
    print(f"partitions: {[(p.lo, p.hi, p.kind.value) for p in fabric.partitions]}")
    print(f"max |optical - exact| = {np.abs(optical - exact).max():.2e}")
    print(f"reconfiguration time charged: "
          f"{fabric.reconfiguration_time_s * 1e9:.0f} ns\n")

    mixed = FlumenFabric(8)
    mixed.split(4, 8, matrix=rng.standard_normal((4, 4)))
    mixed.configure_communication({0: 3, 3: 0, 1: 2, 2: 1})
    print("mixed-mode fabric (top half communicating, bottom computing):")
    print(render_fabric(mixed))
    print()


def energy_demo() -> None:
    print("=== 3. Photonic vs electrical compute energy (Fig. 12b) ===")
    model = MZIMComputeModel()
    rows = []
    for n, m in [(8, 4), (16, 8), (64, 8)]:
        phot = model.matmul_energy(n, m).total
        elec = model.electrical_matmul_energy(n, m)
        rows.append([f"{n}x{n}, {m} vectors",
                     f"{phot * 1e12:.1f} pJ",
                     f"{elec * 1e12:.1f} pJ",
                     f"{elec / phot:.1f}x"])
    print(format_table(
        ["job", "Flumen MZIM", "electrical MAC", "advantage"], rows))


if __name__ == "__main__":
    communication_demo()
    compute_demo()
    energy_demo()
