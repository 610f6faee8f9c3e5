"""Ablation: mesh arrangements compared, and self-configuration.

Two design choices behind the Flumen fabric:

1. **Mesh arrangement.**  Every registered architecture programs
   N(N-1)/2 MZI states, but depth and physical device count differ: the
   rectangle (Clements, the paper's reference [10]) has depth N vs the
   Reck triangle's 2N-3 — lower worst-case insertion loss and a smaller
   path-length spread for the attenuator column to equalize — while the
   recirculating brick holds only N-1 physical devices and re-traverses
   them every pass.  The comparison now iterates the mesh-architecture
   registry (DESIGN.md §16) instead of naming decompositions.
2. **Self-configuration** (reference [15]): a fabricated mesh with
   systematic phase offsets is reprogrammed to the target matrix using
   only transfer-matrix measurements.
"""

import numpy as np

from repro.analysis.report import format_table
from repro.config import DeviceParams
from repro.photonics.calibration import PhaseOffsets, calibrate_to
from repro.photonics.clements import random_unitary
from repro.photonics.registry import MESHES, make_mesh

SIZES = (4, 8, 16, 32)


def depth_and_loss():
    mzi_db = DeviceParams().mzi.insertion_loss_db
    archs = {name: make_mesh(name) for name in MESHES.names()}
    rows = []
    for n in SIZES:
        u = random_unitary(n, np.random.default_rng(n))
        row = {"n": n}
        for name, arch in archs.items():
            depth = arch.decompose(u).num_columns
            # Recirculation re-incurs the physical columns every pass,
            # so the light path length is the virtual depth either way.
            row[f"{name}_depth"] = depth
            row[f"{name}_loss"] = depth * mzi_db
            row[f"{name}_devices"] = arch.device_count(n)
        rows.append(row)
    return rows


def calibration_sweep():
    out = {}
    for sigma in (0.02, 0.1, 0.3):
        u = random_unitary(8, np.random.default_rng(42))
        offsets = PhaseOffsets.random(28, sigma,
                                      np.random.default_rng(43))
        out[sigma] = calibrate_to(u, offsets, method="decomposition")
    return out


def test_mesh_arrangement(benchmark):
    rows = benchmark(depth_and_loss)
    names = list(MESHES.names())
    table = [[r["n"]]
             + [r[f"{name}_depth"] for name in names]
             + [f"{r[f'{name}_loss']:.2f}" for name in names]
             + [r[f"{name}_devices"] for name in names]
             for r in rows]
    print()
    print(format_table(
        ["N"]
        + [f"{name} depth" for name in names]
        + [f"{name} loss (dB)" for name in names]
        + [f"{name} devices" for name in names],
        table, title="Ablation: mesh arrangements"))
    for r in rows:
        assert r["clements_depth"] == r["n"]
        assert r["reck_depth"] == 2 * r["n"] - 3
        # The parity re-packing adds at most one column; the brick's
        # physical footprint is a single two-sub-column pair.
        assert r["bricks_depth"] <= r["n"] + 1
        assert r["bricks_devices"] == r["n"] - 1
    # The loss advantage is what justifies the paper's choice.
    big = rows[-1]
    assert big["reck_loss"] / big["clements_loss"] > 1.8


def test_self_configuration(benchmark):
    results = benchmark.pedantic(calibration_sweep, rounds=1, iterations=1)
    rows = [[f"{sigma:.2f}", f"{r.initial_error:.3f}",
             f"{r.final_error:.2e}", r.sweeps_used, r.measurements]
            for sigma, r in results.items()]
    print()
    print(format_table(
        ["offset sigma (rad)", "error before", "error after",
         "iterations", "measurements"],
        rows, title="Self-configuration of a fabricated 8x8 mesh"))
    for r in results.values():
        assert r.final_error < 1e-9
        assert r.sweeps_used <= 2
