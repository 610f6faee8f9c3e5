"""ASCII rendering of MZI meshes and the Flumen fabric.

Debugging and teaching aid: draw the rectangular mesh column by column,
marking each MZI's state — ``X`` cross, ``=`` bar, ``/`` splitting — plus
the Flumen fabric's partition barriers and attenuator column.  Used by
the examples and handy in a REPL:

>>> from repro.photonics.fabric import FlumenFabric
>>> from repro.photonics.render import render_fabric
>>> fab = FlumenFabric(8)
>>> fab.configure_communication({0: 3, 3: 0})
>>> print(render_fabric(fab))          # doctest: +SKIP
"""

from __future__ import annotations

import math

from repro.photonics.clements import MZIMesh
from repro.photonics.devices import is_bar, is_cross


def _state_char(theta: float) -> str:
    if is_cross(theta, tol=1e-6):
        return "X"
    if is_bar(theta, tol=1e-6):
        return "="
    return "/"


def render_mesh(mesh: MZIMesh, port_labels: bool = True) -> str:
    """Draw a mesh: one row per port, one column group per mesh column.

    Each MZI spans two adjacent rows; its state character appears on
    both.  Empty positions are plain waveguide (``-``).
    """
    cols = mesh.num_columns
    grid = [["-"] * max(cols, 1) for _ in range(mesh.n)]
    for mzi in mesh.mzis:
        ch = _state_char(mzi.theta)
        grid[mzi.top_mode][mzi.column] = ch
        grid[mzi.top_mode + 1][mzi.column] = ch
    lines = []
    for port in range(mesh.n):
        label = f"{port:2d} " if port_labels else ""
        lines.append(label + " ".join(grid[port]))
    return "\n".join(lines)


def render_fabric(fabric) -> str:
    """Draw a Flumen fabric: per-partition meshes, barriers, attenuators.

    Compute partitions render as ``#`` blocks (their SVD circuits are a
    separate structure); the attenuator column shows each attenuating
    MZI's transmission in tenths (``9`` ~ full pass, ``0`` ~ blocked).
    """
    from repro.photonics.fabric import PartitionKind

    width = fabric.n  # mesh columns (excluding the attenuator column)
    rows = []
    for part in fabric.partitions:
        if part.kind is PartitionKind.COMPUTE:
            for port in range(part.lo, part.hi):
                att = _attenuation_char(fabric, port)
                rows.append((port, "# " * width + f"| {att}", "compute"))
            continue
        if part.comm_mesh is None:
            for port in range(part.lo, part.hi):
                att = _attenuation_char(fabric, port)
                rows.append((port, "- " * width + f"| {att}", "idle"))
            continue
        sub = render_mesh(part.comm_mesh, port_labels=False).splitlines()
        for local, line in enumerate(sub):
            port = part.lo + local
            pad = line.ljust(2 * width - 1)
            att = _attenuation_char(fabric, port)
            rows.append((port, f"{pad} | {att}", "comm"))
    lines = []
    barrier_after = set(fabric.barrier_rows())
    for port, body, role in rows:
        lines.append(f"{port:2d}  {body}   ({role})")
        if port + 1 in barrier_after:
            lines.append("    " + "~" * (2 * width + 4) + " barrier")
    legend = ("legend: X cross, = bar, / split, - waveguide, # compute "
              "partition, | attenuator column (digit = transmission/10)")
    return "\n".join(lines + [legend])


def _attenuation_char(fabric, port: int) -> str:
    t = float(fabric.attenuator_transmission[port])
    return str(min(9, int(math.floor(t * 10))))
