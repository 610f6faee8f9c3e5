"""Registry of mesh architectures (the photonic twin of ``noc/registry``).

``MESHES`` maps an architecture name to a factory
``(**kwargs) -> MeshArchitecture``.  The SVD programmer, the Flumen
fabric, the calibration loop, the fault campaign, the sweep tasks and
the CLIs all resolve architectures here, so adding a mesh arrangement is
one ``MESHES.register`` call — no edits to the decomposition call sites,
the energy model, or the sweeps.

Each name holds one architecture, which simulates with the columnized
kernels of :class:`~repro.photonics.clements.MZIMesh`.  The per-MZI
loops those kernels are pinned against are not part of the package:
they live with the equivalence suite, which runs every registered
architecture through them (``tests/reference_photonics.py``, DESIGN.md
§16).

A :class:`MeshArchitecture` fixes the contract every fabric must
satisfy: decompose-to-mesh, fault domains for the injector, and
depth/device-count accounting for the energy model.  Simulation
(``matrix``/``propagate``), hop counts and the stacking signature
(:func:`repro.photonics.batch.plan_signature`) belong to the mesh
program itself, so callers ask the mesh.

The three architectures register themselves below; ``reck`` and
``bricks`` import their decomposition module on first use, keeping this
module import-cycle-free and cheap to load.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.photonics.clements import MZIMesh, decompose
from repro.registry import Registry


@dataclass(frozen=True)
class MeshArchitecture:
    """One mesh arrangement: decomposition, simulation, and accounting.

    Instances are stateless dispatch tables — the mesh *program* stays an
    :class:`~repro.photonics.clements.MZIMesh` (MZI states in propagation
    order plus the output phase screen), which every architecture shares;
    the architecture decides how a unitary is factored onto it, how the
    virtual columns map to physical hardware, and what the depth/device
    accounting of that hardware is.
    """

    name: str
    #: ``(unitary, tol) -> MZIMesh`` in propagation order.
    decompose_fn: Callable[..., MZIMesh]
    #: Worst-case virtual mesh columns at size ``n``.
    depth_fn: Callable[[int], int]
    #: Physical MZI devices a size-``n`` unitary mesh occupies.
    device_count_fn: Callable[[int], int]
    #: Recirculation passes through the physical structure (1 for
    #: single-pass rectangles/triangles).
    passes_fn: Callable[[int], int]
    #: ``(mesh, index) -> tuple`` of virtual MZI indices sharing the
    #: physical device of ``index`` (None: devices map one-to-one).
    fault_domain_fn: Callable | None = None

    # -- decomposition and fault domains --------------------------------

    def decompose(self, unitary: np.ndarray, tol: float = 1e-9) -> MZIMesh:
        """Factor ``unitary`` into this architecture's mesh program."""
        return self.decompose_fn(unitary, tol)

    def fault_domain(self, mesh: MZIMesh, index: int) -> tuple[int, ...]:
        """Virtual indices sharing ``index``'s physical device.

        Single-pass meshes map virtual MZIs one-to-one onto hardware;
        recirculating meshes reuse each physical device every pass, so a
        stuck device pins every virtual MZI it serves.
        """
        if self.fault_domain_fn is None:
            return (index,)
        return self.fault_domain_fn(mesh, index)

    # -- accounting ----------------------------------------------------

    def depth(self, n: int) -> int:
        """Worst-case virtual columns of a size-``n`` unitary mesh."""
        return self.depth_fn(n)

    def device_count(self, n: int) -> int:
        """Physical MZIs a size-``n`` unitary mesh occupies."""
        return self.device_count_fn(n)

    def program_mzi_count(self, n: int) -> int:
        """Programmed MZI states of a size-``n`` unitary (universal)."""
        return n * (n - 1) // 2

    def passes(self, n: int) -> int:
        """Recirculation passes light makes through the hardware."""
        return self.passes_fn(n)


MESHES = Registry("mesh architecture")


def make_mesh(name: str | MeshArchitecture, **kwargs) -> MeshArchitecture:
    """Resolve an architecture by name (an instance passes through)."""
    if isinstance(name, MeshArchitecture):
        return name
    return MESHES.get(name)(**kwargs)


def decomposer(architecture: str | MeshArchitecture | None
               ) -> Callable[..., MZIMesh]:
    """The ``(unitary, tol) -> MZIMesh`` decomposition of ``architecture``
    (``None``: Clements), resolved through :func:`make_mesh`."""
    return make_mesh(architecture or "clements").decompose


# -- the three architectures ------------------------------------------------


@MESHES.register("clements")
def _make_clements(**kwargs) -> MeshArchitecture:
    return MeshArchitecture(
        name="clements",
        decompose_fn=decompose,
        depth_fn=lambda n: max(0, n) if n != 1 else 0,
        device_count_fn=lambda n: n * (n - 1) // 2,
        passes_fn=lambda n: 1,
    )


@MESHES.register("reck")
def _make_reck(**kwargs) -> MeshArchitecture:
    from repro.photonics.reck import decompose_reck
    return MeshArchitecture(
        name="reck",
        decompose_fn=decompose_reck,
        depth_fn=lambda n: 0 if n < 2 else 2 * n - 3,
        device_count_fn=lambda n: n * (n - 1) // 2,
        passes_fn=lambda n: 1,
    )


@MESHES.register("bricks")
def _make_bricks(**kwargs) -> MeshArchitecture:
    from repro.photonics.bricks import (
        brick_fault_domain,
        bricks_depth,
        bricks_device_count,
        bricks_passes,
        decompose_bricks,
    )
    return MeshArchitecture(
        name="bricks",
        decompose_fn=decompose_bricks,
        depth_fn=bricks_depth,
        device_count_fn=bricks_device_count,
        passes_fn=bricks_passes,
        fault_domain_fn=brick_fault_domain,
    )
