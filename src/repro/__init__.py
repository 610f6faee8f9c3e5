"""Flumen: dynamic processing in the photonic interconnect — reproduction.

A full-system reproduction of the ISCA 2023 paper: a dual-purpose photonic
network-on-package that communicates between chiplets and, when network load
is low, computes linear algebra inside the interconnect.

Every name has one import path: the module that defines it (for example
``from repro.photonics.fabric import FlumenFabric``).  The subpackages
below hold modules, not re-exported APIs; the exceptions are
``repro.obs`` (``Obs``, ``NULL_OBS``), ``repro.workloads`` (its factory
table) and ``repro.serve`` (``ServeConfig``, ``ServeDaemon``,
``ReplicaSet``).

Subpackages
-----------
``repro.photonics``
    MZI/MZIM transfer-matrix models, Clements decomposition, the Flumen
    fabric with its attenuator column and dynamic partitions, and the
    optical loss/power/noise models.
``repro.noc``
    Cycle-accurate network-on-package simulator: electrical ring/mesh
    wormhole routers, the shared optical bus, and the Flumen MZIM crossbar
    with wavefront arbitration.
``repro.core``
    The paper's contribution: the MZIM control unit, the Algorithm 1
    scheduler, the compute-offload mapping (block matmul, im2col), and the
    end-to-end system model.
``repro.multicore``
    Sniper/McPAT substitute: cache hierarchy, core throughput, per-component
    energy and area accounting.
``repro.workloads``
    The five evaluated applications, with golden NumPy references.
``repro.analysis``
    The sweep engine and its tasks, speedup/EDP metrics, exports, the
    ``repro perf`` harness and paper-style report rendering.
``repro.faults``
    Fault models, injection, the degradation ladder and fault campaigns.
``repro.obs``
    Metrics, cycle tracing, the event log, snapshots and telemetry; the
    HTTP endpoint is :mod:`repro.obs.server`.
``repro.serve``
    The long-lived serving daemon and its replica cluster.
"""

__version__ = "1.0.0"
