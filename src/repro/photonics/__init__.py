"""Photonic substrate: devices, MZIM meshes, the Flumen fabric, and power.

This package is the reproduction's replacement for the paper's Lumerical
INTERCONNECT models: exact transfer-matrix simulation of MZI meshes plus
analytic loss/power/noise accounting from the Table 2 device parameters.
"""

from repro.photonics.calibration import (
    CalibrationResult,
    PhaseOffsets,
    PhysicalMesh,
    calibrate_by_decomposition,
    calibrate_to,
)
from repro.photonics.clements import (
    DecompositionError,
    MZIMesh,
    decompose,
    is_unitary,
    random_unitary,
)
from repro.photonics.reck import decompose_reck, depth_comparison
from repro.photonics.bricks import decompose_bricks
from repro.photonics.registry import MESHES, MeshArchitecture, make_mesh
from repro.photonics.compute_energy import (
    ELECTRICAL_MAC_ENERGY_J,
    ComputeCalibration,
    ComputeEnergyBreakdown,
    MZIMComputeModel,
)
from repro.photonics.devices import (
    BAR_THETA,
    CROSS_THETA,
    SPLIT_THETA,
    MicroringResonator,
    MZIState,
    Photodiode,
    Waveguide,
    attenuator_theta,
    attenuator_transmission,
    mzi_transfer,
)
from repro.photonics.fabric import (
    FabricError,
    FlumenFabric,
    Partition,
    PartitionKind,
)
from repro.photonics.noise import (
    AnalogMVM,
    DetectorNoiseModel,
    drift_tolerance,
    effective_bits,
    matrix_fidelity_vs_bits,
    perturb_mesh_phases,
    power_for_bits,
    quantize,
    quantize_mesh_phases,
    quantize_svd_phases,
)
from repro.photonics.power import (
    LinkEnergyBreakdown,
    flumen_worst_loss_db,
    laser_power_sweep,
    laser_power_w,
    optbus_worst_loss_db,
    photonic_link_energy,
)
from repro.photonics.routing import (
    RoutingError,
    complete_partial_permutation,
    is_crossbar_program,
    multicast_unitary,
    permutation_matrix,
    program_broadcast,
    program_gather,
    program_multicast,
    program_point_to_point,
    received_power,
)
from repro.photonics.svd import (
    SVDProgram,
    UnitaryProgram,
    is_unitary_matrix,
    program_matrix,
    program_svd,
    program_unitary,
    spectral_scale,
)

__all__ = [
    "AnalogMVM",
    "BAR_THETA",
    "CROSS_THETA",
    "CalibrationResult",
    "PhaseOffsets",
    "PhysicalMesh",
    "calibrate_by_decomposition",
    "calibrate_to",
    "decompose_bricks",
    "decompose_reck",
    "depth_comparison",
    "MESHES",
    "MeshArchitecture",
    "make_mesh",
    "ComputeCalibration",
    "ComputeEnergyBreakdown",
    "DecompositionError",
    "DetectorNoiseModel",
    "ELECTRICAL_MAC_ENERGY_J",
    "FabricError",
    "FlumenFabric",
    "LinkEnergyBreakdown",
    "MicroringResonator",
    "MZIMComputeModel",
    "MZIMesh",
    "MZIState",
    "Partition",
    "PartitionKind",
    "Photodiode",
    "RoutingError",
    "SPLIT_THETA",
    "SVDProgram",
    "Waveguide",
    "attenuator_theta",
    "attenuator_transmission",
    "complete_partial_permutation",
    "decompose",
    "drift_tolerance",
    "effective_bits",
    "flumen_worst_loss_db",
    "is_crossbar_program",
    "is_unitary",
    "is_unitary_matrix",
    "matrix_fidelity_vs_bits",
    "laser_power_sweep",
    "laser_power_w",
    "multicast_unitary",
    "mzi_transfer",
    "optbus_worst_loss_db",
    "permutation_matrix",
    "perturb_mesh_phases",
    "photonic_link_energy",
    "power_for_bits",
    "program_broadcast",
    "program_gather",
    "program_matrix",
    "program_multicast",
    "program_point_to_point",
    "program_svd",
    "program_unitary",
    "quantize",
    "quantize_mesh_phases",
    "quantize_svd_phases",
    "random_unitary",
    "received_power",
    "spectral_scale",
    "UnitaryProgram",
]
