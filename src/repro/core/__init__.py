"""The paper's contribution: offload mapping, control unit, Algorithm 1
scheduler, and the end-to-end system model.
"""

from repro.core.accelerator import (
    BlockMatmul,
    OffloadPlan,
    conv2d_as_matmul,
    im2col,
    kernels_to_matrix,
    pad_to_blocks,
    pad_vectors,
    plan_offload,
)
from repro.core.control_unit import (
    ComputeRequest,
    MatrixMemory,
    MZIMControlUnit,
)
from repro.core.offload import Decision, OffloadPolicy
from repro.core.pipelines import CONFIGURATIONS, ConfigPipeline
from repro.core.scheduler import (
    ActiveComputation,
    FlumenScheduler,
    SchedulerStats,
    compute_duration_cycles,
)
from repro.core.system import SystemModel, WorkloadRun

__all__ = [
    "ActiveComputation",
    "BlockMatmul",
    "CONFIGURATIONS",
    "ConfigPipeline",
    "ComputeRequest",
    "Decision",
    "FlumenScheduler",
    "OffloadPolicy",
    "MZIMControlUnit",
    "MatrixMemory",
    "OffloadPlan",
    "SchedulerStats",
    "SystemModel",
    "WorkloadRun",
    "compute_duration_cycles",
    "conv2d_as_matmul",
    "im2col",
    "kernels_to_matrix",
    "pad_to_blocks",
    "pad_vectors",
    "plan_offload",
]
