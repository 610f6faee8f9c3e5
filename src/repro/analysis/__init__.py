"""Metrics, sweeps, exports, and paper-style reporting."""

from repro.analysis.engine import (
    TASKS,
    PointResult,
    PointSpec,
    ResultCache,
    RunTelemetry,
    SweepEngine,
    SweepRun,
    code_version,
    default_jobs,
    point_seed,
    register_task,
)
from repro.analysis.export import (
    runs_to_records,
    sweep_to_records,
    to_csv,
    to_json,
    write_records,
)
from repro.analysis.metrics import (
    edp_reduction,
    energy_reduction,
    geomean,
    percent_reduction,
    reductions_vs,
    speedup,
)
from repro.analysis.report import (
    ascii_chart,
    format_ratio,
    format_table,
)
from repro.analysis.sweep import (
    SweepPoint,
    best_of,
    knee_of,
    sweep,
    sweep_task,
)

__all__ = [
    "TASKS",
    "PointResult",
    "PointSpec",
    "ResultCache",
    "RunTelemetry",
    "SweepEngine",
    "SweepPoint",
    "SweepRun",
    "ascii_chart",
    "best_of",
    "code_version",
    "default_jobs",
    "edp_reduction",
    "energy_reduction",
    "format_ratio",
    "format_table",
    "geomean",
    "knee_of",
    "percent_reduction",
    "point_seed",
    "reductions_vs",
    "register_task",
    "runs_to_records",
    "speedup",
    "sweep",
    "sweep_task",
    "sweep_to_records",
    "to_csv",
    "to_json",
    "write_records",
]
