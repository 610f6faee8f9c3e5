"""Trace runner: one fully-instrumented workload run, export-ready.

Builds an active :class:`~repro.obs.Obs` bundle, threads it through a
:class:`~repro.core.system.SystemModel`, and runs one workload under one
configuration so every layer emits into the same tracer:

* **engine** — the run-level span with runtime/energy totals,
* **multicore** — per-phase cache walks on the stream-offset clock,
* **noc** — packet lifecycle spans, link-busy and arbiter counters,
* **core** — Algorithm 1 decisions (beta evaluations, grants/deferrals,
  port block/unblock, offload admission),
* **photonics** — fabric reprogramming events with phase-write counts
  (the scheduler drives a real :class:`FlumenFabric` mirror when traced).

Timestamps are simulation cycles (per-layer deterministic clocks), so a
``(workload, configuration, seed)`` triple always produces byte-identical
trace files — the CLI (``python -m repro trace``) and the determinism
tests rely on this.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipelines import CONFIGURATIONS
from repro.core.system import SystemModel, WorkloadRun
from repro.obs import Obs
from repro.obs.export import chrome_trace_payload
from repro.obs.tracer import LAYERS

#: Configurations that exercise all five layers in one run.
DEFAULT_CONFIGURATION = "flumen_a"


@dataclass
class TraceRun:
    """An instrumented run plus everything needed to export it."""

    workload: str
    configuration: str
    shapes: str
    obs: Obs
    run: WorkloadRun

    def other_data(self) -> dict:
        """Run identity recorded in the trace's ``otherData`` block."""
        return {
            "workload": self.workload,
            "configuration": self.configuration,
            "shapes": self.shapes,
        }

    def payload(self) -> dict:
        """The Chrome trace-event JSON object for this run."""
        return chrome_trace_payload(self.obs.tracer,
                                    other_data=self.other_data())

    def metrics_snapshot(self) -> dict:
        """One JSONL-ready registry snapshot, tagged with run identity."""
        return {
            "workload": self.workload,
            "configuration": self.configuration,
            "shapes": self.shapes,
            "metrics": self.obs.metrics.to_dict(),
        }

    def layer_coverage(self) -> dict[str, int]:
        """Event counts per model layer (all five should be nonzero)."""
        return self.obs.tracer.events_by_layer()

    def missing_layers(self) -> list[str]:
        coverage = self.layer_coverage()
        return [layer for layer in LAYERS if not coverage.get(layer)]


def trace_workload(workload_name: str,
                   configuration: str = DEFAULT_CONFIGURATION,
                   shapes: str = "paper",
                   obs: Obs | None = None,
                   mesh_architecture: str | None = None) -> TraceRun:
    """Run one workload with full instrumentation attached.

    ``flumen_a`` (the default) is the only configuration whose execution
    path touches the scheduler and photonic fabric; baselines still
    produce engine/multicore/noc events.  Pass ``obs`` to substitute a
    different bundle (e.g. :meth:`Obs.telemetry` for a streaming
    event-log/snapshot run without the Chrome tracer), and
    ``mesh_architecture`` (a registry name) to trace the fabric mirror
    under a non-Clements arrangement.
    """
    from repro.analysis.tasks import _find_workload

    configuration = CONFIGURATIONS.get(configuration).name
    workload = _find_workload(workload_name, shapes)
    obs = obs if obs is not None else Obs.active()
    system = None
    if mesh_architecture is not None:
        from repro.config import SystemConfig
        system = SystemConfig().replace(mesh_architecture=mesh_architecture)
    run = SystemModel(system=system, obs=obs).run(workload, configuration)
    return TraceRun(workload=workload_name, configuration=configuration,
                    shapes=shapes, obs=obs, run=run)
