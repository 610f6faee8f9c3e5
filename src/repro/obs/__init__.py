"""Cross-layer observability: metrics, tracing, events, telemetry.

One :class:`Obs` bundle threads through every model layer (multicore,
noc, core/Algorithm 1, photonics, engine).  The default is
:data:`NULL_OBS` — every backend is an inert no-op — so uninstrumented
runs keep their performance and existing call sites need no changes.

Four backends ride in the bundle:

* ``metrics`` — :class:`MetricsRegistry`, labeled counters / gauges /
  histograms / timers (:mod:`repro.obs.metrics`).
* ``tracer`` — :class:`CycleTracer`, Chrome-trace span/instant events
  (:mod:`repro.obs.tracer`).
* ``events`` — :class:`EventLog`, the schema-versioned structured event
  log of runtime decisions (:mod:`repro.obs.events`).
* ``sampler`` — optional :class:`SnapshotSampler`, freezing the registry
  into a cycle-driven time-series (:mod:`repro.obs.snapshot`).

``Obs.active()`` builds a full recording bundle (post-hoc analysis:
trace + metrics + events); ``Obs.telemetry()`` builds the streaming
bundle (metrics + events + snapshots, no per-event trace) that
``python -m repro metrics-server`` / ``repro top`` read and the serve
daemon (:mod:`repro.serve`) streams over a running session.

Cycle-time semantics: all timestamps are simulation cycles (or a
component's own deterministic clock, e.g. the multicore layer's stream
offset), never wall time, so same-seed runs emit byte-identical traces,
event logs, and snapshot series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Every instrumented layer imports Obs and NULL_OBS from the package.
from repro.obs.events import NULL_EVENTS, EventLog, NullEventLog
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.snapshot import DEFAULT_INTERVAL_CYCLES, SnapshotSampler
from repro.obs.tracer import NULL_TRACER, CycleTracer, NullTracer

__all__ = ["NULL_OBS", "Obs"]


@dataclass(frozen=True)
class Obs:
    """The observability bundle handed to instrumented components."""

    metrics: MetricsRegistry = field(default_factory=lambda: NULL_REGISTRY)
    tracer: CycleTracer | NullTracer = field(
        default_factory=lambda: NULL_TRACER)
    events: EventLog | NullEventLog = field(
        default_factory=lambda: NULL_EVENTS)
    sampler: SnapshotSampler | None = None

    @property
    def enabled(self) -> bool:
        """True when any backend records anything."""
        return (self.metrics.enabled or self.tracer.enabled
                or self.events.enabled or self.sampler is not None)

    @classmethod
    def active(cls, snapshot_interval: int | None = None) -> Obs:
        """A full recording bundle: registry + tracer + event log.

        Pass ``snapshot_interval`` (cycles) to also attach a snapshot
        sampler sharing the event log's monotone clock.
        """
        metrics = MetricsRegistry()
        events = EventLog()
        sampler = None
        if snapshot_interval is not None:
            sampler = SnapshotSampler(metrics, snapshot_interval,
                                      event_log=events)
        return cls(metrics=metrics, tracer=CycleTracer(), events=events,
                   sampler=sampler)

    @classmethod
    def telemetry(cls,
                  snapshot_interval: int = DEFAULT_INTERVAL_CYCLES,
                  max_events: int | None = None) -> Obs:
        """The streaming bundle: metrics + events + snapshots, no tracer.

        This is what live consumers (``metrics-server`` / ``top`` /
        the serve daemon, :mod:`repro.serve`) run with: per-event
        Chrome tracing stays
        off (unbounded memory, the biggest overhead), while counters,
        the structured event log, and the cycle-driven snapshot series
        stay on.  ``max_events`` bounds the event log for long-lived
        processes.
        """
        metrics = MetricsRegistry()
        events = EventLog(max_events=max_events)
        sampler = SnapshotSampler(metrics, snapshot_interval,
                                  event_log=events)
        return cls(metrics=metrics, tracer=NULL_TRACER, events=events,
                   sampler=sampler)

    @classmethod
    def null(cls) -> Obs:
        """The shared inert bundle (the default everywhere)."""
        return NULL_OBS


#: Shared inert bundle; safe to use as a default argument.
NULL_OBS = Obs()
