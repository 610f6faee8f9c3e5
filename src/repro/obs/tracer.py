"""Span/event tracer whose clock is *simulation cycles*, not wall time.

Events carry a ``(layer, track)`` coordinate that maps onto the Chrome
trace-event ``(pid, tid)`` pair, so a run renders in Perfetto /
``chrome://tracing`` as one process row per model layer (engine,
multicore, noc, core, photonics) with one thread row per track (a node,
a fabric port range, a cache, ...).

Because timestamps are deterministic simulation state — never
``time.time()`` — two runs with the same seed produce byte-identical
traces, which makes trace files diffable regression artifacts.

The default backend is :class:`NullTracer`: every emit is a no-op and
``enabled`` is ``False`` so hot paths can skip argument building
entirely (``if tracer.enabled: ...``).
"""

from __future__ import annotations

#: Model layers, in fixed pid order (pid = index + 1).
LAYERS = ("engine", "multicore", "noc", "core", "photonics")

_PIDS = {layer: i + 1 for i, layer in enumerate(LAYERS)}


class CycleTracer:
    """Recording tracer: appends Chrome-trace-event dicts in emit order."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[dict] = []
        #: (layer, track label) -> tid, assigned in first-use order.
        self._tids: dict[tuple[str, str], int] = {}

    # ------------------------------------------------------------------

    def _coords(self, layer: str, track: str) -> tuple[int, int]:
        if layer not in _PIDS:
            raise ValueError(f"unknown layer {layer!r}; known: {LAYERS}")
        key = (layer, track)
        tid = self._tids.get(key)
        if tid is None:
            tid = len([1 for k in self._tids if k[0] == layer]) + 1
            self._tids[key] = tid
        return _PIDS[layer], tid

    def instant(self, layer: str, track: str, name: str, cycle: int,
                **args: object) -> None:
        """A point event (``ph: "i"``) at one simulation cycle."""
        pid, tid = self._coords(layer, track)
        self.events.append({"name": name, "ph": "i", "ts": int(cycle),
                            "pid": pid, "tid": tid, "s": "t",
                            "args": args})

    def complete(self, layer: str, track: str, name: str,
                 start_cycle: int, end_cycle: int, **args: object) -> None:
        """A closed span (``ph: "X"``) covering ``[start, end]`` cycles."""
        pid, tid = self._coords(layer, track)
        self.events.append({"name": name, "ph": "X",
                            "ts": int(start_cycle),
                            "dur": max(int(end_cycle) - int(start_cycle), 0),
                            "pid": pid, "tid": tid, "args": args})

    def counter(self, layer: str, track: str, name: str, cycle: int,
                **values: float) -> None:
        """A counter sample (``ph: "C"``) — renders as a timeline plot."""
        pid, tid = self._coords(layer, track)
        self.events.append({"name": name, "ph": "C", "ts": int(cycle),
                            "pid": pid, "tid": tid, "args": values})

    # ------------------------------------------------------------------

    def metadata_events(self) -> list[dict]:
        """Process/thread naming events for the trace viewer."""
        meta: list[dict] = []
        for layer in LAYERS:
            meta.append({"name": "process_name", "ph": "M", "ts": 0,
                         "pid": _PIDS[layer], "tid": 0,
                         "args": {"name": layer}})
        for (layer, track), tid in self._tids.items():
            meta.append({"name": "thread_name", "ph": "M", "ts": 0,
                         "pid": _PIDS[layer], "tid": tid,
                         "args": {"name": track}})
        return meta

    def events_by_layer(self) -> dict[str, int]:
        """Event counts per layer (diagnostics and tests)."""
        by_pid: dict[int, int] = {}
        for event in self.events:
            by_pid[event["pid"]] = by_pid.get(event["pid"], 0) + 1
        return {layer: by_pid.get(_PIDS[layer], 0) for layer in LAYERS}


class NullTracer:
    """No-op backend; ``enabled`` is False so callers can skip emits."""

    enabled = False

    #: Shared empty list — never mutated (all emits are no-ops).
    events: list[dict] = []

    def instant(self, layer: str, track: str, name: str, cycle: int,
                **args: object) -> None:
        pass

    def complete(self, layer: str, track: str, name: str,
                 start_cycle: int, end_cycle: int, **args: object) -> None:
        pass

    def counter(self, layer: str, track: str, name: str, cycle: int,
                **values: float) -> None:
        pass

    def metadata_events(self) -> list[dict]:
        return []

    def events_by_layer(self) -> dict[str, int]:
        return {layer: 0 for layer in LAYERS}


#: Process-wide default backend for uninstrumented runs.
NULL_TRACER = NullTracer()
