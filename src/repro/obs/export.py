"""Exporters: Chrome trace-event JSON and canonical JSONL.

``chrome_trace_payload`` produces the JSON object format of the Chrome
trace-event specification (loadable in Perfetto and ``chrome://tracing``):
metadata naming events first, then every recorded event in emission
order.  Serialization is canonical (sorted keys, fixed separators) so
identical simulations produce byte-identical files.

``validate_chrome_trace`` is the minimal schema check the CI smoke job
and the tests run against emitted traces: every event must carry
``name`` / ``ph`` / ``ts`` / ``pid`` / ``tid``.

``write_metrics_jsonl`` writes any record stream — metric snapshots or
the structured event log (:mod:`repro.obs.events`) — as JSONL, one
canonical record per line; ``load_and_validate_events`` is the event
log's read side.  The loader is deliberately paranoid — it flags
truncated lines, unknown schema versions, sequence numbers that are
not contiguous (a bounded log may start past zero), non-monotonic
cycle timestamps, unknown event types, and missing per-type payload
fields, because consumers (``metrics-server --check``, ``serve
--check``, ``repro top``) ingest logs they did not write.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable
from pathlib import Path

from repro.obs.events import EVENT_SCHEMA_VERSION, EVENT_TYPES
from repro.obs.tracer import CycleTracer, NullTracer

#: Event keys every Chrome trace event must carry.
REQUIRED_EVENT_KEYS = ("name", "ph", "ts", "pid", "tid")
#: Phase codes this tracer can emit (plus metadata).
KNOWN_PHASES = ("X", "i", "C", "M", "B", "E")


def chrome_trace_payload(tracer: CycleTracer | NullTracer,
                         other_data: dict | None = None) -> dict:
    """Assemble the trace-event JSON object for one tracer."""
    payload: dict = {
        "traceEvents": tracer.metadata_events() + list(tracer.events),
        "displayTimeUnit": "ms",
    }
    if other_data:
        payload["otherData"] = dict(other_data)
    return payload


def _canonical(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_chrome_trace(path: str | os.PathLike,
                       tracer: CycleTracer | NullTracer,
                       other_data: dict | None = None) -> Path:
    """Write the Chrome trace JSON; returns the path written."""
    path = Path(path)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    payload = chrome_trace_payload(tracer, other_data)
    path.write_text(_canonical(payload) + "\n")
    return path


def write_metrics_jsonl(path: str | os.PathLike,
                        records: Iterable[dict]) -> Path:
    """Write snapshots or event records, one canonical-JSON object per line."""
    path = Path(path)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    lines = [_canonical(record) for record in records]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path


def validate_chrome_trace(payload: dict) -> list[str]:
    """Schema-check a trace payload; returns a list of problems (empty=ok).

    Checks the containing object shape, the required per-event keys, the
    phase codes, and that ``ts`` is numeric and non-negative.
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"payload is {type(payload).__name__}, expected object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["payload.traceEvents missing or not a list"]
    if not events:
        problems.append("traceEvents is empty")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event[{i}] is not an object")
            continue
        missing = [k for k in REQUIRED_EVENT_KEYS if k not in event]
        if missing:
            problems.append(f"event[{i}] missing keys {missing}")
            continue
        if event["ph"] not in KNOWN_PHASES:
            problems.append(f"event[{i}] has unknown phase {event['ph']!r}")
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event[{i}] has invalid ts {ts!r}")
        if event["ph"] == "X" and "dur" not in event:
            problems.append(f"event[{i}] is a complete span without dur")
    return problems


def load_and_validate(path: str | os.PathLike) -> list[str]:
    """Read a trace file from disk and schema-check it."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable trace {path}: {exc}"]
    return validate_chrome_trace(payload)


# ----------------------------------------------------------------------
# structured event log (repro.obs.events) read side


def _validate_event_record(i: int, record: object,
                           problems: list[str]) -> dict | None:
    """Envelope checks for one parsed record; returns it when usable."""
    if not isinstance(record, dict):
        problems.append(f"event[{i}] is not an object")
        return None
    missing = [k for k in ("v", "seq", "cycle", "type") if k not in record]
    if missing:
        problems.append(f"event[{i}] missing envelope keys {missing}")
        return None
    if record["v"] != EVENT_SCHEMA_VERSION:
        problems.append(f"event[{i}] has unknown schema version "
                        f"{record['v']!r} (expected "
                        f"{EVENT_SCHEMA_VERSION})")
        return None
    return record


def validate_events(records: list[object]) -> list[str]:
    """Schema-check parsed event records; returns problems (empty=ok)."""
    problems: list[str] = []
    last_cycle = None
    # ``seq`` of event[0]: a bounded log (``max_events``) evicts its
    # oldest records, so the stream may start past zero; from there
    # ``seq`` must be contiguous.
    base = None
    for i, raw in enumerate(records):
        record = _validate_event_record(i, raw, problems)
        if record is None:
            continue
        seq = record["seq"]
        if base is None:
            base = seq - i if isinstance(seq, int) and seq >= i else 0
        if seq != base + i:
            problems.append(f"event[{i}] has sequence {seq}, "
                            f"expected {base + i}")
        cycle = record["cycle"]
        if not isinstance(cycle, int) or cycle < 0:
            problems.append(f"event[{i}] has invalid cycle {cycle!r}")
        elif last_cycle is not None and cycle < last_cycle:
            problems.append(f"event[{i}] has non-monotonic cycle {cycle} "
                            f"(previous {last_cycle})")
        else:
            last_cycle = cycle
        required = EVENT_TYPES.get(record["type"])
        if required is None:
            problems.append(f"event[{i}] has unknown type "
                            f"{record['type']!r}")
        else:
            absent = [k for k in required if k not in record]
            if absent:
                problems.append(f"event[{i}] ({record['type']}) missing "
                                f"payload fields {absent}")
    return problems


def load_and_validate_events(path: str | os.PathLike) -> list[str]:
    """Read an event log from disk and schema-check it.

    Failure modes covered: unreadable file, truncated/unparseable JSONL
    lines, unknown schema versions, sequence gaps, non-monotonic cycle
    timestamps, unknown event types, missing payload fields.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        return [f"unreadable event log {path}: {exc}"]
    problems: list[str] = []
    records: list[object] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except ValueError:
            problems.append(f"line {lineno}: unparseable JSON "
                            "(truncated write?)")
    return problems + validate_events(records)
