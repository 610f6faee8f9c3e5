"""Live telemetry: Prometheus exposition, HTTP endpoint, terminal view.

Everything here is stdlib-only.  The pieces:

* :func:`prometheus_exposition` — render a registry snapshot
  (:meth:`MetricsRegistry.to_dict` shape) in the Prometheus text
  exposition format (version 0.0.4): counters as ``_total`` series,
  histograms with cumulative ``le`` buckets plus ``_sum``/``_count``,
  timers as summaries.
* :func:`parse_exposition` — a minimal parser/validator for that format;
  CI scrapes the endpoint and fails if the exposition does not parse or
  histogram buckets are not cumulative.
* :func:`write_telemetry_dir` / :func:`validate_telemetry` — the one
  writer and the one check of a telemetry directory's contents.
* :class:`TelemetryStore` — read side of a telemetry directory
  (``events.jsonl`` + ``snapshots.jsonl`` + ``metrics.prom``); files are
  re-read per request, so a directory being appended to serves live data.
* The HTTP endpoint that serves a store lives in
  :mod:`repro.obs.server`, so reading a directory loads no
  ``http.server``.
* :func:`render_top` — the ``python -m repro top`` frame: hottest
  counters, gauges, histogram quantiles, per-tenant accounting, and the
  most recent events.

Determinism note: the exposition of a *snapshot* is a pure function of
its bytes, so same-seed runs produce byte-identical ``metrics.prom``
files.  Only the HTTP side lives on the wall clock, and it only
*reads*: ``repro serve --http-port`` proves the contract by serving a
live session through :class:`~repro.serve.live.LiveTelemetryStore`
with byte-identical artifacts whether or not a scraper is attached.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Iterable
from pathlib import Path

from repro.obs.export import (
    load_and_validate_events,
    validate_events,
    write_metrics_jsonl,
)

#: File names inside a telemetry directory.
EVENTS_FILE = "events.jsonl"
SNAPSHOTS_FILE = "snapshots.jsonl"
EXPOSITION_FILE = "metrics.prom"

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"       # metric name
    r"(\{[^}]*\})?"                       # optional label set
    r" (-?(?:[0-9.]+(?:[eE][-+]?[0-9]+)?)|[-+]?Inf|NaN)$")
_TYPE_LINE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (\w+)$")
_KNOWN_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


# ----------------------------------------------------------------------
# series-key plumbing


def parse_series_key(key: str) -> tuple[str, dict[str, str]]:
    """Split a flat registry key ``name{k=v,...}`` into name + labels."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels: dict[str, str] = {}
    for pair in inner[:-1].split(","):
        if not pair:
            continue
        k, _, v = pair.partition("=")
        labels[k] = v
    return name, labels


def _prom_name(name: str, namespace: str) -> str:
    return _NAME_SANITIZE.sub("_", f"{namespace}_{name}" if namespace
                              else name)


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _label_str(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"'
                     for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    f = float(value)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _grouped(series: dict, namespace: str):
    """Yield (prom_name, labels, value_dict_or_scalar) grouped by name."""
    by_name: dict[str, list[tuple[dict, object]]] = {}
    for key in sorted(series):
        name, labels = parse_series_key(key)
        by_name.setdefault(_prom_name(name, namespace), []).append(
            (labels, series[key]))
    for prom in sorted(by_name):
        yield prom, by_name[prom]


# ----------------------------------------------------------------------
# exposition (write side)


def _expose_counters(lines: list[str], counters: dict,
                     namespace: str) -> None:
    for prom, entries in _grouped(counters, namespace):
        # Counter convention: one ``_total`` suffix, never doubled for
        # registry names that already carry it (engine.points_total).
        name = prom if prom.endswith("_total") else f"{prom}_total"
        lines.append(f"# TYPE {name} counter")
        for labels, value in entries:
            lines.append(f"{name}{_label_str(labels)} {_fmt(value)}")


def _expose_gauges(lines: list[str], gauges: dict, namespace: str) -> None:
    for prom, entries in _grouped(gauges, namespace):
        lines.append(f"# TYPE {prom} gauge")
        for labels, value in entries:
            lines.append(f"{prom}{_label_str(labels)} {_fmt(value)}")


def _le_key(le: str) -> float:
    return float("inf") if le == "+Inf" else float(le)


def _expose_histograms(lines: list[str], histograms: dict,
                       namespace: str) -> None:
    for prom, entries in _grouped(histograms, namespace):
        lines.append(f"# TYPE {prom} histogram")
        for labels, snap in entries:
            # JSON round-trips sort bucket keys alphabetically; re-sort
            # numerically so the text format lists increasing le bounds.
            for le, cum in sorted(snap["buckets"].items(),
                                  key=lambda kv: _le_key(kv[0])):
                bucket_labels = dict(labels, le=le)
                lines.append(
                    f"{prom}_bucket{_label_str(bucket_labels)} {_fmt(cum)}")
            lines.append(f"{prom}_sum{_label_str(labels)} "
                         f"{_fmt(snap['sum'])}")
            lines.append(f"{prom}_count{_label_str(labels)} "
                         f"{_fmt(snap['count'])}")


def _expose_timers(lines: list[str], timers: dict, namespace: str) -> None:
    for prom, entries in _grouped(timers, namespace):
        lines.append(f"# TYPE {prom} summary")
        for labels, snap in entries:
            if "sum_s" in snap:
                lines.append(f"{prom}_sum{_label_str(labels)} "
                             f"{_fmt(snap['sum_s'])}")
            lines.append(f"{prom}_count{_label_str(labels)} "
                         f"{_fmt(snap['count'])}")


def prometheus_exposition(metrics: dict, namespace: str = "repro",
                          extra_gauges: dict | None = None) -> str:
    """Render one registry snapshot in Prometheus text format.

    ``metrics`` is the :meth:`MetricsRegistry.to_dict` shape.
    ``extra_gauges`` (flat key -> value) lets callers append synthetic
    series such as the telemetry stream's own positions.
    """
    lines: list[str] = []
    _expose_counters(lines, metrics.get("counters", {}), namespace)
    _expose_gauges(lines, metrics.get("gauges", {}), namespace)
    _expose_histograms(lines, metrics.get("histograms", {}), namespace)
    _expose_timers(lines, metrics.get("timers", {}), namespace)
    if extra_gauges:
        _expose_gauges(lines, extra_gauges, namespace)
    return "\n".join(lines) + ("\n" if lines else "")


def registry_exposition(registry, namespace: str = "repro",
                        wall_time: bool = True) -> str:
    """Exposition of a live registry (wall-clock timer sums included)."""
    return prometheus_exposition(registry.to_dict(wall_time=wall_time),
                                 namespace=namespace)


# ----------------------------------------------------------------------
# exposition (parse/validate side)


def _check_bucket_monotonic(buckets: dict[tuple, list], problems: list[str],
                            samples: dict[str, float]) -> None:
    for (name, labelkey), les in buckets.items():
        cums = [samples[f"{name}|{labelkey}|{le}"]
                for le in sorted(les, key=_le_key)]
        if any(b < a for a, b in zip(cums, cums[1:])):
            problems.append(f"histogram {name}{{{labelkey}}} buckets are "
                            "not cumulative")


def parse_exposition(text: str) -> tuple[dict[str, float], list[str]]:
    """Parse Prometheus text format; returns (samples, problems).

    ``samples`` maps ``name{labels}`` back to the parsed float value.
    ``problems`` is empty for a well-formed exposition; it flags
    syntactically invalid lines, unknown TYPE declarations, duplicate
    samples, and non-cumulative histogram buckets.
    """
    samples: dict[str, float] = {}
    problems: list[str] = []
    buckets: dict[tuple, list] = {}
    raw: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            m = _TYPE_LINE.match(line)
            if line.startswith("# TYPE"):
                if not m:
                    problems.append(f"line {lineno}: malformed TYPE line")
                elif m.group(2) not in _KNOWN_TYPES:
                    problems.append(f"line {lineno}: unknown metric type "
                                    f"{m.group(2)!r}")
            continue
        m = _SAMPLE_LINE.match(line)
        if not m:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name, labelpart, value = m.group(1), m.group(2) or "", m.group(3)
        sample_key = f"{name}{labelpart}"
        if sample_key in samples:
            problems.append(f"line {lineno}: duplicate sample "
                            f"{sample_key}")
        samples[sample_key] = float(value.replace("Inf", "inf"))
        if name.endswith("_bucket"):
            labels = dict(re.findall(r'([a-zA-Z0-9_]+)="((?:[^"\\]|\\.)*)"',
                                     labelpart))
            le = labels.pop("le", None)
            if le is None:
                problems.append(f"line {lineno}: bucket sample without le")
                continue
            labelkey = ",".join(f"{k}={v}"
                                for k, v in sorted(labels.items()))
            buckets.setdefault((name, labelkey), []).append(le)
            raw[f"{name}|{labelkey}|{le}"] = samples[sample_key]
    _check_bucket_monotonic(buckets, problems, raw)
    return samples, problems


# ----------------------------------------------------------------------
# telemetry directory: write + read sides


def write_telemetry_dir(root: str | os.PathLike, events: Iterable[dict],
                        snapshots: Iterable[dict],
                        exposition: str) -> dict[str, Path]:
    """Write one telemetry directory into ``root``.

    ``events.jsonl`` (the structured event log), ``snapshots.jsonl``
    (the cycle-driven snapshot series) and ``metrics.prom`` (the
    final-state exposition) — the one writer for a sweep's or a serve
    daemon's :class:`~repro.obs.Obs` bundle and a serve cluster's
    merged view alike.  All three are canonical, so same-seed runs
    produce byte-identical directories.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    (root / EXPOSITION_FILE).write_text(exposition)
    return {
        "events": write_metrics_jsonl(root / EVENTS_FILE, events),
        "snapshots": write_metrics_jsonl(root / SNAPSHOTS_FILE, snapshots),
        "exposition": root / EXPOSITION_FILE,
    }


def validate_telemetry(events: list[object] | str | os.PathLike,
                       exposition: str) -> list[str]:
    """Problems of an event stream plus an exposition (empty = ok).

    ``events`` is a list of parsed records, or the path of an
    ``events.jsonl`` to load (its truncated lines are flagged too).
    This is the one telemetry check behind ``serve --check`` (single
    daemon and cluster) and ``metrics-server --check``.
    """
    if isinstance(events, (str, os.PathLike)):
        problems = load_and_validate_events(events)
    else:
        problems = validate_events(events)
    _, expo_problems = parse_exposition(exposition)
    return problems + [f"exposition: {p}" for p in expo_problems]


def tail(records: list, n: int) -> list:
    """The last ``n`` records; none for ``n <= 0`` (``?tail=N``)."""
    return records[-n:] if n > 0 else []


class TelemetryStore:
    """Read side of a telemetry directory; files re-read per request.

    The in-memory serve stores
    (:class:`~repro.serve.live.LiveTelemetryStore`,
    :class:`~repro.serve.cluster.ClusterTelemetryStore`) subclass it,
    overriding :meth:`events` and :meth:`snapshots`.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    def _jsonl(self, name: str) -> list[dict]:
        path = self.root / name
        if not path.exists():
            return []
        records = []
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                # A line mid-write; serve what parsed.
                break
        return records

    def events(self) -> list[dict]:
        """Every event record currently on disk (re-read per call)."""
        return self._jsonl(EVENTS_FILE)

    def events_tail(self, n: int) -> list[dict]:
        """The most recent ``n`` events (``/events?tail=N``)."""
        return tail(self.events(), n)

    def snapshots(self) -> list[dict]:
        """Every snapshot currently on disk (re-read per call)."""
        return self._jsonl(SNAPSHOTS_FILE)

    def latest_snapshot(self) -> dict | None:
        """The most recent snapshot, or None for an empty directory."""
        snaps = self.snapshots()
        return snaps[-1] if snaps else None

    def exposition(self) -> str:
        """Prometheus text for the latest snapshot (plus stream meta)."""
        snap = self.latest_snapshot()
        if snap is None:
            path = self.root / EXPOSITION_FILE
            return path.read_text() if path.exists() else ""
        meta = {
            "telemetry.snapshot_cycle": snap["cycle"],
            "telemetry.snapshots": len(self.snapshots()),
            "telemetry.events": len(self.events()),
        }
        return prometheus_exposition(snap["metrics"], extra_gauges=meta)

    def health(self) -> dict:
        """``/healthz`` body: status plus stream sizes."""
        return {"status": "ok", "root": str(self.root),
                "snapshots": len(self.snapshots()),
                "events": len(self.events())}


# ----------------------------------------------------------------------
# `repro top` frame rendering


def _top_section(title: str, rows: list[tuple], widths: tuple) -> list[str]:
    if not rows:
        return []
    lines = [title]
    for row in rows:
        cells = [str(c).ljust(w) if i == 0 else str(c).rjust(w)
                 for i, (c, w) in enumerate(zip(row, widths))]
        lines.append("  " + "  ".join(cells).rstrip())
    lines.append("")
    return lines


def _tenant_totals(counters: dict) -> dict[str, float]:
    totals: dict[str, float] = {}
    for key, value in counters.items():
        _, labels = parse_series_key(key)
        tenant = labels.get("tenant")
        if tenant is not None:
            totals[tenant] = totals.get(tenant, 0) + value
    return totals


def _event_line(event: dict) -> str:
    skip = {"v", "seq", "cycle", "type"}
    detail = " ".join(f"{k}={event[k]}" for k in event if k not in skip)
    if len(detail) > 60:
        detail = detail[:57] + "..."
    return f"@{event['cycle']:<8d} {event['type']:<20s} {detail}".rstrip()


def render_top(store: TelemetryStore, top_n: int = 10,
               events_tail: int = 8) -> str:
    """One ``repro top`` frame as a plain string (no ANSI control)."""
    snap = store.latest_snapshot()
    events = store.events()
    lines = [f"repro top — {store.root}"]
    if snap is None:
        lines.append("  (no snapshots yet)")
        return "\n".join(lines) + "\n"
    metrics = snap["metrics"]
    lines.append(f"  cycle={snap['cycle']} snapshots={snap['seq'] + 1} "
                 f"events={len(events)}")
    lines.append("")
    counters = metrics.get("counters", {})
    hottest = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))
    lines += _top_section(
        f"counters (top {top_n} by value)",
        [(k, _fmt(v)) for k, v in hottest[:top_n]], (44, 12))
    lines += _top_section(
        "gauges",
        [(k, _fmt(v)) for k, v in sorted(metrics.get("gauges",
                                                     {}).items())],
        (44, 12))
    hist_rows = [
        (k, h["count"], _fmt(round(h.get("p50", 0.0), 3)),
         _fmt(round(h.get("p95", 0.0), 3)),
         _fmt(round(h.get("p99", 0.0), 3)))
        for k, h in sorted(metrics.get("histograms", {}).items())]
    lines += _top_section("histograms (count / p50 / p95 / p99)",
                          hist_rows, (44, 8, 8, 8, 8))
    tenants = _tenant_totals(counters)
    lines += _top_section(
        "per-tenant accounting (counter totals)",
        [(t, _fmt(v)) for t, v in sorted(tenants.items())], (24, 12))
    lines += _top_section(
        f"recent events (last {events_tail})",
        [(_event_line(e),) for e in tail(events, events_tail)], (0,))
    return "\n".join(lines).rstrip() + "\n"
