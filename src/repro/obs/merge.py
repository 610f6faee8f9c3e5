"""Merging per-replica telemetry streams into one validating timeline.

A replica-sharded serving tier (:mod:`repro.serve.cluster`) runs R
independent daemons, each with its own :class:`~repro.obs.Obs` bundle:
R event logs and R snapshot series, every one starting its cycle
counter at zero.  The cluster surfaces *one* merged view, so the
streams must land on a single non-decreasing timeline — the same
problem :class:`~repro.obs.events.MonotoneClock` solves for restarting
component-local counters, applied across replicas instead of across
runs.

Replica streams are interleaved by ``(cycle, replica, seq)`` — each
input stream is already cycle-monotone, so the sorted merge is
monotone by construction and the per-replica emission order is
preserved — then re-enveloped: ``seq`` is reassigned contiguously over
the merged stream (``validate_events`` requires ``seq == index``),
``cycle`` is re-driven through one shared :class:`MonotoneClock`, and
the source replica index rides along as a ``replica`` payload field.
The merge is a pure function of the input streams, so a cluster's
merged telemetry is byte-identical however the replicas were executed
(sequentially or across a process pool).
"""

from __future__ import annotations

from repro.obs.events import MonotoneClock

#: Payload key carrying the source replica index in merged records.
REPLICA_KEY = "replica"


def _merge(streams: list[list[dict]]) -> list[dict]:
    """Interleave per-replica records by ``(cycle, replica, seq)``,
    reassign ``seq``, rebase ``cycle`` and tag the source ``replica``."""
    tagged = sorted(((record["cycle"], replica, record["seq"], record)
                     for replica, stream in enumerate(streams)
                     for record in stream), key=lambda item: item[:3])
    clock = MonotoneClock()
    merged: list[dict] = []
    for _, replica, _, record in tagged:
        out = dict(record)
        out["seq"] = len(merged)
        out["cycle"] = clock.advance(record["cycle"])
        out[REPLICA_KEY] = replica
        merged.append(out)
    return merged


def merge_event_logs(streams: list[list[dict]]) -> list[dict]:
    """Merge per-replica event records into one validating stream.

    Each input stream must be a list of event records (dicts) as
    emitted by an :class:`~repro.obs.events.EventLog`.  The result
    passes :func:`~repro.obs.export.validate_events`: contiguous
    ``seq``, non-decreasing ``cycle`` (rebased through one
    :class:`MonotoneClock`), with every record tagged by its source
    ``replica``.  Input records are not mutated.
    """
    return _merge(streams)


def merge_snapshot_series(series: list[list[dict]]) -> list[dict]:
    """Merge per-replica snapshot series onto one monotone timeline.

    Same envelope treatment as :func:`merge_event_logs`.  Snapshot
    ``metrics`` payloads are carried through untouched — aggregation
    across replicas is the cluster store's job, not the merge's.
    """
    return _merge(series)
