"""Replica-sharded serving tier: R independent daemons, one cluster.

A single :class:`~repro.serve.daemon.ServeDaemon` owns one photonic
fabric, so its MZIM ports are the throughput ceiling however many
tenants it serves.  A :class:`ReplicaSet` shards a session's tenants
across R independent daemons — replica ``r`` serves every R-th tenant
(``names[r::R]``) — each with its own fabric, scheduler, NoC, and
:class:`~repro.obs.Obs` bundle.  Capacity then scales with R while
every per-tenant stream stays *exactly* what the unsharded session
would have offered: arrival and matrix RNGs are keyed by tenant name
(:func:`~repro.analysis.engine.point_seed`), not by position, so a
shard draws byte-identical streams for its roster.

Each replica is one ``serve_replica`` point of the sweep engine
(:class:`~repro.analysis.engine.SweepEngine`, uncached): in-process in
shard order (the oracle ordering) or across the engine's process pool,
which captures a replica that raises or whose worker dies.  Each
replica is a pure function of its shard config, so the shard payloads
— report, event stream, snapshot series — are byte-identical whichever
way they were executed, and so are the merged telemetry
(:func:`~repro.obs.merge.merge_event_logs`) and the aggregated cluster
report (which deliberately records no execution detail like a job
count).  ``repro serve --check`` exploits this: with ``--jobs > 1`` it
runs both ways and byte-compares every per-tenant stream.

Cluster time is the *slowest* replica's clock: goodput uses
``max(replica cycles)``, the conservative reading where faster shards
idle-wait the stragglers.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.engine import PointSpec, SweepEngine
from repro.obs import (
    merge_event_logs,
    merge_snapshot_series,
    percentile_summary,
)
from repro.serve.daemon import ServeConfig, ServeDaemon


def shard_tenants(names: tuple[str, ...],
                  replicas: int) -> list[tuple[str, ...]]:
    """Deterministic round-robin shard: replica ``r`` gets ``names[r::R]``.

    Every name lands in exactly one shard and every shard is non-empty
    (``replicas`` may not exceed the tenant count).
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if replicas > len(names):
        raise ValueError(
            f"{replicas} replicas need at least {replicas} tenants, "
            f"got {len(names)}")
    return [tuple(names[r::replicas]) for r in range(replicas)]


def shard_configs(config: ServeConfig,
                  replicas: int) -> list[ServeConfig]:
    """Per-replica configs: the session config with a sharded roster."""
    return [dataclasses.replace(config, tenant_list=shard)
            for shard in shard_tenants(config.tenant_names(), replicas)]


def _run_shard(config: ServeConfig) -> dict:
    """Run one replica to completion; returns a picklable payload.

    The body of the ``serve_replica`` engine task
    (:mod:`repro.analysis.tasks`); the payload carries everything the
    cluster aggregates, including the raw latency samples the
    cluster-level quantiles need.
    """
    daemon = ServeDaemon(config)
    report = daemon.run()
    return {
        "report": report,
        "events": list(daemon.obs.events.events),
        "snapshots": list(daemon.obs.sampler.series),
        "mvm_latencies": list(daemon._mvm_latencies),
        "comm_latencies": list(daemon.net.latency.latencies),
    }


class ReplicaSet:
    """R tenant-sharded serve replicas run as one logical cluster."""

    def __init__(self, config: ServeConfig, replicas: int) -> None:
        self.config = config
        self.replicas = int(replicas)
        self.shards = shard_configs(config, self.replicas)
        #: Per-replica payloads from :func:`_run_shard`, in shard order.
        self.results: list[dict] | None = None
        self.merged_events: list[dict] = []
        self.merged_snapshots: list[dict] = []

    def run(self, jobs: int = 1) -> dict:
        """Execute every replica; returns the aggregated cluster report.

        Each shard is one ``serve_replica`` point, ``replica/<r>``, of
        an uncached :class:`~repro.analysis.engine.SweepEngine`: ``jobs
        == 1`` runs the shards in-process (the oracle ordering), ``jobs
        > 1`` over the engine's process pool.  Results come back in
        shard order either way.  A replica that raises, or whose worker
        dies, raises ``RuntimeError`` naming its point.
        """
        points = [PointSpec(key=f"replica/{r}", params=shard.to_dict())
                  for r, shard in enumerate(self.shards)]
        results = SweepEngine(jobs=jobs, cache=None).run(
            "serve_replica", points).raise_failures().metrics()
        self.results = results
        self.merged_events = merge_event_logs(
            [r["events"] for r in results])
        self.merged_snapshots = merge_snapshot_series(
            [r["snapshots"] for r in results])
        return self.report()

    def report(self) -> dict:
        """Aggregated cluster record (byte-stable under one seed).

        A pure function of the per-replica payloads — it records what
        the cluster computed, never how it was executed, so the record
        is identical for any ``jobs`` value.
        """
        if self.results is None:
            raise RuntimeError("run() the replica set first")
        reports = [r["report"] for r in self.results]
        ledger = {key: sum(rep["ledger"][key] for rep in reports)
                  for key in ("offered", "admitted", "rejected",
                              "completed", "in_flight")}
        per_tenant: dict[str, dict] = {}
        for rep in reports:
            per_tenant.update(rep["per_tenant"])
        mvm = [s for r in self.results for s in r["mvm_latencies"]]
        comm = [s for r in self.results for s in r["comm_latencies"]]
        cycles = max(rep["cycles"] for rep in reports)
        return {
            "config": self.config.to_dict(),
            "replicas": self.replicas,
            "cycles": cycles,
            "ledger": ledger,
            "conserved": all(rep["conserved"] for rep in reports),
            "drained": all(rep["drained"] for rep in reports),
            "per_tenant": dict(sorted(per_tenant.items())),
            "latency": {
                "mvm": percentile_summary(mvm),
                "comm": percentile_summary(comm),
            },
            "goodput_per_kcycle": (
                1000.0 * ledger["completed"] / cycles if cycles else 0.0),
            "electrical_completions": sum(
                rep["electrical_completions"] for rep in reports),
            "final_rungs": [rep["final_rung"] for rep in reports],
            "events": len(self.merged_events),
            "snapshots": len(self.merged_snapshots),
            "per_replica": [
                {
                    "tenants": list(shard.tenant_names()),
                    "cycles": rep["cycles"],
                    "completed": rep["ledger"]["completed"],
                    "goodput_per_kcycle": rep["goodput_per_kcycle"],
                    "final_rung": rep["final_rung"],
                }
                for shard, rep in zip(self.shards, reports)
            ],
        }

    def per_tenant_streams(self) -> dict[str, list[dict]]:
        """Per-tenant event streams, exactly as each replica emitted them.

        The unit of the cluster's byte-identity contract: for any
        tenant, this list is identical whether its replica ran alone,
        sequentially with the others, or in a process pool.  Untagged
        events (daemon lifecycle, fault probes) are not included.
        """
        if self.results is None:
            raise RuntimeError("run() the replica set first")
        streams: dict[str, list[dict]] = {
            name: [] for shard in self.shards
            for name in shard.tenant_names()}
        for result in self.results:
            for record in result["events"]:
                tenant = record.get("tenant")
                if tenant is not None:
                    streams[tenant].append(record)
        return streams


class ClusterTelemetryStore:
    """Merged-telemetry read surface over a completed cluster run.

    Duck-types the same store interface as
    :class:`~repro.serve.live.LiveTelemetryStore` — ``events() /
    events_tail() / snapshots() / latest_snapshot() / exposition() /
    health()`` — so :class:`~repro.obs.telemetry.TelemetryServer`
    serves a cluster's merged view unchanged.
    """

    def __init__(self, replica_set: ReplicaSet,
                 describe: str = "serve cluster") -> None:
        if replica_set.results is None:
            raise RuntimeError("run() the replica set first")
        self._set = replica_set
        self._report = replica_set.report()
        self.root = describe

    def events(self) -> list[dict]:
        return list(self._set.merged_events)

    def events_tail(self, n: int) -> list[dict]:
        return self.events()[-n:] if n > 0 else []

    def snapshots(self) -> list[dict]:
        return list(self._set.merged_snapshots)

    def latest_snapshot(self) -> dict | None:
        snaps = self._set.merged_snapshots
        return snaps[-1] if snaps else None

    def exposition(self) -> str:
        """Prometheus text for every replica's final snapshot.

        Each replica's registry is exposed under a ``replica`` label,
        so a series summed over ``replica`` is the cluster total (the
        ``serve.offered`` sum is the report's ledger ``offered``).
        """
        from repro.obs.telemetry import prometheus_exposition

        snaps = self._set.merged_snapshots
        if not snaps:
            return ""
        metrics: dict[str, dict] = {}
        for replica, result in enumerate(self._set.results):
            label = f"replica={replica}"
            for kind, series in result["snapshots"][-1]["metrics"].items():
                merged = metrics.setdefault(kind, {})
                for key, value in series.items():
                    key = (f"{key[:-1]},{label}}}" if key.endswith("}")
                           else f"{key}{{{label}}}")
                    merged[key] = value
        meta = {
            "telemetry.snapshot_cycle": snaps[-1]["cycle"],
            "telemetry.snapshots": len(snaps),
            "telemetry.events": len(self._set.merged_events),
            "telemetry.replicas": self._set.replicas,
        }
        return prometheus_exposition(metrics, extra_gauges=meta)

    def health(self) -> dict:
        ledger = self._report["ledger"]
        return {
            "status": "ok" if self._report["conserved"]
            and self._report["drained"] else "degraded",
            "root": str(self.root),
            "replicas": self._set.replicas,
            "cycles": self._report["cycles"],
            "snapshots": len(self._set.merged_snapshots),
            "events": len(self._set.merged_events),
            "in_flight": ledger["in_flight"],
            "completed": ledger["completed"],
        }
