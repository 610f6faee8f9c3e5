"""The request ledger: a serve session's one record of counts and latencies.

Each request transition is written here once, as one field of its
tenant's row (``offered``, then ``admitted`` or ``rejected``, then
``completed``), and each completion's latency as one count in an exact
``{latency: count}`` dict of its kind, as the NoC's
:class:`~repro.noc.stats.LatencyStats` keeps.  The report, the per-tenant
table and the ``serve.*`` counters all derive from it.  Memory grows with
the distinct latencies, not the requests.  A cluster merges its shards'
ledgers and renders the merged one as a daemon renders its own.
"""

from __future__ import annotations

from repro.obs.metrics import percentile_summary

#: Per-tenant row fields, in report order.
FIELDS = ("offered", "admitted", "rejected", "completed")

#: Latency histogram kinds, in report order.
KINDS = ("mvm", "comm")


class Ledger:
    """Per-tenant request counts and exact per-kind latency histograms."""

    def __init__(self, tenants=()) -> None:
        #: Tenant -> ``{field: count}``, in roster order.
        self.rows = {t: dict.fromkeys(FIELDS, 0) for t in tenants}
        #: Kind -> ``{latency: count}``.
        self.latency: dict[str, dict[int, int]] = {k: {} for k in KINDS}

    def observe(self, kind: str, latency: int) -> None:
        histogram = self.latency[kind]
        histogram[latency] = histogram.get(latency, 0) + 1

    def totals(self) -> dict[str, int]:
        """Each field summed over the tenants, plus ``in_flight``."""
        totals = {f: sum(row[f] for row in self.rows.values())
                  for f in FIELDS}
        totals["in_flight"] = totals["admitted"] - totals["completed"]
        return totals

    def summary(self, kind: str) -> dict:
        """count/p50/p95/p99/max of one kind's latencies."""
        return percentile_summary(self.latency[kind])

    def render(self, held: int) -> dict:
        """The report's ``ledger``, ``conserved``, ``per_tenant`` and
        ``latency`` blocks, as copies.

        ``held`` counts the admitted requests the serving structures
        still hold; the ledger is conserved when every offer got one
        verdict and ``in_flight`` is exactly ``held``.
        """
        totals = self.totals()
        return {
            "ledger": totals,
            "conserved": (
                totals["offered"] == totals["admitted"] + totals["rejected"]
                and totals["in_flight"] == held),
            "per_tenant": {t: dict(row) for t, row in self.rows.items()},
            "latency": {kind: self.summary(kind) for kind in KINDS},
        }

    def to_dict(self) -> dict:
        """Plain data: the rows, and sorted ``[latency, count]`` pairs."""
        return {"rows": {t: dict(row) for t, row in self.rows.items()},
                "latency": {kind: [[v, c] for v, c in sorted(h.items())]
                            for kind, h in self.latency.items()}}

    @classmethod
    def merge(cls, records) -> Ledger:
        """One ledger from shard :meth:`to_dict` records: tenant rows
        unioned (sorted by name), histogram counts added."""
        merged = cls()
        for record in records:
            merged.rows.update(record["rows"])
            for kind, pairs in record["latency"].items():
                histogram = merged.latency[kind]
                for value, count in pairs:
                    histogram[value] = histogram.get(value, 0) + count
        merged.rows = {t: dict(merged.rows[t]) for t in sorted(merged.rows)}
        return merged
