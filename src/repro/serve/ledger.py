"""The request ledger: a serve session's one record of counts and latencies.

Each request transition is written here once, as one field of its
tenant's row (``offered``, then ``admitted`` or ``rejected``, then
``completed``), and each completion's latency as one count in an exact
``{latency: count}`` histogram of its kind.  The report, the per-tenant
table and the ``serve.*`` counters all derive from it.  Latencies are
integer cycles, so percentiles over ``np.repeat(values, counts)`` are
bit-identical to percentiles over the raw samples, and memory grows with
the number of distinct latencies, not of requests.  A cluster merges its
shards' ledgers and renders the merged one as a daemon renders its own.
"""

from __future__ import annotations

import numpy as np

from repro.obs import percentile_summary

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
        histogram = self.latency[kind]
        return percentile_summary(np.repeat(
            np.array(list(histogram), dtype=np.int64),
            np.array(list(histogram.values()), dtype=np.int64)))

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
                for value, count in pairs:
                    merged.latency[kind][value] = \
                        merged.latency[kind].get(value, 0) + count
        merged.rows = {t: dict(merged.rows[t]) for t in sorted(merged.rows)}
        return merged
