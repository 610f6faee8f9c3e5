"""Tests for the serve request ledger (:mod:`repro.serve.ledger`).

Covers the exact latency histogram the ledger and the NoC's
``LatencyStats`` share against percentiles of the raw samples
(property-based, with empty, single-value and heavily repeated inputs),
shard merging against one ledger fed every sample, the plain-data form
a cluster shard ships, and the report's ``conserved`` check: a daemon
that double-counts a completion must report ``conserved: false`` and
fail ``serve --check``.
"""

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.noc.stats import LatencyStats
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.cluster import ReplicaSet, _run_shard, shard_configs
from repro.serve.ledger import KINDS, Ledger

latencies = st.lists(st.integers(min_value=0, max_value=5000), max_size=300)


def _fed(tenants, samples: dict[str, list[int]]) -> Ledger:
    ledger = Ledger(tenants)
    for kind, values in samples.items():
        for value in values:
            ledger.observe(kind, value)
    return ledger


@settings(max_examples=60, deadline=None)
@given(values=latencies)
@example(values=[])
@example(values=[7])
@example(values=[3] * 250 + [4])
@example(values=[1, 2] * 100 + [9000])
def test_summary_equals_raw_percentiles(values):
    ledger = _fed(("a",), {"mvm": values})
    stats = LatencyStats()
    for value in values:
        stats.record(0, value, 1)
    empty = {"count": 0, "p50": None, "p95": None, "p99": None,
             "max": None}
    assert ledger.summary("comm") == empty
    assert type(stats.histogram) is type(ledger.latency["mvm"])
    if not values:
        assert ledger.summary("mvm") == empty
        assert (stats.average, stats.p99, stats.maximum) == (0.0, 0.0, 0)
        return
    p50, p95, p99 = np.percentile(values, [50.0, 95.0, 99.0])
    assert ledger.summary("mvm") == {
        "count": len(values), "p50": float(p50), "p95": float(p95),
        "p99": float(p99), "max": max(values)}
    assert (stats.average, stats.p99, stats.maximum) == (
        float(np.mean(values)), float(p99), max(values))


@settings(max_examples=40, deadline=None)
@given(shards=st.lists(st.tuples(latencies, latencies), min_size=1,
                       max_size=4))
def test_merge_equals_one_ledger_fed_every_sample(shards):
    parts = [_fed((f"t{i}",), {"mvm": mvm, "comm": comm})
             for i, (mvm, comm) in enumerate(shards)]
    for i, part in enumerate(parts):
        part.rows[f"t{i}"]["offered"] = i + 1
    merged = Ledger.merge(part.to_dict() for part in parts)
    whole = _fed(sorted(f"t{i}" for i in range(len(shards))),
                 {"mvm": [v for mvm, _ in shards for v in mvm],
                  "comm": [v for _, comm in shards for v in comm]})
    for i in range(len(shards)):
        whole.rows[f"t{i}"]["offered"] = i + 1
    assert merged.render(held=0) == whole.render(held=0)
    assert merged.to_dict() == whole.to_dict()


def test_plain_data_round_trip():
    ledger = _fed(("x", "y"), {"mvm": [5, 5, 9], "comm": [3]})
    ledger.rows["y"]["admitted"] = 2
    record = ledger.to_dict()
    assert json.loads(json.dumps(record)) == record
    assert Ledger.merge([record]).to_dict() == record
    assert record["latency"] == {"mvm": [[5, 2], [9, 1]], "comm": [[3, 1]]}


def test_render_checks_in_flight_against_held():
    ledger = Ledger(("a",))
    ledger.rows["a"].update(offered=3, admitted=2, rejected=1, completed=1)
    assert ledger.render(held=1)["conserved"]
    assert not ledger.render(held=0)["conserved"]
    ledger.rows["a"]["offered"] = 4
    assert not ledger.render(held=1)["conserved"]


def test_shard_payload_carries_the_ledger_as_plain_data():
    config = shard_configs(ServeConfig(rate=0.08, duration=512, seed=2,
                                       tenants=4), 2)[0]
    payload = _run_shard(config)
    assert set(payload) == {"report", "events", "snapshots", "ledger",
                            "held"}
    record = payload["ledger"]
    assert json.loads(json.dumps(record)) == record
    assert set(record["rows"]) == set(config.tenant_names())
    for kind in KINDS:
        pairs = record["latency"][kind]
        assert pairs == sorted(pairs)
        assert sum(count for _, count in pairs) \
            == payload["report"]["latency"][kind]["count"]
    assert payload["held"] == 0


def test_cluster_report_renders_the_merged_ledger():
    replica_set = ReplicaSet(ServeConfig(rate=0.08, duration=512, seed=2,
                                         tenants=4), 2)
    report = replica_set.run(jobs=1)
    merged = Ledger.merge(r["ledger"] for r in replica_set.results)
    books = merged.render(held=0)
    for block in ("ledger", "conserved", "per_tenant", "latency"):
        assert report[block] == books[block]
    assert list(report["per_tenant"]) == sorted(report["per_tenant"])


# ---------------------------------------------------------------------------
# conservation is a check, not a tautology


class DoubleCountingDaemon(ServeDaemon):
    """Counts the first delivered serve packet's completion twice."""

    _doubled = False

    def _on_deliver(self, packet, delivered_cycle):
        tenant = self._packet_tenant.get(packet.packet_id)
        super()._on_deliver(packet, delivered_cycle)
        if tenant is not None and not self._doubled:
            self._doubled = True
            self.ledger.rows[tenant]["completed"] += 1


CONFIG = ServeConfig(rate=0.08, duration=512, seed=3)


def test_in_flight_equals_held_every_cycle():
    daemon = ServeDaemon(CONFIG)
    daemon.start()
    while daemon.cycle < CONFIG.duration:
        daemon.step()
        assert daemon.in_flight == daemon.held()
    assert daemon.finish()["conserved"]


def test_double_counted_completion_is_not_conserved():
    report = DoubleCountingDaemon(CONFIG).run()
    assert report["conserved"] is False
    assert sum(row["completed"] for row in report["per_tenant"].values()) \
        == report["ledger"]["completed"]


def test_serve_check_fails_on_a_double_count(monkeypatch, caplog):
    monkeypatch.setattr("repro.serve.daemon.ServeDaemon", DoubleCountingDaemon)
    assert main(["serve", "--duration", "512", "--seed", "3", "--rate",
                 "0.08", "--check"]) == 1
    assert "ledger not conserved" in caplog.text

