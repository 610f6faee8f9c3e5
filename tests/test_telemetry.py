"""Tests for the live telemetry pipeline (DESIGN.md §15).

Covers the structured event log (schema validation, monotone clock,
export failure modes), the cycle-driven snapshot sampler, histogram
quantiles and cumulative buckets, Prometheus exposition round-trips,
per-tenant accounting, event determinism under a seeded fault campaign,
the HTTP metrics server, the ``repro top`` renderer, and the CLI
subcommands that tie them together.
"""

import json
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.analysis.engine import PointSpec, ResultCache, SweepEngine
from repro.config import SystemConfig
from repro.core.accelerator import BlockMatmul, plan_offload
from repro.core.control_unit import ComputeRequest, MZIMControlUnit
from repro.core.scheduler import FlumenScheduler
from repro.faults.campaign import CampaignSpec, run_fault_campaign
from repro.noc.simulation import make_network
from repro.obs import Obs
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EVENT_TYPES,
    NULL_EVENTS,
    EventLog,
    MonotoneClock,
)
from repro.obs.export import (
    load_and_validate_events,
    validate_events,
    write_metrics_jsonl,
)
from repro.obs.metrics import NULL_INSTRUMENT, MetricsRegistry
from repro.obs.server import TelemetryServer
from repro.obs.snapshot import SnapshotSampler
from repro.obs.telemetry import (
    TelemetryStore,
    parse_exposition,
    prometheus_exposition,
    registry_exposition,
    render_top,
    validate_telemetry,
    write_telemetry_dir,
)


def write_obs_telemetry(root, obs):
    """A telemetry directory of one Obs bundle, as the CLI writes it."""
    return write_telemetry_dir(root, obs.events.events, obs.sampler.series,
                               prometheus_exposition(obs.metrics.to_dict()))


# ----------------------------------------------------------------------
# monotone clock
# ----------------------------------------------------------------------


class TestMonotoneClock:
    def test_advances_with_local_cycles(self):
        clock = MonotoneClock()
        assert clock.advance(0) == 0
        assert clock.advance(10) == 10
        assert clock.advance(25) == 25
        assert clock.now == 25

    def test_rebases_on_counter_restart(self):
        clock = MonotoneClock()
        clock.advance(100)
        # A second component run restarts its local counter at zero;
        # global time must keep increasing.
        assert clock.advance(0) == 100
        assert clock.advance(30) == 130

    def test_never_decreases(self):
        clock = MonotoneClock()
        seen = [clock.advance(c) for c in (5, 80, 2, 2, 40, 1, 90)]
        assert seen == sorted(seen)


# ----------------------------------------------------------------------
# event log
# ----------------------------------------------------------------------


class TestEventLog:
    def test_envelope_and_sequence(self):
        log = EventLog()
        first = log.emit("cache_miss", 0, task="t", key="a")
        second = log.emit("cache_hit", 1, tenant="acme", request_id=7,
                          task="t", key="b")
        assert first["v"] == EVENT_SCHEMA_VERSION
        assert first["seq"] == 0 and second["seq"] == 1
        assert second["tenant"] == "acme"
        assert second["request_id"] == 7
        assert "tenant" not in first

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown event type"):
            EventLog().emit("not_a_type", 0)

    def test_missing_payload_field_rejected(self):
        with pytest.raises(ValueError, match="missing required"):
            EventLog().emit("ladder_transition", 0, src="HEALTHY")

    def test_reserved_key_clash_rejected(self):
        with pytest.raises(ValueError, match="collide"):
            EventLog().emit("cache_hit", 0, task="t", key="k", seq=9)

    def test_tail_and_by_type(self):
        log = EventLog()
        for i in range(5):
            log.emit("cache_miss" if i % 2 else "cache_hit", i,
                     task="t", key=f"k{i}")
        assert [e["seq"] for e in log.tail(2)] == [3, 4]
        assert len(log.by_type("cache_hit")) == 3
        assert log.tail(0) == []

    def test_bounded_ring_drops_oldest(self):
        log = EventLog(max_events=3)
        for i in range(5):
            log.emit("cache_hit", i, task="t", key=f"k{i}")
        assert len(log) == 3
        assert log.dropped == 2
        assert [e["seq"] for e in log.events] == [2, 3, 4]

    def test_every_event_type_has_schema_fields(self):
        for event_type, fields in EVENT_TYPES.items():
            assert isinstance(fields, tuple), event_type

    def test_null_log_is_inert(self):
        assert not NULL_EVENTS.enabled
        assert NULL_EVENTS.emit("cache_hit", 0, task="t", key="k") == {}
        assert NULL_EVENTS.emit_many(
            "partition_defer", 0, [("a", 1, {"reason": "beta"})]) is None
        assert len(NULL_EVENTS) == 0
        assert NULL_EVENTS.events == []
        assert NULL_EVENTS.dropped == 0

    # -- batch append ---------------------------------------------------

    BATCH_ROWS = [
        ("t0", 0, {"reason": "no_ports", "ports_needed": 4}),
        ("t1", 1, {"reason": "beta", "beta": 0.5, "eta": 0.4}),
        (None, 2, {"reason": "no_ports", "ports_needed": 2}),
        ("t2", None, {"reason": "beta", "beta": 0.75, "eta": 0.4}),
        (None, None, {"reason": "no_ports", "ports_needed": 8}),
    ]

    @staticmethod
    def emit_each(log: EventLog, cycle: int, rows) -> None:
        for tenant, request_id, payload in rows:
            log.emit("partition_defer", cycle, tenant=tenant,
                     request_id=request_id, **payload)

    @staticmethod
    def log_state(log: EventLog) -> tuple:
        return list(log.events), log.dropped, log.clock.now

    @staticmethod
    def next_seq(log: EventLog) -> int:
        return log.emit("cache_hit", 0, task="t", key="next")["seq"]

    @pytest.mark.parametrize("max_events", [None, 3, 8, 19],
                             ids=["unbounded", "smaller-than-batch",
                                  "overflow-mid-batch", "overflow-late"])
    def test_batch_equals_single_emits(self, max_events):
        """Same rows through ``emit_many`` and through ``emit``: same log.

        The cycle sequence restarts the local clock (100 -> 40), so the
        rebased cycles are compared too; the bounded logs overflow
        before, inside and after a batch.
        """
        batch, single = EventLog(max_events), EventLog(max_events)
        for log in (batch, single):
            log.emit("cache_miss", 90, task="t", key="first")
        for cycle in (100, 40, 40, 55):
            batch.emit_many("partition_defer", cycle, self.BATCH_ROWS)
            self.emit_each(single, cycle, self.BATCH_ROWS)
        batch.emit_many("partition_defer", 60, [])
        assert self.log_state(batch) == self.log_state(single)
        cycles = [90] + [100] * 5 + [140] * 10 + [155] * 5
        assert [e["cycle"] for e in batch.events] \
            == cycles[-len(batch.events):]
        assert self.next_seq(batch) == self.next_seq(single) == 21
        if max_events is not None:
            assert batch.dropped == 22 - max_events
            assert [e["seq"] for e in batch.events] \
                == list(range(22 - max_events, 22))

    def test_batch_envelope_key_order(self):
        log = EventLog()
        log.emit_many("partition_defer", 3, self.BATCH_ROWS[:2])
        assert [list(e) for e in log.events] == [
            ["v", "seq", "cycle", "type", "tenant", "request_id",
             "reason", "ports_needed"],
            ["v", "seq", "cycle", "type", "tenant", "request_id",
             "reason", "beta", "eta"]]

    @pytest.mark.parametrize("event_type, bad_payload, match", [
        ("not_a_type", {"reason": "beta"}, "unknown event type"),
        ("partition_defer", {"beta": 0.5}, "missing required"),
        ("partition_defer", {"reason": "beta", "seq": 9}, "collide"),
    ], ids=["unknown-type", "missing-field", "envelope-clash"])
    def test_bad_batch_appends_nothing(self, event_type, bad_payload,
                                       match):
        """A bad row anywhere in a batch raises before any row lands."""
        log = EventLog(max_events=4)
        log.emit("cache_hit", 50, task="t", key="k")
        before = self.log_state(log)
        rows = [*self.BATCH_ROWS, ("t9", 9, bad_payload)]
        with pytest.raises(ValueError, match=match):
            log.emit_many(event_type, 10, rows)
        assert self.log_state(log) == before
        assert self.next_seq(log) == 1


# ----------------------------------------------------------------------
# export round-trip + failure modes
# ----------------------------------------------------------------------


def sample_log() -> EventLog:
    log = EventLog()
    log.emit("ladder_transition", 10, src="HEALTHY", dst="RECALIBRATE",
             reason="health_probe")
    log.emit("fault_activation", 12, kind="stuck_mzi")
    log.emit("cache_miss", 20, tenant="default", task="t", key="a/b")
    return log


class TestEventExport:
    def test_round_trip_validates_clean(self, tmp_path):
        path = write_metrics_jsonl(tmp_path / "events.jsonl",
                                   sample_log().events)
        assert load_and_validate_events(path) == []

    def test_unreadable_file_is_one_problem(self, tmp_path):
        problems = load_and_validate_events(tmp_path / "absent.jsonl")
        assert len(problems) == 1
        assert "unreadable" in problems[0]

    def test_truncated_jsonl_reported(self, tmp_path):
        path = write_metrics_jsonl(tmp_path / "events.jsonl",
                                   sample_log().events)
        raw = path.read_bytes()
        # Chop mid-record: the torn final line must be called out.
        path.write_bytes(raw[:-10])
        problems = load_and_validate_events(path)
        assert any("unparseable JSON" in p for p in problems)

    def test_unknown_schema_version_reported(self, tmp_path):
        log = sample_log()
        log.events[1]["v"] = 99
        path = write_metrics_jsonl(tmp_path / "events.jsonl", log.events)
        problems = load_and_validate_events(path)
        assert any("schema version" in p for p in problems)

    def test_non_monotonic_cycles_reported(self):
        records = [e.copy() for e in sample_log().events]
        records[2]["cycle"] = 5  # earlier than record 1's cycle 12
        problems = validate_events(records)
        assert any("non-monotonic" in p for p in problems)

    def test_sequence_gap_reported(self):
        records = [e.copy() for e in sample_log().events]
        records[1]["seq"] = 5
        problems = validate_events(records)
        assert any("sequence" in p for p in problems)

    def test_bounded_window_validates_clean(self, tmp_path):
        """A ring that evicted its oldest records starts at ``dropped``."""
        log = EventLog(max_events=4)
        for i in range(10):
            log.emit("cache_hit", i, task="t", key=f"k{i}")
        assert log.dropped == 6 and log.events[0]["seq"] == 6
        assert validate_events(list(log.events)) == []
        path = write_metrics_jsonl(tmp_path / "events.jsonl", log.events)
        assert load_and_validate_events(path) == []

    def test_gap_inside_bounded_window_reported(self):
        log = EventLog(max_events=4)
        for i in range(10):
            log.emit("cache_hit", i, task="t", key=f"k{i}")
        records = [e.copy() for e in log.events]
        records[2]["seq"] = 11
        assert validate_events(records) == [
            "event[2] has sequence 11, expected 8"]

    def test_unknown_type_and_missing_fields_reported(self):
        records = [e.copy() for e in sample_log().events]
        records[0]["type"] = "mystery"
        del records[1]["kind"]
        problems = validate_events(records)
        assert any("mystery" in p for p in problems)
        assert any("kind" in p for p in problems)


# ----------------------------------------------------------------------
# histogram quantiles, gauge dec, registry iteration
# ----------------------------------------------------------------------


class TestValidateTelemetry:
    """The one check behind ``serve --check`` and ``metrics-server``."""

    def test_clean_stream_and_exposition(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("serve.offered", tenant="a").inc(3)
        exposition = prometheus_exposition(registry.to_dict())
        events = list(sample_log().events)
        assert validate_telemetry(events, exposition) == []
        path = write_metrics_jsonl(tmp_path / "events.jsonl", events)
        assert validate_telemetry(path, exposition) == []
        assert validate_telemetry(str(path), exposition) == []

    def test_path_flags_truncated_lines(self, tmp_path):
        path = write_metrics_jsonl(tmp_path / "events.jsonl",
                                   sample_log().events)
        path.write_bytes(path.read_bytes()[:-10])
        problems = validate_telemetry(path, "")
        assert any("unparseable JSON" in p for p in problems)

    def test_event_and_exposition_problems_both_reported(self):
        records = list(sample_log().events)
        records[1] = dict(records[1], seq=7)
        problems = validate_telemetry(records, "not a sample line\n")
        assert problems == [
            "event[1] has sequence 7, expected 1",
            "exposition: line 1: unparseable sample 'not a sample line'"]


class TestHistogramQuantiles:
    def test_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", bounds=(10.0, 100.0))
        for v in (5, 50, 500):
            h.observe(v)
        assert h.cumulative_buckets() == {"10": 1, "100": 2, "+Inf": 3}

    def test_quantiles_interpolate(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", bounds=(10.0, 20.0, 50.0))
        for v in range(1, 21):  # 1..20, uniform
            h.observe(v)
        assert h.quantile(0.5) == pytest.approx(10.0, abs=1.0)
        assert h.quantile(0.95) == pytest.approx(19.0, abs=1.5)
        assert h.quantile(0.0) <= h.quantile(1.0)

    def test_quantile_edge_cases(self):
        h = MetricsRegistry().histogram("lat", bounds=(10.0,))
        assert h.quantile(0.5) == 0.0  # empty
        h.observe(4)
        # Single observation: estimate tightened by min/max to the value.
        assert h.quantile(0.5) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantiles_in_snapshot(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (1, 2, 3):
            h.observe(v)
        snap = reg.to_dict()["histograms"]["lat"]
        assert {"p50", "p95", "p99"} <= set(snap)
        assert snap["buckets"]["+Inf"] == 3

    @settings(max_examples=60, deadline=None)
    @given(pairs=st.lists(
        st.tuples(st.one_of(st.integers(-10**6, 10**6),
                            st.floats(-1e6, 1e6, allow_nan=False),
                            st.sampled_from([2 ** 52, 2 ** 53 - 1, 0.5])),
                  st.integers(0, 40)),
        max_size=12),
        split=st.integers(0, 12))
    def test_observe_many_equals_repeated_observe(self, pairs, split):
        # The bulk path's histogram must be the repeated observes'
        # exactly: buckets, count, float sum, extremes and exposition.
        bounds = (1.0, 5.0, 20.0, 1000.0)
        one, many = MetricsRegistry(), MetricsRegistry()
        h1 = one.histogram("noc.packet_latency_cycles", bounds=bounds)
        h2 = many.histogram("noc.packet_latency_cycles", bounds=bounds)
        for value, count in pairs:
            for _ in range(count):
                h1.observe(value)
        # Two calls, so a second batch meets a non-zero running state.
        h2.observe_many([v for v, _ in pairs[:split]],
                        [c for _, c in pairs[:split]])
        h2.observe_many([v for v, _ in pairs[split:]],
                        [c for _, c in pairs[split:]])
        for field in ("bucket_counts", "count", "total", "min_seen",
                      "max_seen"):
            assert getattr(h2, field) == getattr(h1, field), field
        assert repr(h2.total) == repr(h1.total)
        assert registry_exposition(many) == registry_exposition(one)
        NULL_INSTRUMENT.observe_many([1], [3])
        assert NULL_INSTRUMENT.count == 0

    def test_gauge_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.inc(5)
        g.dec()
        g.dec(2.5)
        assert g.value == pytest.approx(1.5)

    def test_iter_series_enumerates_all_kinds(self):
        reg = MetricsRegistry()
        reg.counter("c", topology="mesh").inc()
        reg.gauge("g").set(1.0)
        reg.histogram("h").observe(1)
        reg.timer("t").observe(0.1)
        series = list(reg.iter_series())
        kinds = [s[0] for s in series]
        assert kinds == ["counter", "gauge", "histogram", "timer"]
        counter = series[0]
        assert counter[1] == "c{topology=mesh}"
        assert counter[2] == "c"
        assert counter[3] == {"topology": "mesh"}

    def test_iter_series_matches_to_dict(self):
        reg = MetricsRegistry()
        reg.counter("b").inc(2)
        reg.counter("a", z=1).inc(3)
        snap = reg.to_dict()
        from_iter = {key: inst.value
                     for kind, key, _n, _l, inst in reg.iter_series()
                     if kind == "counter"}
        assert from_iter == snap["counters"]


# ----------------------------------------------------------------------
# prometheus exposition
# ----------------------------------------------------------------------


class TestPrometheusExposition:
    def build_registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("noc.packets_injected", topology="mesh").inc(7)
        reg.counter("engine.points_total", task="sweep").inc(4)
        reg.gauge("core.ladder_rung").set(2.0)
        h = reg.histogram("noc.packet_latency_cycles", topology="mesh",
                          bounds=(10.0, 100.0))
        for v in (5, 50, 500):
            h.observe(v)
        reg.timer("noc.run_seconds", topology="mesh").observe(0.25)
        return reg

    def test_exposition_parses_clean(self):
        text = registry_exposition(self.build_registry())
        samples, problems = parse_exposition(text)
        assert problems == []
        assert samples['repro_noc_packets_injected_total'
                       '{topology="mesh"}'] == 7

    def test_counter_total_suffix_not_doubled(self):
        text = registry_exposition(self.build_registry())
        assert 'repro_engine_points_total{task="sweep"} 4' in text
        assert "_total_total" not in text

    def test_histogram_buckets_cumulative_in_le_order(self):
        text = registry_exposition(self.build_registry())
        lines = [ln for ln in text.splitlines() if "_bucket" in ln]
        values = [float(ln.rsplit(" ", 1)[1]) for ln in lines]
        assert values == [1.0, 2.0, 3.0]
        assert 'le="+Inf"' in lines[-1]
        assert "repro_noc_packet_latency_cycles_count" in text
        assert "repro_noc_packet_latency_cycles_sum" in text

    def test_label_escaping(self):
        snapshot = {"counters": {'evil{path=a"b\\c}': 1},
                    "gauges": {}, "histograms": {}, "timers": {}}
        text = prometheus_exposition(snapshot)
        samples, problems = parse_exposition(text)
        assert problems == []
        assert len(samples) == 1

    def test_snapshot_round_trip_after_json(self):
        # to_dict -> canonical JSON -> exposition is the server's path;
        # alphabetically re-sorted bucket keys must not break le order.
        reg = self.build_registry()
        snapshot = json.loads(json.dumps(reg.to_dict(), sort_keys=True))
        _, problems = parse_exposition(prometheus_exposition(snapshot))
        assert problems == []

    def test_parse_flags_broken_input(self):
        _, problems = parse_exposition("what is this\n")
        assert problems
        _, dup = parse_exposition("a_total 1\na_total 2\n")
        assert any("duplicate" in p for p in dup)


# ----------------------------------------------------------------------
# snapshot sampler
# ----------------------------------------------------------------------


class TestSnapshotSampler:
    def test_samples_on_interval(self):
        reg = MetricsRegistry()
        sampler = SnapshotSampler(reg, interval_cycles=10)
        counter = reg.counter("x")
        took = []
        for cycle in range(35):
            counter.inc()
            took.append(sampler.tick(cycle))
        cycles = [s["cycle"] for s in sampler.series]
        assert cycles == [0, 10, 20, 30]
        assert sum(took) == 4
        assert [s["seq"] for s in sampler.series] == [0, 1, 2, 3]
        # Snapshots freeze the registry state at sampling time.
        assert sampler.series[1]["metrics"]["counters"]["x"] == 11

    def test_forced_sample_and_latest(self):
        sampler = SnapshotSampler(MetricsRegistry(), interval_cycles=100)
        snap = sampler.sample(3)
        assert sampler.latest() is snap
        assert len(sampler) == 1

    def test_shares_event_log_clock(self):
        log = EventLog()
        sampler = SnapshotSampler(MetricsRegistry(), interval_cycles=50,
                                  event_log=log)
        log.emit("cache_hit", 100, task="t", key="k")
        # The sampler's local cycle 0 lands after the event's cycle 100
        # on the shared timeline.
        snap = sampler.sample(0)
        assert snap["cycle"] >= 100

    def test_bounded_series_evicts_oldest(self):
        sampler = SnapshotSampler(MetricsRegistry(), interval_cycles=1,
                                  max_snapshots=2)
        for cycle in range(4):
            sampler.tick(cycle)
        assert len(sampler) == 2
        assert sampler.dropped == 2

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            SnapshotSampler(MetricsRegistry(), interval_cycles=0)


# ----------------------------------------------------------------------
# component event streams: fault campaign
# ----------------------------------------------------------------------


def telemetry_campaign(seed: int = 3) -> Obs:
    obs = Obs.telemetry(snapshot_interval=128)
    spec = CampaignSpec(fault="stuck_mzi", seed=seed, runs=1, cycles=400,
                        golden_reference=False)
    run_fault_campaign(spec, obs=obs)
    return obs


class TestFaultCampaignEvents:
    def test_event_order_and_schema(self):
        obs = telemetry_campaign()
        activations = obs.events.by_type("fault_activation")
        transitions = obs.events.by_type("ladder_transition")
        assert activations, "campaign must record the injected fault"
        assert transitions, "the ladder must react to the fault"
        # The fault fires before the health monitor walks the ladder.
        assert (activations[0]["seq"] < transitions[0]["seq"])
        assert activations[0]["kind"] == "stuck_mzi"
        for t in transitions:
            assert {"src", "dst", "reason", "error",
                    "partition_ports_cap"} <= set(t)
        first = transitions[0]
        assert first["src"] == "HEALTHY"
        assert first["dst"] == "RECALIBRATE"
        assert first["reason"] == "health_probe"

    def test_event_log_validates(self, tmp_path):
        obs = telemetry_campaign()
        path = write_metrics_jsonl(tmp_path / "events.jsonl",
                                   obs.events.events)
        assert load_and_validate_events(path) == []

    def test_same_seed_campaign_byte_identical(self, tmp_path):
        first = write_obs_telemetry(tmp_path / "a", telemetry_campaign())
        second = write_obs_telemetry(tmp_path / "b", telemetry_campaign())
        for name in first:
            assert first[name].read_bytes() == second[name].read_bytes(), \
                f"{name} differs between identical same-seed runs"

    def test_snapshots_taken_during_campaign(self):
        obs = telemetry_campaign()
        assert len(obs.sampler) >= 2
        cycles = [s["cycle"] for s in obs.sampler.series]
        assert cycles == sorted(cycles)


# ----------------------------------------------------------------------
# component event streams: sweep engine
# ----------------------------------------------------------------------


class TestEngineEvents:
    def test_cold_then_warm_cache_events(self, tmp_path):
        points = [PointSpec(key=f"p{i}", params={"x": float(i)})
                  for i in range(3)]
        cache = ResultCache(tmp_path)

        cold_obs = Obs.telemetry()
        SweepEngine(jobs=1, cache=cache, obs=cold_obs).run(
            "selftest", points)
        cold = [e["type"] for e in cold_obs.events.events
                if e["type"].startswith("cache_")]
        assert cold == ["cache_miss"] * 3

        warm_obs = Obs.telemetry()
        SweepEngine(jobs=1, cache=cache, obs=warm_obs).run(
            "selftest", points)
        hits = warm_obs.events.by_type("cache_hit")
        assert [e["key"] for e in hits] == ["p0", "p1", "p2"]
        # The engine's clock is the point index.
        assert [e["cycle"] for e in hits] == [0, 1, 2]

    def test_point_failed_events_in_input_order(self):
        def sometimes_fails(params, seed):
            if params["x"] % 2:
                raise RuntimeError(f"boom {params['x']}")
            return {"x": params["x"]}

        points = [PointSpec(key=f"p{i}", params={"x": i})
                  for i in range(4)]
        obs = Obs.telemetry()
        run = SweepEngine(jobs=1, obs=obs).run(sometimes_fails, points)
        assert len(run.failed_results()) == 2
        failed = obs.events.by_type("point_failed")
        assert [e["key"] for e in failed] == ["p1", "p3"]
        assert all("boom" in e["error"] for e in failed)

    def test_end_of_run_snapshot(self):
        obs = Obs.telemetry()
        points = [PointSpec(key="p0", params={"x": 1.0})]
        SweepEngine(jobs=1, obs=obs).run("selftest", points)
        assert len(obs.sampler) >= 1
        counters = obs.sampler.latest()["metrics"]["counters"]
        assert counters["engine.points_total{task=selftest}"] == 1


# ----------------------------------------------------------------------
# per-tenant accounting
# ----------------------------------------------------------------------


def tenant_request(control, tenant: str, cycle: int,
                   request_id: int) -> ComputeRequest:
    key = f"{tenant}/m{request_id}"
    control.matrix_memory.store(key, BlockMatmul(np.eye(8), 8))
    request = ComputeRequest(node=0, plan=plan_offload(8, 8, 8, 8, 8),
                             matrix_key=key, submit_cycle=cycle,
                             ports_needed=4, tenant=tenant,
                             request_id=request_id)
    control.submit(request, cycle)
    return request


class TestTenantAccounting:
    def test_scheduler_splits_tenant_counters(self):
        obs = Obs.telemetry()
        system = SystemConfig()
        net = make_network("flumen", 16, obs=obs)
        control = MZIMControlUnit(net, system, obs=obs)
        scheduler = FlumenScheduler(control, system, obs=obs)
        tenant_request(control, "acme", 0, request_id=0)
        tenant_request(control, "zeta", 0, request_id=1)
        scheduler.drain(max_cycles=20_000)
        counters = obs.metrics.to_dict()["counters"]
        for tenant in ("acme", "zeta"):
            grants = f"core.tenant_partition_grants{{tenant={tenant}}}"
            done = f"core.tenant_partitions_completed{{tenant={tenant}}}"
            assert counters[grants] == 1, counters
            assert counters[done] == 1
        grants = obs.events.by_type("partition_grant")
        assert sorted(e["tenant"] for e in grants) == ["acme", "zeta"]
        assert all("request_id" in e for e in grants)

    def test_mvm_flush_reports_tenant_breakdown(self):
        obs = Obs.telemetry()
        net = make_network("flumen", 16, obs=obs)
        control = MZIMControlUnit(net, SystemConfig(), obs=obs)
        control.matrix_memory.store("w", BlockMatmul(np.eye(8), 8))
        vectors = np.eye(8)[:, :2]
        control.queue_mvm("w", vectors, node=0, tenant="acme")
        control.queue_mvm("w", vectors, node=1, tenant="acme")
        control.queue_mvm("w", vectors, node=2, tenant="zeta")
        results = control.flush_mvms()
        assert sorted(r.tenant for r in results) == \
            ["acme", "acme", "zeta"]
        flushes = obs.events.by_type("mvm_flush")
        assert len(flushes) == 1
        assert flushes[0]["jobs"] == 3
        assert flushes[0]["tenants"] == {"acme": 2, "zeta": 1}
        counters = obs.metrics.to_dict()["counters"]
        assert counters["core.tenant_mvm_jobs{tenant=acme}"] == 2
        assert counters["core.tenant_mvm_jobs{tenant=zeta}"] == 1


# ----------------------------------------------------------------------
# store, server, top
# ----------------------------------------------------------------------


def telemetry_dir(tmp_path):
    obs = telemetry_campaign()
    root = tmp_path / "telemetry"
    write_obs_telemetry(root, obs)
    return root


class TestTelemetryStoreAndServer:
    def test_store_round_trip(self, tmp_path):
        root = telemetry_dir(tmp_path)
        store = TelemetryStore(root)
        assert store.events()
        assert store.snapshots()
        assert store.latest_snapshot()["cycle"] >= 0
        health = store.health()
        assert health["status"] == "ok"
        assert health["events"] == len(store.events())

    def test_store_exposition_parses(self, tmp_path):
        store = TelemetryStore(telemetry_dir(tmp_path))
        samples, problems = parse_exposition(store.exposition())
        assert problems == []
        assert "repro_telemetry_snapshots" in samples

    def test_store_tolerates_torn_tail(self, tmp_path):
        root = telemetry_dir(tmp_path)
        events = root / "events.jsonl"
        events.write_bytes(events.read_bytes() + b'{"v": 1, "tr')
        store = TelemetryStore(root)
        assert store.events()  # parsed prefix is served

    def test_empty_store(self, tmp_path):
        store = TelemetryStore(tmp_path / "nothing")
        assert store.events() == []
        assert store.latest_snapshot() is None
        assert store.exposition() == ""

    def test_http_endpoints(self, tmp_path):
        store = TelemetryStore(telemetry_dir(tmp_path))

        def get(server, path):
            url = f"http://127.0.0.1:{server.port}{path}"
            with urllib.request.urlopen(url) as response:
                return (response.status,
                        response.headers.get("Content-Type", ""),
                        response.read().decode())

        with TelemetryServer(store, port=0) as server:
            status, ctype, body = get(server, "/metrics")
            assert status == 200 and "text/plain" in ctype
            _, problems = parse_exposition(body)
            assert problems == []

            status, ctype, body = get(server, "/healthz")
            assert json.loads(body)["status"] == "ok"

            _, _, body = get(server, "/events?tail=2")
            lines = [json.loads(ln) for ln in body.splitlines()]
            assert len(lines) == 2
            assert all(e["v"] == EVENT_SCHEMA_VERSION for e in lines)

            _, _, body = get(server, "/snapshots?tail=1")
            assert len(body.splitlines()) == 1

            # Both streams serve their last N records, none for N <= 0,
            # and the whole stream for an N longer than it.
            for path, records in (("/events", store.events()),
                                  ("/snapshots", store.snapshots())):
                assert len(records) > 2
                for tail, want in ((0, []), (-2, []), (1, records[-1:]),
                                   (len(records) + 3, records)):
                    _, _, body = get(server, f"{path}?tail={tail}")
                    served = [json.loads(ln) for ln in body.splitlines()]
                    assert served == want, (path, tail)

            with pytest.raises(urllib.error.HTTPError) as err:
                get(server, "/nope")
            assert err.value.code == 404

    def test_render_top_sections(self, tmp_path):
        store = TelemetryStore(telemetry_dir(tmp_path))
        frame = render_top(store)
        assert "repro top" in frame
        assert "counters" in frame
        assert "recent events" in frame
        assert "ladder_transition" in frame
        assert "recent events" not in render_top(store, events_tail=0)

    def test_render_top_empty_dir(self, tmp_path):
        frame = render_top(TelemetryStore(tmp_path / "nothing"))
        assert "no snapshots" in frame


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestTelemetryCLI:
    def test_sweep_telemetry_dir(self, capsys, tmp_path):
        tdir = tmp_path / "telemetry"
        assert main(["sweep", "--small", "--workloads", "rotation3d",
                     "--configs", "mesh", "--no-cache",
                     "--telemetry-dir", str(tdir)]) == 0
        out = capsys.readouterr().out
        assert "wrote telemetry" in out
        for name in ("events.jsonl", "snapshots.jsonl", "metrics.prom"):
            assert (tdir / name).exists()
        assert load_and_validate_events(tdir / "events.jsonl") == []

    def test_metrics_server_check_and_once(self, capsys, tmp_path):
        root = telemetry_dir(tmp_path)
        assert main(["metrics-server", "--dir", str(root),
                     "--check"]) == 0
        assert "telemetry check: ok" in capsys.readouterr().out
        assert main(["metrics-server", "--dir", str(root),
                     "--once"]) == 0
        _, problems = parse_exposition(capsys.readouterr().out)
        assert problems == []

    def test_metrics_server_check_flags_corruption(self, capsys,
                                                   tmp_path):
        root = telemetry_dir(tmp_path)
        events = root / "events.jsonl"
        events.write_bytes(events.read_bytes()[:-8])
        assert main(["metrics-server", "--dir", str(root),
                     "--check"]) == 1

    def test_top_single_frame(self, capsys, tmp_path):
        root = telemetry_dir(tmp_path)
        assert main(["top", "--dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "counters" in out

    def test_top_follow_frames(self, capsys, tmp_path):
        root = telemetry_dir(tmp_path)
        assert main(["top", "--dir", str(root), "--follow",
                     "--frames", "2", "--interval", "0.01"]) == 0
        out = capsys.readouterr().out
        assert out.count("repro top") == 2
