"""Tests for the observability subsystem (repro.obs) and its wiring.

Covers the metrics registry, the cycle tracer, the Chrome trace-event
exporter/validator, determinism of traced runs, null-backend inertness,
and the ``python -m repro trace`` subcommand.
"""

import json

import pytest

from repro.__main__ import main
from repro.analysis.trace import trace_workload
from repro.obs import NULL_OBS, Obs
from repro.obs.export import (
    chrome_trace_payload,
    load_and_validate,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.obs.metrics import NULL_INSTRUMENT, NULL_REGISTRY, MetricsRegistry
from repro.obs.tracer import LAYERS, NULL_TRACER, CycleTracer


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("noc.packets", topology="mesh")
        c.inc()
        c.inc(4)
        assert reg.counter("noc.packets", topology="mesh").value == 5

    def test_labels_identify_series(self):
        reg = MetricsRegistry()
        reg.counter("hits", level="l1").inc(2)
        reg.counter("hits", level="l2").inc(3)
        snap = reg.to_dict()
        assert snap["counters"]["hits{level=l1}"] == 2
        assert snap["counters"]["hits{level=l2}"] == 3

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        a = reg.counter("x", b=1, a=2)
        b = reg.counter("x", a=2, b=1)
        assert a is b

    def test_gauge_and_histogram(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(7.0)
        h = reg.histogram("lat", bounds=(10.0, 100.0))
        h.observe(5)
        h.observe(50)
        h.observe(500)
        snap = reg.to_dict()
        assert snap["gauges"]["depth"] == 7.0
        hist = snap["histograms"]["lat"]
        assert hist["count"] == 3
        assert hist["min"] == 5 and hist["max"] == 500
        # Buckets are cumulative (Prometheus le convention).
        assert hist["buckets"] == {"10": 1, "100": 2, "+Inf": 3}
        assert hist["p50"] == pytest.approx(55.0)

    def test_to_dict_is_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("b").inc()
            reg.counter("a", z=1).inc(2)
            reg.gauge("g").set(3.5)
            return json.dumps(reg.to_dict(), sort_keys=True)
        assert build() == build()

    def test_timer_statistics(self):
        reg = MetricsRegistry()
        t = reg.timer("engine.run_seconds", task="system_point")
        t.observe(0.5)
        t.observe(1.5)
        assert t.count == 2
        assert t.mean_s == pytest.approx(1.0)
        full = t.to_dict(wall_time=True)
        assert full == {"count": 2, "sum_s": pytest.approx(2.0),
                        "mean_s": pytest.approx(1.0),
                        "min_s": pytest.approx(0.5),
                        "max_s": pytest.approx(1.5)}
        assert reg.timer("engine.run_seconds",
                         task="system_point") is t

    def test_timer_context_manager(self):
        reg = MetricsRegistry()
        with reg.timer("phase").time():
            pass
        t = reg.timer("phase")
        assert t.count == 1
        assert t.total_s >= 0.0

    def test_timer_default_snapshot_is_count_only(self):
        # Wall-clock values are machine-dependent; the default snapshot
        # (what metrics.jsonl serializes) must stay byte-deterministic.
        reg = MetricsRegistry()
        reg.timer("noc.run_seconds", topology="flumen").observe(0.123)
        snap = reg.to_dict()
        assert snap["timers"]["noc.run_seconds{topology=flumen}"] \
            == {"count": 1}
        wall = reg.to_dict(wall_time=True)
        assert wall["timers"]["noc.run_seconds{topology=flumen}"][
            "sum_s"] == pytest.approx(0.123)

    def test_kernel_run_records_timer(self):
        from repro.noc.simulation import make_network
        from repro.noc.traffic import TrafficGenerator

        obs = Obs.active()
        net = make_network("mesh", 16, obs=obs)
        net.run(TrafficGenerator(16, "uniform", 0.1, seed=2),
                cycles=200, drain=True)
        t = obs.metrics.timer("noc.run_seconds", topology="mesh")
        assert t.count == 1
        assert t.total_s > 0.0
        # The run also lands on the trace timeline as a complete span.
        spans = [e for e in obs.tracer.events
                 if e.get("name") == "run:mesh"]
        assert len(spans) == 1

    def test_engine_run_records_timer(self):
        from repro.analysis.engine import PointSpec, SweepEngine

        obs = Obs.active()
        engine = SweepEngine(jobs=1, cache=None, obs=obs)
        engine.run("system_point",
                   [PointSpec(key="p", params={
                       "workload": "rotation3d", "configuration": "mesh",
                       "shapes": "small"})],
                   base_seed=17)
        t = obs.metrics.timer("engine.run_seconds", task="system_point")
        assert t.count == 1


class TestCycleTracer:
    def test_layers_map_to_pids(self):
        tracer = CycleTracer()
        for layer in LAYERS:
            tracer.instant(layer, "t", "e", 1)
        pids = [e["pid"] for e in tracer.events]
        assert pids == [1, 2, 3, 4, 5]
        assert all(n == 1 for n in tracer.events_by_layer().values())

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError, match="unknown layer"):
            CycleTracer().instant("kernel", "t", "e", 0)

    def test_tracks_get_stable_tids(self):
        tracer = CycleTracer()
        tracer.instant("noc", "port0", "a", 0)
        tracer.instant("noc", "port1", "b", 1)
        tracer.instant("noc", "port0", "c", 2)
        tids = [e["tid"] for e in tracer.events]
        assert tids == [1, 2, 1]

    def test_complete_span_clamps_negative_duration(self):
        tracer = CycleTracer()
        tracer.complete("core", "t", "span", 10, 8)
        assert tracer.events[0]["dur"] == 0

    def test_metadata_names_processes_and_threads(self):
        tracer = CycleTracer()
        tracer.instant("photonics", "fabric", "e", 3)
        meta = tracer.metadata_events()
        process_names = {m["args"]["name"] for m in meta
                         if m["name"] == "process_name"}
        assert process_names == set(LAYERS)
        thread_meta = [m for m in meta if m["name"] == "thread_name"]
        assert thread_meta[0]["args"]["name"] == "fabric"


class TestChromeTraceSchema:
    def _payload(self):
        tracer = CycleTracer()
        tracer.instant("noc", "t", "inject", 0, src=1)
        tracer.complete("noc", "t", "packet", 0, 7, flits=4)
        tracer.counter("noc", "links", "busy", 100, busy=0.5)
        return chrome_trace_payload(tracer)

    def test_valid_trace_passes(self):
        assert validate_chrome_trace(self._payload()) == []

    def test_events_have_required_keys(self):
        payload = self._payload()
        for event in payload["traceEvents"]:
            for key in ("name", "ph", "ts", "pid", "tid"):
                assert key in event

    def test_missing_key_detected(self):
        payload = self._payload()
        del payload["traceEvents"][1]["ts"]
        problems = validate_chrome_trace(payload)
        assert any("missing keys" in p for p in problems)

    def test_bad_phase_detected(self):
        payload = self._payload()
        payload["traceEvents"][1]["ph"] = "Z"
        assert any("unknown phase" in p
                   for p in validate_chrome_trace(payload))

    def test_span_without_dur_detected(self):
        payload = self._payload()
        span = next(e for e in payload["traceEvents"] if e["ph"] == "X")
        del span["dur"]
        assert any("without dur" in p
                   for p in validate_chrome_trace(payload))

    def test_empty_trace_flagged(self):
        assert validate_chrome_trace({"traceEvents": []}) \
            == ["traceEvents is empty"]


class TestNullBackend:
    def test_null_obs_is_inert(self):
        assert NULL_OBS.enabled is False
        assert NULL_TRACER.enabled is False
        assert NULL_REGISTRY.enabled is False

    def test_null_registry_shares_one_instrument(self):
        # No per-call allocation: every instrument request returns the
        # same no-op singleton, so cached-instrument hot paths cost one
        # no-op method call at most.
        a = NULL_REGISTRY.counter("x", label="y")
        b = NULL_REGISTRY.histogram("z")
        assert a is NULL_INSTRUMENT and b is NULL_INSTRUMENT
        a.inc(10**9)
        assert a.value == 0

    def test_null_tracer_records_nothing(self):
        for i in range(1000):
            NULL_TRACER.instant("noc", "t", "e", i)
            NULL_TRACER.complete("core", "t", "s", i, i + 1)
        assert NULL_TRACER.events == []
        assert NULL_TRACER.metadata_events() == []

    def test_instrumentation_does_not_perturb_simulation(self):
        # The observability hooks must be read-only: a traced network
        # and a null-backend network produce identical numerics.
        from repro.noc.simulation import make_network
        from repro.noc.traffic import TrafficGenerator

        def run(obs):
            net = make_network("flumen", 8, obs=obs)
            traffic = TrafficGenerator(8, "uniform", 0.3, seed=3)
            net.run(traffic, cycles=500, warmup=100)
            return (net.latency.average, net.latency.received,
                    net.reconfigurations, net.arbiter_conflicts)

        assert run(NULL_OBS) == run(Obs.active())


class TestTraceRun:
    @pytest.fixture(scope="class")
    def small_trace(self):
        return trace_workload("rotation3d", shapes="small")

    def test_all_layers_emit(self, small_trace):
        assert small_trace.missing_layers() == []

    def test_payload_passes_schema(self, small_trace):
        assert validate_chrome_trace(small_trace.payload()) == []

    def test_photonics_phase_writes_recorded(self, small_trace):
        events = [e for e in small_trace.obs.tracer.events
                  if e["pid"] == LAYERS.index("photonics") + 1]
        named = {e["name"] for e in events}
        assert "program_compute" in named
        programs = [e for e in events if e["name"] == "program_compute"]
        assert all(e["args"]["phase_writes"] > 0 for e in programs)
        counters = small_trace.obs.metrics.to_dict()["counters"]
        assert counters["photonics.phase_writes"] > 0

    def test_alg1_decisions_recorded(self, small_trace):
        events = [e for e in small_trace.obs.tracer.events
                  if e["pid"] == LAYERS.index("core") + 1]
        named = {e["name"] for e in events}
        assert "beta_eval" in named
        beta = next(e for e in events if e["name"] == "beta_eval")
        assert {"beta", "eta", "granted"} <= set(beta["args"])

    def test_same_seed_runs_are_byte_identical(self, tmp_path):
        paths = []
        for i in range(2):
            trace = trace_workload("rotation3d", shapes="small")
            path = tmp_path / f"trace{i}.json"
            write_chrome_trace(path, trace.obs.tracer,
                               other_data=trace.other_data())
            write_metrics_jsonl(tmp_path / f"metrics{i}.jsonl",
                                [trace.metrics_snapshot()])
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert (tmp_path / "metrics0.jsonl").read_bytes() \
            == (tmp_path / "metrics1.jsonl").read_bytes()

    def test_unknown_configuration_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration"):
            trace_workload("rotation3d", configuration="hypercube")


class TestTraceCLI:
    def test_trace_small(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "rotation3d", "--small", "--check",
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "schema check: ok" in stdout
        for layer in LAYERS:
            assert layer in stdout
        assert load_and_validate(out) == []
        metrics_path = tmp_path / "trace.metrics.jsonl"
        assert metrics_path.exists()
        snap = json.loads(metrics_path.read_text().splitlines()[0])
        assert snap["workload"] == "rotation3d"
        assert "counters" in snap["metrics"]

    def test_trace_deterministic_across_invocations(self, capsys,
                                                    tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["trace", "rotation3d", "--small",
                     "--out", str(a)]) == 0
        assert main(["trace", "rotation3d", "--small",
                     "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
