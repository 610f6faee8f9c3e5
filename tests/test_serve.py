"""Tests for the serving daemon (`repro serve`).

Covers the determinism contract (same seed + simulated clock ==>
byte-identical event log, snapshots, and report, with or without a
live HTTP observer attached), the admission/arrival building blocks,
the ledger-conservation invariant at every snapshot (property-based),
and the degradation ladder under live traffic: mid-session faults
shed or reroute in-flight work without dropping admitted requests.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.obs.export import load_and_validate_events, validate_events
from repro.obs.telemetry import parse_exposition
from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.arrivals import (
    ARRIVALS,
    ArrivalProcess,
    BurstyArrivals,
    ClientPopulation,
    DiurnalArrivals,
)
from repro.serve.daemon import DaemonState, ServeConfig, ServeDaemon
from repro.serve.live import LiveTelemetryStore


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _artifacts(daemon: ServeDaemon, report: dict) -> str:
    """Canonical JSON of everything a session externalises."""
    return _canonical({
        "report": report,
        "events": list(daemon.obs.events.events),
        "snapshots": list(daemon.obs.sampler.series),
    })


# ---------------------------------------------------------------------------
# Arrival processes


class TestArrivals:
    def test_registry_lists_builtins(self):
        names = ARRIVALS.names()
        assert {"poisson", "bursty", "diurnal"} <= set(names)
        assert isinstance(ARRIVALS.get("poisson")(), ArrivalProcess)

    def test_make_arrival_unknown_name(self):
        with pytest.raises(ValueError, match="unknown arrival"):
            ARRIVALS.get("tsunami")

    def test_temporary_arrival_scoped(self):
        class Flat(ArrivalProcess):
            def intensity(self, cycle):
                return 2.0

        with ARRIVALS.temporary("flat", Flat):
            assert "flat" in ARRIVALS.names()
            assert ARRIVALS.get("flat")().intensity(0) == 2.0
        assert "flat" not in ARRIVALS.names()

    def test_bursty_mean_preserving(self):
        proc = BurstyArrivals(period=512, duty=0.25, peak=4.0)
        mean = sum(proc.intensity(c) for c in range(512)) / 512
        assert mean == pytest.approx(1.0, abs=0.02)
        assert max(proc.intensity(c) for c in range(512)) == pytest.approx(4.0)

    def test_diurnal_nonnegative_and_periodic(self):
        proc = DiurnalArrivals(period=2048, amplitude=0.8)
        vals = [proc.intensity(c) for c in range(2048)]
        assert min(vals) >= 0.0
        assert proc.intensity(0) == pytest.approx(proc.intensity(2048))

    def test_population_deterministic(self):
        kwargs = dict(tenants=("a", "b"),
                      process=ARRIVALS.get("poisson")(),
                      rate=0.2, mvm_fraction=0.5, nodes=8, seed=11)
        wheel1 = ClientPopulation(**kwargs).prebuild(200)
        wheel2 = ClientPopulation(**kwargs).prebuild(200)
        assert list(wheel1) == list(wheel2)
        assert list(wheel1)  # rate 0.2 over 200 cycles offers requests

    def test_population_tenant_streams_independent(self):
        """Adding a tenant must not perturb existing tenants' streams."""
        small = ClientPopulation(tenants=("a",),
                                 process=ARRIVALS.get("poisson")(),
                                 rate=0.3, mvm_fraction=0.5, nodes=8, seed=3)
        big = ClientPopulation(tenants=("a", "b"),
                               process=ARRIVALS.get("poisson")(),
                               rate=0.3, mvm_fraction=0.5, nodes=8, seed=3)
        big_wheel, small_wheel = big.prebuild(200), small.prebuild(200)
        for cycle in range(200):
            only_a = [r for r in big_wheel.requests_for_cycle(cycle)
                      if r.tenant == "a"]
            assert only_a == small_wheel.requests_for_cycle(cycle)

    @pytest.mark.parametrize("rate", [-0.1, math.inf, math.nan, 1e20])
    def test_population_rejects_bad_rate_at_construction(self, rate):
        with pytest.raises(ValueError, match="rate must be finite"):
            ClientPopulation(tenants=("a",),
                             process=ARRIVALS.get("poisson")(),
                             rate=rate, mvm_fraction=0.5, nodes=8, seed=3)


    @pytest.mark.parametrize("arrival,rate", [
        ("bursty", 3e18), ("diurnal", 6e18)])
    def test_rate_ceiling_scales_with_peak_intensity(self, arrival, rate):
        # Below numpy's Poisson limit at intensity 1, past it at peak.
        poisson = ARRIVALS.get("poisson")()
        ClientPopulation(tenants=("a",), process=poisson, rate=rate,
                         mvm_fraction=0.5, nodes=8, seed=3)
        with pytest.raises(ValueError, match="rate must be finite"):
            ClientPopulation(tenants=("a",), process=ARRIVALS.get(arrival)(),
                             rate=rate, mvm_fraction=0.5, nodes=8, seed=3)
        with pytest.raises(ValueError, match="rate"):
            ServeConfig(arrival=arrival, rate=rate)
        ServeConfig(rate=rate)


# ---------------------------------------------------------------------------
# Admission control


class TestAdmission:
    def test_bucket_starts_full_then_throttles(self):
        bucket = TokenBucket(rate_per_cycle=1e-9, burst=3.0)
        assert [bucket.try_take(0) for _ in range(4)] == \
            [True, True, True, False]

    def test_bucket_refills_with_cycles(self):
        bucket = TokenBucket(rate_per_cycle=0.5, burst=1.0)
        assert bucket.try_take(0)
        assert not bucket.try_take(0)
        assert not bucket.try_take(1)   # 0.5 tokens: not enough
        assert bucket.try_take(2)       # 1.0 token accrued
        assert bucket.level(2) == pytest.approx(0.0)

    def test_refill_capped_at_burst(self):
        bucket = TokenBucket(rate_per_cycle=1.0, burst=2.0)
        for _ in range(2):
            assert bucket.try_take(0)
        assert bucket.level(10_000) == pytest.approx(2.0)

    def test_controller_isolates_tenants(self):
        ctl = AdmissionController(rate_per_cycle=1e-9, burst=1.0)
        assert ctl.admit("a", 0)
        assert not ctl.admit("a", 0)
        assert ctl.admit("b", 0)  # b's bucket untouched by a's spend

    @pytest.mark.parametrize("rate,burst", [(0.0, 1.0), (-0.5, 4.0),
                                            (0.1, 0.5)])
    def test_controller_rejects_bad_policy_at_construction(self, rate,
                                                           burst):
        with pytest.raises(ValueError):
            AdmissionController(rate, burst)


# ---------------------------------------------------------------------------
# Config validation


class TestServeConfig:
    @pytest.mark.parametrize("field,value", [
        ("rate", -0.1),
        ("rate", math.inf),
        ("rate", math.nan),
        ("rate", 1e20),
        ("mvm_fraction", -0.01),
        ("mvm_fraction", 1.5),
        ("admission_rate", 0.0),
        ("admission_rate", -1.0),
        ("admission_burst", 0.5),
        ("probe_interval", 0),
        ("snapshot_interval", 0),
        ("packet_flits", 0),
        ("drain_limit", -5),
        ("max_events", 0),
    ])
    def test_rejects_invalid_value_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServeConfig(**{field: value})

    @pytest.mark.parametrize("fields, rule", [
        ({"ports": 12}, r"^partition_ports must be even and <= the 8 "
                        r"fabric ports, got 3$"),
        ({"ports": 20}, r"^partition_ports must be even .*, got 5$"),
        ({"ports": 0}, r"^ports must be >= 2, got 0$"),
        ({"nodes": 4, "ports": 8}, r"^nodes must be >= 8, one network "
                                   r"endpoint per fabric port, got 4$"),
        ({"nodes": 1}, r"^nodes must be >= 8, .*, got 1$"),
    ], ids=["ports12", "ports20", "ports0", "nodes4", "nodes1"])
    def test_rejects_fabric_geometry_at_construction(self, fields, rule):
        with pytest.raises(ValueError, match=rule):
            ServeConfig(**fields)

    def test_largest_accepted_partition_is_granted(self):
        config = ServeConfig(ports=32, duration=300, seed=0, rate=0.05)
        assert config.partition_ports == 8
        report = ServeDaemon(config).run()
        assert report["drained"]
        assert report["ledger"]["completed"] > 0

    def test_accepts_boundary_values(self):
        config = ServeConfig(rate=0.0, mvm_fraction=1.0, admission_burst=1.0,
                             drain_limit=0, max_events=1, probe_interval=1,
                             snapshot_interval=1, packet_flits=1)
        assert config.drain_limit == 0


# ---------------------------------------------------------------------------
# Daemon determinism


class TestServeDeterminism:
    CONFIG = ServeConfig(duration=1200, seed=7, arrival="bursty", rate=0.08)

    def _run(self, config=None, observed=False):
        daemon = ServeDaemon(config or self.CONFIG)
        if observed:
            store = LiveTelemetryStore(daemon.obs, daemon=daemon)
            daemon.start()
            for _ in range(daemon.config.duration):
                daemon.step()
                if daemon.cycle % 256 == 0:
                    # Interleave reads the way a scraper would.
                    store.exposition()
                    store.health()
            report = daemon.finish()
        else:
            report = daemon.run()
        return daemon, report

    def test_same_seed_byte_identical(self):
        d1, r1 = self._run()
        d2, r2 = self._run()
        assert _artifacts(d1, r1) == _artifacts(d2, r2)

    def test_observer_does_not_perturb_session(self):
        d1, r1 = self._run(observed=False)
        d2, r2 = self._run(observed=True)
        assert _artifacts(d1, r1) == _artifacts(d2, r2)

    def test_different_seeds_differ(self):
        _, r1 = self._run()
        _, r2 = self._run(ServeConfig(duration=1200, seed=8,
                                      arrival="bursty", rate=0.08))
        assert r1["ledger"] != r2["ledger"]

    def test_event_log_validates(self):
        daemon, report = self._run()
        assert validate_events(list(daemon.obs.events.events)) == []
        assert report["conserved"] and report["drained"]
        assert report["state"] == DaemonState.STOPPED.value

    def test_lifecycle_transitions_in_order(self):
        daemon, _ = self._run()
        states = [(e["src"], e["dst"])
                  for e in daemon.obs.events.events
                  if e["type"] == "serve_transition"]
        assert states[0] == ("boot", "serving")
        assert states[-2:] == [("serving", "draining"),
                               ("draining", "stopped")]

    def test_report_is_a_copy_of_live_state(self):
        daemon = ServeDaemon(self.CONFIG)
        daemon.start()
        for _ in range(400):
            daemon.step()
        early = daemon.report()
        frozen = _canonical(early)
        for _ in range(400):
            daemon.step()
        daemon.finish()
        assert _canonical(early) == frozen
        assert _canonical(daemon.report()) != frozen

    def test_live_store_surface(self):
        daemon, _ = self._run()
        store = LiveTelemetryStore(daemon.obs, daemon=daemon)
        health = store.health()
        assert health["status"] == "ok"
        assert health["state"] == "stopped"
        assert health["in_flight"] == 0
        samples, problems = parse_exposition(store.exposition())
        assert not problems
        assert "repro_serve_offered_total" in samples
        assert store.events_tail(5) == store.events()[-5:]
        assert store.latest_snapshot() == store.snapshots()[-1]


def test_overload_session_keeps_one_latency_entry_per_distinct_value():
    # The overload session (12 tenants, rate 0.2, 8,192 cycles) delivers
    # 6,071 packets at 264 distinct latencies: the network's latency
    # memory grows with the distinct values, not with the packets.
    daemon = ServeDaemon(ServeConfig(tenants=12, rate=0.2, duration=8192,
                                     seed=0))
    daemon.run()
    latency = daemon.net.latency
    assert sum(latency.histogram.values()) == latency.measured == 6071
    assert len(latency.histogram) == 264


# ---------------------------------------------------------------------------
# Ledger conservation (property-based)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       arrival=st.sampled_from(("poisson", "bursty", "diurnal")),
       rate=st.floats(min_value=0.01, max_value=0.25))
def test_ledger_conserved_at_every_snapshot(seed, arrival, rate):
    """admitted + rejected == offered and in_flight == admitted - completed
    must hold at every snapshot, not just at the end of the session."""
    config = ServeConfig(duration=768, seed=seed, arrival=arrival, rate=rate,
                         snapshot_interval=128)
    daemon = ServeDaemon(config)
    report = daemon.run()
    snaps = list(daemon.obs.sampler.series)
    assert snaps, "expected at least one snapshot"
    for snap in snaps:
        counters = snap["metrics"]["counters"]
        gauges = snap["metrics"]["gauges"]
        offered = counters.get("serve.offered", 0)
        admitted = counters.get("serve.admitted", 0)
        rejected = counters.get("serve.rejected", 0)
        completed = counters.get("serve.completed", 0)
        assert admitted + rejected == offered
        assert gauges.get("serve.in_flight", 0) == admitted - completed
    assert report["conserved"] and report["drained"]
    assert report["ledger"]["in_flight"] == 0


# ---------------------------------------------------------------------------
# Faults under live traffic


class TestServeUnderFaults:
    def test_drift_recovers_without_drops(self):
        config = ServeConfig(duration=3000, seed=5, rate=0.08,
                             fault="phase_drift", fault_magnitude=2.0)
        daemon = ServeDaemon(config)
        report = daemon.run()
        assert len(report["injected"]) == 1
        assert report["injected"][0]["kind"] == "phase_drift"
        assert report["detected_cycle"] is not None
        assert report["ladder"]["attempts"] > 0
        # Every admitted request still completes.
        assert report["ledger"]["completed"] == report["ledger"]["admitted"]
        assert report["conserved"] and report["drained"]
        assert report["final_rung"] == "HEALTHY"
        kinds = {e["type"] for e in daemon.obs.events.events}
        assert "ladder_transition" in kinds
        assert "fault_activation" in kinds

    def test_hard_fault_falls_back_to_electrical(self):
        config = ServeConfig(duration=3000, seed=5, rate=0.08,
                             fault="laser_degradation", fault_magnitude=2.0)
        report = ServeDaemon(config).run()
        assert report["final_rung"] == "ELECTRICAL"
        assert report["electrical_completions"] > 0
        # Electrical fallback serves the work instead of dropping it.
        assert report["ledger"]["completed"] == report["ledger"]["admitted"]
        assert report["conserved"] and report["drained"]

    def test_fault_session_deterministic(self):
        config = ServeConfig(duration=2000, seed=5, rate=0.08,
                             fault="stuck_mzi", fault_magnitude=1.0)
        runs = []
        for _ in range(2):
            daemon = ServeDaemon(config)
            runs.append(_artifacts(daemon, daemon.run()))
        assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# CLI


class TestServeCLI:
    ARGS = ["serve", "--duration", "800", "--seed", "7",
            "--arrival", "bursty", "--rate", "0.08"]

    def test_serve_check_ok(self, capsys):
        assert main([*self.ARGS, "--check"]) == 0
        assert "serve check: ok" in capsys.readouterr().out

    def test_bounded_event_log_passes_check(self, tmp_path, capsys):
        """A ``--max-events`` ring drops its oldest records; the rest is a
        contiguous ``seq`` window that the telemetry checks accept."""
        assert main(["serve", "--duration", "2000", "--seed", "7",
                     "--rate", "0.08", "--max-events", "50", "--check",
                     "--telemetry-dir", str(tmp_path)]) == 0
        assert "serve check: ok (50 events" in capsys.readouterr().out
        path = tmp_path / "events.jsonl"
        first = json.loads(path.read_text().splitlines()[0])
        assert first["seq"] > 0
        assert load_and_validate_events(path) == []

    def test_serve_out_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main([*self.ARGS, "--out", str(path)]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_serve_telemetry_dir_byte_identical(self, tmp_path, capsys):
        dirs = [tmp_path / "t1", tmp_path / "t2"]
        for out in dirs:
            assert main([*self.ARGS, "--telemetry-dir", str(out)]) == 0
        capsys.readouterr()
        for name in ("events.jsonl", "snapshots.jsonl", "metrics.prom"):
            assert (dirs[0] / name).read_bytes() == \
                (dirs[1] / name).read_bytes()

    def test_serve_fault_check(self, capsys):
        code = main(["serve", "--duration", "1500", "--seed", "5",
                     "--rate", "0.08", "--fault", "phase_drift",
                     "--fault-magnitude", "2.0", "--check"])
        assert code == 0
        assert "serve check: ok" in capsys.readouterr().out

    def test_serve_rejects_unknown_arrival(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--arrival", "tsunami"])
        capsys.readouterr()
