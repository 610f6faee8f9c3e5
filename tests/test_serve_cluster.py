"""Tests for the replica-sharded serving tier and the serve fast path.

Covers the cluster's execution-invariance contract (sequential oracle
== process pool, byte for byte, per tenant and in aggregate; a shard
run standalone matches the same shard inside a cluster), the serve
loop against the test-only per-cycle oracle
(``tests/reference_serve.py``), the bulk skip machinery's legality
guards, token-bucket admission properties (hypothesis), bounded-drain /
zero-rate lifecycle edges, and the shared ``serve --check`` validator.
"""

import json
import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.analysis.engine import TASKS, TaskSpec
from repro.analysis.tasks import serve_replica
from repro.obs import Obs, parse_exposition, validate_events
from repro.obs.events import MonotoneClock
from repro.serve import (
    DaemonState,
    ReplicaSet,
    ServeConfig,
    ServeDaemon,
    TokenBucket,
    shard_configs,
    shard_tenants,
)
from repro.serve.cluster import ClusterTelemetryStore, _run_shard
from tests.reference_serve import PerCycleDaemon


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _artifacts(daemon: ServeDaemon, report: dict) -> str:
    return _canonical({
        "report": report,
        "events": list(daemon.obs.events.events),
        "snapshots": list(daemon.obs.sampler.series),
    })


def _oracle_pair(config: ServeConfig, obs=None) -> list[str]:
    """Artifacts of the per-cycle oracle and of the serve loop.

    ``obs`` builds a fresh bundle per daemon (None: the default).
    """
    outs = []
    for cls in (PerCycleDaemon, ServeDaemon):
        daemon = cls(config, obs=None if obs is None else obs())
        outs.append(_artifacts(daemon, daemon.run()))
    return outs


# ---------------------------------------------------------------------------
# the serve loop vs the test-only per-cycle oracle


class TestVectorizedLoop:
    def _pair(self, **kwargs):
        return _oracle_pair(ServeConfig(**kwargs))

    def test_poisson_byte_identical(self):
        oracle, fast = self._pair(rate=0.08, duration=768, seed=0)
        assert oracle == fast

    def test_bursty_byte_identical(self):
        oracle, fast = self._pair(rate=0.08, arrival="bursty",
                                  duration=768, seed=7)
        assert oracle == fast

    def test_diurnal_byte_identical(self):
        oracle, fast = self._pair(rate=0.1, arrival="diurnal",
                                  duration=1024, seed=5)
        assert oracle == fast

    @pytest.mark.parametrize(
        "fault", ["phase_drift", "dead_link", "laser_degradation"])
    def test_fault_session_byte_identical(self, fault):
        oracle, fast = self._pair(rate=0.05, duration=640, seed=3,
                                  fault=fault)
        assert oracle == fast

    def test_zero_rate_byte_identical(self):
        oracle, fast = self._pair(rate=0.0, duration=512, seed=1)
        assert oracle == fast

    def test_admission_overload_byte_identical(self):
        # Offered load above the refill rate with a shallow bucket, so
        # the replayed verdicts include rejections.
        oracle, fast = self._pair(rate=0.3, duration=512, seed=8,
                                  admission_burst=4.0)
        assert oracle == fast
        assert json.loads(fast)["report"]["ledger"]["rejected"] > 0

    def test_bounded_event_log_byte_identical(self):
        oracle, fast = self._pair(rate=0.1, duration=640, seed=2,
                                  max_events=64)
        assert oracle == fast
        assert json.loads(fast)["report"]["events"] == 64

    def test_cluster_shard_byte_identical(self):
        config = ServeConfig(rate=0.08, duration=640, seed=4,
                             tenants=6)
        oracle, fast = _oracle_pair(shard_configs(config, 3)[1])
        assert oracle == fast

    def test_active_obs_bundle_byte_identical(self):
        # The tracer is on, so the loop's idle skip stays off and both
        # daemons step every cycle; the trace itself must agree too.
        config = ServeConfig(rate=0.06, duration=512, seed=6)
        traces = []
        for cls in (PerCycleDaemon, ServeDaemon):
            daemon = cls(config, obs=Obs.active(snapshot_interval=128))
            report = daemon.run()
            traces.append((_artifacts(daemon, report),
                           _canonical(list(daemon.obs.tracer.events))))
        assert traces[0] == traces[1]


class TestSkipMachinery:
    def test_scheduler_skip_refuses_unstarted_computation(self):
        daemon = ServeDaemon(ServeConfig(rate=0.2, duration=256,
                                         seed=0))
        daemon.start()
        sched = daemon.scheduler
        while not sched.active:
            daemon.step()
        comp = sched.active[0]
        comp.started = False
        with pytest.raises(RuntimeError):
            sched.skip_quiet_cycles(1)
        comp.started = True
        with pytest.raises(RuntimeError):
            sched.skip_quiet_cycles(comp.remaining_cycles)

    def test_scheduler_skip_refuses_partitioner_window(self):
        daemon = ServeDaemon(ServeConfig(rate=0.2, duration=256,
                                         seed=0))
        daemon.start()
        sched = daemon.scheduler
        while not sched.control.compute_buffer:
            daemon.step()
        tau = sched.cfg.tau_cycles
        phase = sched.cycle % tau
        with pytest.raises(RuntimeError):
            sched.skip_quiet_cycles(tau - phase + 1)

    def test_net_skip_refuses_waiting_sources_and_completions(self):
        daemon = ServeDaemon(ServeConfig(rate=0.2, duration=256,
                                         seed=0, mvm_fraction=0.0))
        daemon.start()
        net = daemon.net
        refused = set()
        for _ in range(256):
            countdown = net.quiet_countdown()
            if countdown is not None:
                # 0: a source has buffered packets; else a delivery
                # falls on the countdown's last cycle.
                with pytest.raises(RuntimeError):
                    net.skip_quiet_cycles(max(countdown, 1))
                refused.add(countdown == 0)
            if len(refused) == 2:
                break
            daemon.step()
        assert refused == {True, False}

    def test_utilization_record_cycles_equivalence(self):
        from repro.noc.stats import UtilizationTracker

        bulk = UtilizationTracker(num_links=4, interval_cycles=10)
        loop = UtilizationTracker(num_links=4, interval_cycles=10)
        for busy, n in [(0, 7), (2, 13), (4, 10), (1, 3)]:
            bulk.record_cycles(busy, n)
            for _ in range(n):
                loop.record_cycle(busy)
        bulk.finish()
        loop.finish()
        assert bulk.timeline == loop.timeline

    def test_monotone_clock_first_reaching(self):
        clock = MonotoneClock()
        clock.advance(100)
        clock.advance(10)   # local restart -> epoch 100
        assert clock.first_reaching(90) == 0
        assert clock.first_reaching(150) == 50
        assert clock.advance(50) == 150


# ---------------------------------------------------------------------------
# token-bucket admission properties (hypothesis)

#: Dyadic rates are exact in binary floating point, so chunked and
#: stepwise refills accumulate identically (no rounding drift).
_DYADIC_RATES = st.sampled_from(
    [0.03125, 0.0625, 0.125, 0.25, 0.5, 1.0])


class TestTokenBucketProperties:
    @settings(max_examples=60, deadline=None)
    @given(rate=st.floats(0.001, 2.0, allow_nan=False),
           burst=st.floats(1.0, 64.0, allow_nan=False),
           gaps=st.lists(st.integers(0, 5000), min_size=1,
                         max_size=30))
    def test_level_never_exceeds_burst(self, rate, burst, gaps):
        bucket = TokenBucket(rate, burst)
        cycle = 0
        for gap in gaps:
            cycle += gap
            bucket.try_take(cycle)
            assert bucket.level(cycle) <= burst

    @settings(max_examples=60, deadline=None)
    @given(rate=st.floats(0.001, 2.0, allow_nan=False),
           burst=st.floats(1.0, 64.0, allow_nan=False),
           gaps=st.lists(st.integers(0, 100), min_size=2,
                         max_size=30))
    def test_level_monotone_between_takes(self, rate, burst, gaps):
        bucket = TokenBucket(rate, burst)
        cycle = 0
        previous = bucket.level(cycle)
        for gap in gaps:
            cycle += gap
            level = bucket.level(cycle)
            assert level >= previous - 1e-12
            previous = level

    @settings(max_examples=60, deadline=None)
    @given(rate=_DYADIC_RATES,
           burst=st.sampled_from([1.0, 2.0, 4.0, 8.0, 24.0]),
           offers=st.lists(st.integers(1, 40), min_size=1,
                           max_size=25))
    def test_decisions_invariant_to_refill_granularity(
            self, rate, burst, offers):
        # Same offer cycles, two observation patterns: one bucket is
        # only touched at offers (one big refill), the other is
        # level()-polled every cycle in between (many small refills).
        lazy = TokenBucket(rate, burst)
        eager = TokenBucket(rate, burst)
        cycle = 0
        for gap in offers:
            cycle += gap
            for poll in range(cycle - gap + 1, cycle):
                eager.level(poll)
            assert lazy.try_take(cycle) == eager.try_take(cycle)
            assert lazy.tokens == eager.tokens


# ---------------------------------------------------------------------------
# bounded drain and zero-rate lifecycle


class TestDrainEdges:
    def test_drain_limit_reports_undrained_but_conserved(self):
        config = ServeConfig(rate=0.3, duration=128, seed=0,
                             drain_limit=2)
        daemon = ServeDaemon(config)
        report = daemon.run()
        assert not report["drained"]
        assert report["conserved"]
        ledger = report["ledger"]
        assert ledger["in_flight"] == \
            ledger["admitted"] - ledger["completed"]
        assert ledger["in_flight"] > 0
        assert daemon.state is DaemonState.STOPPED

    def test_drain_limit_vectorized_matches_oracle(self):
        config = ServeConfig(rate=0.3, duration=128, seed=0,
                             drain_limit=2)
        oracle, fast = _oracle_pair(config)
        assert oracle == fast

    def test_zero_rate_walks_full_lifecycle_with_empty_ledger(self):
        daemon = ServeDaemon(ServeConfig(rate=0.0, duration=256,
                                         seed=0))
        report = daemon.run()
        assert report["ledger"] == {
            "offered": 0, "admitted": 0, "rejected": 0,
            "completed": 0, "in_flight": 0}
        assert report["drained"] and report["conserved"]
        states = [e["dst"] for e in daemon.obs.events.events
                  if e["type"] == "serve_transition"]
        assert states == ["serving", "draining", "stopped"]
        assert daemon.state is DaemonState.STOPPED


# ---------------------------------------------------------------------------
# tenant sharding


class TestSharding:
    def test_round_robin_partition(self):
        names = tuple(f"tenant{i}" for i in range(10))
        shards = shard_tenants(names, 4)
        assert len(shards) == 4
        assert sorted(n for shard in shards for n in shard) \
            == sorted(names)
        assert shards[0] == ("tenant0", "tenant4", "tenant8")
        assert shards[3] == ("tenant3", "tenant7")

    def test_shard_bounds(self):
        names = ("a", "b")
        with pytest.raises(ValueError):
            shard_tenants(names, 0)
        with pytest.raises(ValueError):
            shard_tenants(names, 3)
        assert shard_tenants(names, 1) == [names]

    def test_shard_configs_carry_roster(self):
        config = ServeConfig(tenants=5, duration=64)
        shards = shard_configs(config, 2)
        assert shards[0].tenant_names() == \
            ("tenant0", "tenant2", "tenant4")
        assert shards[0].tenants == 3
        assert shards[1].tenants == 2

    def test_tenant_list_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(duration=64, tenant_list=())
        with pytest.raises(ValueError):
            ServeConfig(duration=64, tenant_list=("a", "a"))
        config = ServeConfig(duration=64, tenant_list=("x", "y"))
        assert config.tenants == 2
        assert config.tenant_names() == ("x", "y")


# ---------------------------------------------------------------------------
# the replica set: execution invariance, merged telemetry, scaling


_CLUSTER_CFG = dict(rate=0.08, duration=768, seed=0, tenants=6)


class TestReplicaSet:
    def test_pool_matches_sequential_oracle(self):
        config = ServeConfig(**_CLUSTER_CFG)
        seq = ReplicaSet(config, 3)
        seq_report = seq.run(jobs=1)
        pool = ReplicaSet(config, 3)
        pool_report = pool.run(jobs=2)
        assert _canonical(seq_report) == _canonical(pool_report)
        assert seq.merged_events == pool.merged_events
        assert seq.merged_snapshots == pool.merged_snapshots
        assert seq.per_tenant_streams() == pool.per_tenant_streams()

    def test_shard_matches_standalone_daemon(self):
        config = ServeConfig(**_CLUSTER_CFG)
        replica_set = ReplicaSet(config, 3)
        replica_set.run(jobs=1)
        shard = replica_set.shards[1]
        assert replica_set.results[1] == _run_shard(shard)

    def test_per_tenant_streams_match_unsharded_session(self):
        # The Design-B contract: sharding changes *which daemon* serves
        # a tenant, never the tenant's offered arrival stream.
        config = ServeConfig(**_CLUSTER_CFG)
        replica_set = ReplicaSet(config, 3)
        replica_set.run(jobs=1)
        single = ServeDaemon(config)
        single.run()
        sharded = {
            t: [e["type"] for e in events if e["type"] == "admit"]
            for t, events in replica_set.per_tenant_streams().items()}
        alone = {t: [] for t in config.tenant_names()}
        for event in single.obs.events.events:
            if event["type"] == "admit":
                alone[event["tenant"]].append(event["type"])
        assert sharded == alone

    def test_merged_streams_validate(self):
        replica_set = ReplicaSet(ServeConfig(**_CLUSTER_CFG), 3)
        replica_set.run(jobs=1)
        assert validate_events(replica_set.merged_events) == []
        cycles = [s["cycle"] for s in replica_set.merged_snapshots]
        assert cycles == sorted(cycles)
        assert [s["seq"] for s in replica_set.merged_snapshots] \
            == list(range(len(cycles)))

    def test_report_has_no_execution_detail(self):
        replica_set = ReplicaSet(ServeConfig(**_CLUSTER_CFG), 2)
        report = replica_set.run(jobs=1)
        assert "jobs" not in report
        assert report["replicas"] == 2
        assert report["cycles"] == max(
            r["cycles"] for r in report["per_replica"])

    def test_goodput_scales_with_replicas(self):
        config = ServeConfig(rate=0.2, duration=1024, seed=0,
                             tenants=8)
        goodput = {}
        for replicas in (1, 4):
            report = ReplicaSet(config, replicas).run(jobs=1)
            assert report["conserved"] and report["drained"]
            goodput[replicas] = report["goodput_per_kcycle"]
        assert goodput[4] >= 2.0 * goodput[1]

    @staticmethod
    def _failing_replica(fail):
        """A ``serve_replica`` that calls ``fail`` on tenant1's shard."""
        def task(params: dict, seed: int) -> dict:
            if "tenant1" in params["tenant_list"]:
                fail()
            return serve_replica(params, seed)
        return TaskSpec(name="serve_replica", fn=task)

    def test_replica_failure_names_its_point(self):
        def fail():
            raise ValueError("replica exploded")

        replica_set = ReplicaSet(ServeConfig(**_CLUSTER_CFG), 2)
        with TASKS.temporary("serve_replica", self._failing_replica(fail)):
            with pytest.raises(RuntimeError, match=r"1/2 sweep points "
                               r"failed \(replica/1: ValueError: replica "
                               r"exploded\)"):
                replica_set.run(jobs=1)
        assert replica_set.results is None

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="needs the fork start method")
    def test_killed_replica_worker_raises(self, deadline):
        replica_set = ReplicaSet(ServeConfig(**_CLUSTER_CFG), 2)
        spec = self._failing_replica(lambda: os._exit(1))
        with TASKS.temporary("serve_replica", spec):
            with pytest.raises(RuntimeError,
                               match=r"replica/1: BrokenProcessPool"):
                replica_set.run(jobs=2)

    def test_cluster_store_surface(self):
        replica_set = ReplicaSet(ServeConfig(**_CLUSTER_CFG), 2)
        replica_set.run(jobs=1)
        store = ClusterTelemetryStore(replica_set)
        assert store.events() == replica_set.merged_events
        assert store.events_tail(3) == replica_set.merged_events[-3:]
        assert store.latest_snapshot() \
            == replica_set.merged_snapshots[-1]
        assert "repro_telemetry_replicas 2" in store.exposition()
        health = store.health()
        assert health["status"] == "ok"
        assert health["replicas"] == 2
        assert health["in_flight"] == 0

    def test_exposition_covers_every_replica(self):
        replica_set = ReplicaSet(ServeConfig(**_CLUSTER_CFG), 3)
        report = replica_set.run(jobs=1)
        samples, problems = parse_exposition(
            ClusterTelemetryStore(replica_set).exposition())
        assert problems == []
        offered = {key: value for key, value in samples.items()
                   if key.startswith("repro_serve_offered_total{")}
        assert len(offered) == 3
        assert sum(offered.values()) == report["ledger"]["offered"]

    def test_store_requires_completed_run(self):
        replica_set = ReplicaSet(ServeConfig(**_CLUSTER_CFG), 2)
        with pytest.raises(RuntimeError):
            ClusterTelemetryStore(replica_set)
        with pytest.raises(RuntimeError):
            replica_set.report()


class TestClusterCLI:
    _ARGS = ["serve", "--duration", "512", "--rate", "0.08",
             "--tenants", "4", "--replicas", "2"]

    def test_cluster_check_sequential(self, capsys):
        assert main(self._ARGS + ["--check"]) == 0
        out = capsys.readouterr().out
        assert "serve cluster check: ok" in out

    def test_cluster_check_pool_vs_oracle(self, capsys):
        assert main(self._ARGS + ["--jobs", "2", "--check"]) == 0
        out = capsys.readouterr().out
        assert "pool == sequential oracle" in out

    def test_cluster_report_invariant_to_jobs(self, tmp_path, capsys):
        seq = tmp_path / "seq.json"
        pool = tmp_path / "pool.json"
        assert main(self._ARGS + ["--out", str(seq)]) == 0
        assert main(self._ARGS + ["--jobs", "2", "--out",
                                  str(pool)]) == 0
        assert seq.read_bytes() == pool.read_bytes()

    def test_cluster_telemetry_dir(self, tmp_path, capsys):
        root = tmp_path / "telemetry"
        assert main(self._ARGS + ["--telemetry-dir", str(root)]) == 0
        events = [json.loads(line) for line in
                  (root / "events.jsonl").read_text().splitlines()]
        assert validate_events(events) == []
        assert (root / "snapshots.jsonl").exists()
        assert (root / "metrics.prom").exists()

    @pytest.mark.parametrize("replicas, banner", [
        ("1", "live telemetry on http://127.0.0.1:"),
        ("2", "merged telemetry on http://127.0.0.1:")])
    def test_http_endpoint_both_branches(self, replicas, banner, capsys):
        # One HTTP/linger helper serves the live daemon and the merged
        # cluster view; port 0 binds a free local port.
        args = self._ARGS[:-1] + [replicas, "--http-port", "0",
                                  "--linger", "0.05"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert banner in out
        assert "(Ctrl-C stops)" in out

    def test_metrics_server_checks_cluster_telemetry(self, tmp_path,
                                                     capsys):
        root = tmp_path / "telemetry"
        assert main(self._ARGS + ["--telemetry-dir", str(root)]) == 0
        assert main(["metrics-server", "--dir", str(root), "--check"]) == 0
        assert "telemetry check: ok" in capsys.readouterr().out

    @pytest.mark.parametrize("replicas", ["1", "2"])
    def test_check_rejects_bad_exposition(self, replicas, monkeypatch,
                                          caplog):
        # Single daemon and cluster share one --check validator, so a
        # malformed exposition fails both.
        import repro.obs

        monkeypatch.setattr(repro.obs, "prometheus_exposition",
                            lambda *a, **k: "not a sample line\n")
        monkeypatch.setattr(ClusterTelemetryStore, "exposition",
                            lambda self: "not a sample line\n")
        args = self._ARGS[:-1] + [replicas, "--check"]
        assert main(args) == 1
        assert "exposition: line 1: unparseable sample" in caplog.text
