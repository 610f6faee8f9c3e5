"""Tests for the parallel sweep engine and its on-disk result cache."""

import json
import multiprocessing
import os

import pytest

from repro.analysis.engine import (
    TASKS,
    PointSpec,
    ResultCache,
    SweepEngine,
    TaskSpec,
    cache_key,
    get_task,
    point_seed,
    register_task,
)
from repro.analysis.sweep import sweep, sweep_task

#: Tasks registered inside a test reach pool workers only by fork.
fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="needs the fork start method")


def exit_worker(params: dict, seed: int) -> dict:
    """A task whose worker process dies mid-task."""
    os._exit(1)


def selftest_points(n: int) -> list[PointSpec]:
    return [PointSpec(key=f"pt{i}", params={"x": float(i)})
            for i in range(n)]


class TestSeedsAndKeys:
    def test_point_seed_is_deterministic(self):
        assert point_seed(17, "a/b") == point_seed(17, "a/b")
        assert point_seed(17, "a/b") != point_seed(18, "a/b")
        assert point_seed(17, "a/b") != point_seed(17, "a/c")

    def test_cache_key_tracks_inputs(self):
        task = get_task("selftest")
        base = cache_key(task, {"x": 1.0}, 5)
        assert cache_key(task, {"x": 1.0}, 5) == base
        assert cache_key(task, {"x": 2.0}, 5) != base
        assert cache_key(task, {"x": 1.0}, 6) != base

    def test_duplicate_point_keys_rejected(self):
        engine = SweepEngine(jobs=1)
        points = [PointSpec(key="same", params={"x": 1.0}),
                  PointSpec(key="same", params={"x": 2.0})]
        with pytest.raises(ValueError, match="duplicate"):
            engine.run("selftest", points)

    def test_unknown_task_rejected(self):
        with pytest.raises(KeyError, match="unknown task"):
            SweepEngine(jobs=1).run("no_such_task", selftest_points(1))

    def test_task_name_cannot_be_reregistered(self):
        # Cache keys hash the task *name*, not its function: a plugin
        # silently replacing "system_point" would be served the
        # built-in's cached results.
        builtin = get_task("system_point")
        with pytest.raises(ValueError, match="already registered"):
            register_task("system_point")(lambda params, seed: {})
        assert get_task("system_point") is builtin


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        points = selftest_points(3)

        cold = SweepEngine(jobs=1, cache=cache).run("selftest", points)
        assert cold.telemetry.evaluated == 3
        assert cold.telemetry.cache_hits == 0
        assert cache.entries() == 3

        warm = SweepEngine(jobs=1, cache=cache).run("selftest", points)
        assert warm.telemetry.evaluated == 0
        assert warm.telemetry.cache_hits == 3
        assert [r.metrics for r in warm.results] == \
               [r.metrics for r in cold.results]
        assert all(r.from_cache for r in warm.results)

    def test_warm_artifact_is_byte_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        points = selftest_points(4)
        cold = SweepEngine(jobs=2, cache=cache).run("selftest", points)
        warm = SweepEngine(jobs=1, cache=cache).run("selftest", points)

        def dump(run):
            return json.dumps(run.records(), sort_keys=True)

        assert dump(cold) == dump(warm)

    def test_corrupted_entry_recovers(self, tmp_path):
        cache = ResultCache(tmp_path)
        points = selftest_points(2)
        cold = SweepEngine(jobs=1, cache=cache).run("selftest", points)
        victim = next(iter(sorted(cache.root.glob("*/*.json"))))
        victim.write_text("{definitely not json")

        warm = SweepEngine(jobs=1, cache=cache).run("selftest", points)
        assert warm.telemetry.cache_hits == 1
        assert warm.telemetry.evaluated == 1
        assert warm.telemetry.failures == 0
        assert [r.metrics for r in warm.results] == \
               [r.metrics for r in cold.results]
        # The corrupted entry was rewritten; a third run is all hits.
        again = SweepEngine(jobs=1, cache=cache).run("selftest", points)
        assert again.telemetry.cache_hits == 2

    def test_wrong_schema_treated_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        points = selftest_points(1)
        SweepEngine(jobs=1, cache=cache).run("selftest", points)
        victim = next(iter(cache.root.glob("*/*.json")))
        victim.write_text(json.dumps({"schema": 999, "metrics": {}}))
        warm = SweepEngine(jobs=1, cache=cache).run("selftest", points)
        assert warm.telemetry.evaluated == 1

    def test_seed_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        points = selftest_points(2)
        SweepEngine(jobs=1, cache=cache).run("selftest", points,
                                             base_seed=1)
        rerun = SweepEngine(jobs=1, cache=cache).run("selftest", points,
                                                     base_seed=2)
        assert rerun.telemetry.evaluated == 2


class TestParallelism:
    def test_jobs_1_vs_4_identical_selftest(self):
        points = selftest_points(6)
        serial = SweepEngine(jobs=1).run("selftest", points)
        parallel = SweepEngine(jobs=4).run("selftest", points)
        assert serial.records() == parallel.records()
        assert json.dumps(serial.records(), sort_keys=True) == \
               json.dumps(parallel.records(), sort_keys=True)

    def test_jobs_1_vs_4_identical_simulation(self):
        points = [PointSpec(key=f"load{load}",
                            params={"load": load, "cycles": 300,
                                    "request_period": 60})
                  for load in (0.05, 0.15, 0.25, 0.35)]
        serial = SweepEngine(jobs=1).run("alg1_mix", points)
        parallel = SweepEngine(jobs=4).run("alg1_mix", points)
        assert serial.records() == parallel.records()

    def test_worker_failure_recorded_not_raised(self):
        points = [PointSpec(key="ok0", params={"x": 1.0}),
                  PointSpec(key="boom",
                            params={"fail": True, "message": "kaput"}),
                  PointSpec(key="ok1", params={"x": 2.0})]
        run = SweepEngine(jobs=2).run("selftest", points)
        assert run.telemetry.failures == 1
        assert [r.key for r in run.ok_results()] == ["ok0", "ok1"]
        failed = run.failed_results()[0]
        assert failed.key == "boom"
        assert "RuntimeError" in failed.error
        assert "kaput" in failed.error
        with pytest.raises(RuntimeError, match="1/3 sweep points failed"):
            run.raise_failures()

    @fork_only
    def test_worker_death_recorded_not_raised(self, deadline):
        spec = TaskSpec(name="exit_worker", fn=exit_worker)
        with TASKS.temporary("exit_worker", spec):
            run = SweepEngine(jobs=2).run("exit_worker",
                                          selftest_points(3))
        assert run.telemetry.failures == 3
        assert [r.key for r in run.failed_results()] == ["pt0", "pt1",
                                                         "pt2"]
        assert all("BrokenProcessPool" in r.error
                   for r in run.failed_results())
        with pytest.raises(RuntimeError, match="3/3 sweep points failed"):
            run.raise_failures()

    def test_failed_points_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        points = [PointSpec(key="boom", params={"fail": True})]
        SweepEngine(jobs=1, cache=cache).run("selftest", points)
        assert cache.entries() == 0
        rerun = SweepEngine(jobs=1, cache=cache).run("selftest", points)
        assert rerun.telemetry.evaluated == 1

    def test_results_keep_input_order(self):
        points = list(reversed(selftest_points(8)))
        run = SweepEngine(jobs=4).run("selftest", points)
        assert [r.key for r in run.results] == [p.key for p in points]

    def test_progress_callback_sees_every_point(self):
        seen = []
        engine = SweepEngine(
            jobs=2, progress=lambda done, total, r: seen.append(
                (done, total, r.key)))
        engine.run("selftest", selftest_points(5))
        assert len(seen) == 5
        assert [done for done, _total, _key in seen] == [1, 2, 3, 4, 5]

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            SweepEngine(jobs=0)


class TestSweepHelpers:
    def test_legacy_sweep_callable(self):
        points = sweep("x", [1, 2, 3], lambda v: {"m": v * 2.0})
        assert [p.metrics["m"] for p in points] == [2.0, 4.0, 6.0]
        assert points[0].parameter == "x"

    def test_legacy_sweep_propagates_errors(self):
        def evaluate(v):
            raise ValueError("bad point")
        with pytest.raises(RuntimeError, match="sweep points failed"):
            sweep("x", [1], evaluate)

    def test_sweep_task_binds_value_param(self):
        points = sweep_task("x", [3.0, 4.0], task="selftest", jobs=2)
        assert [p.metrics["square"] for p in points] == [9.0, 16.0]

    def test_sweep_task_base_params(self):
        points = sweep_task("x", [1.0], task="selftest",
                            base_params={"x": 99.0})
        # the swept value overrides the base param of the same name
        assert points[0].metrics["x"] == 1.0
