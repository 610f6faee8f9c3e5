"""The process-wide hierarchy-count memo of ``SystemModel._cache_counts``.

A memo hit must be indistinguishable from a cold hierarchy walk in every
output the model produces: sweep records, metric counters and tracer
spans.  The only difference a caller can see is that the returned
hierarchy's level stats stay at zero, because nothing was simulated.
"""

import dataclasses

import pytest

import repro.core.system as system
from repro.analysis.tasks import run_to_record
from repro.config import CacheConfig, SystemConfig
from repro.core.pipelines import configuration_names
from repro.core.system import (
    SystemModel,
    clear_hierarchy_counts_cache,
    hierarchy_counts_cache_stats,
)
from repro.multicore.cache import Cache
from repro.obs import Obs
from repro.workloads import SMALL_FACTORIES, make_workload
from repro.workloads.rotation3d import Rotation3D
from repro.workloads.base import INPUT_BASE


@pytest.fixture(autouse=True)
def cold_memo():
    clear_hierarchy_counts_cache()
    yield
    clear_hierarchy_counts_cache()


def _counts(model, workload, offloaded=False):
    counts, _hierarchy = model._cache_counts(workload, offloaded=offloaded)
    return dataclasses.asdict(counts)


def _misses() -> int:
    return hierarchy_counts_cache_stats()["misses"]


class TestColdWarmEquality:
    @pytest.mark.parametrize("workload", sorted(SMALL_FACTORIES))
    @pytest.mark.parametrize("configuration", configuration_names())
    def test_record_matches_cold_walk(self, workload, configuration):
        wl = make_workload(workload, "small")
        cold = run_to_record(SystemModel().run(wl, configuration))
        assert hierarchy_counts_cache_stats()["hits"] == 0
        warm = run_to_record(SystemModel().run(wl, configuration))
        assert hierarchy_counts_cache_stats()["hits"] == 1
        assert warm == cold

    def test_sweep_order_reuses_one_walk_per_mode(self):
        wl = make_workload("image_blur", "small")
        model = SystemModel()
        for configuration in configuration_names():
            model.run(wl, configuration)
        stats = hierarchy_counts_cache_stats()
        # One walk for the core path, one for the offloaded path.
        assert stats["misses"] == 2
        assert stats["hits"] == len(configuration_names()) - 2


class TestObservability:
    # mesh walks every level; flumen_a takes the L3-direct walk.
    @pytest.mark.parametrize("configuration", ["mesh", "flumen_a"])
    def test_metrics_and_trace_identical_on_hit(self, configuration):
        wl = make_workload("jpeg", "small")
        bundles = []
        for _ in range(2):
            obs = Obs.active()
            SystemModel(obs=obs).run(wl, configuration)
            bundles.append(obs)
        miss, hit = bundles
        assert hierarchy_counts_cache_stats()["hits"] == 1
        assert hit.metrics.to_dict() == miss.metrics.to_dict()
        assert list(hit.tracer.events) == list(miss.tracer.events)
        assert any(e["name"] == "dct" for e in hit.tracer.events)


class TestKey:
    def test_shapes_are_distinct_keys(self):
        model = SystemModel()
        _counts(model, make_workload("rotation3d", "small"))
        _counts(model, make_workload("rotation3d", "paper"))
        assert _misses() == 2

    def test_equal_phases_share_a_key(self):
        model = SystemModel()
        _counts(model, make_workload("rotation3d", "small"))
        _counts(SystemModel(), make_workload("rotation3d", "small"))
        assert _misses() == 1

    def test_cache_config_is_part_of_the_key(self):
        wl = make_workload("vgg16_fc", "small")
        base = _counts(SystemModel(), wl)
        # 128 B lines: two consecutive 64 B stream addresses share one.
        wide = SystemConfig().replace(cache=CacheConfig(line_size_b=128))
        widened = _counts(SystemModel(system=wide), wl)
        assert _misses() == 2
        assert widened["l1"]["hits"] > base["l1"]["hits"]

    def test_offloaded_flag_is_part_of_the_key(self):
        model = SystemModel()
        wl = make_workload("image_blur", "small")
        core = _counts(model, wl, offloaded=False)
        direct = _counts(model, wl, offloaded=True)
        assert _misses() == 2
        assert core != direct

    def test_overridden_address_streams_is_a_new_key(self):
        class Shifted(Rotation3D):
            def address_streams(self):
                # Same phases, every input read twice: different counts.
                for phase, stream in super().address_streams():
                    yield phase, (a for addr in stream
                                  for a in (addr, addr + INPUT_BASE))

        model = SystemModel()
        base = _counts(model, Rotation3D(vertices=34))
        shifted = _counts(model, Shifted(vertices=34))
        assert _misses() == 2
        assert shifted != base

    def test_returned_counts_do_not_alias_the_memo(self):
        model = SystemModel()
        wl = make_workload("image_blur", "small")
        counts, _ = model._cache_counts(wl, offloaded=False)
        expected = dataclasses.asdict(counts)
        counts.l1.hits += 1_000
        counts.dram_accesses += 1_000
        assert _counts(model, wl) == expected


class TestBoundsAndStats:
    def test_stats_and_clear(self):
        model = SystemModel()
        wl = make_workload("rotation3d", "small")
        _counts(model, wl)
        _counts(model, wl)
        stats = hierarchy_counts_cache_stats()
        assert stats == {"hits": 1, "misses": 1, "size": 1,
                         "capacity": system._COUNTS_CACHE_CAPACITY}
        clear_hierarchy_counts_cache()
        assert hierarchy_counts_cache_stats() == {
            "hits": 0, "misses": 0, "size": 0,
            "capacity": system._COUNTS_CACHE_CAPACITY}

    def test_capacity_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(system, "_COUNTS_CACHE_CAPACITY", 2)
        model = SystemModel()
        blur, rot, vgg = (make_workload(name, "small")
                          for name in ("image_blur", "rotation3d",
                                       "vgg16_fc"))
        _counts(model, blur)
        _counts(model, rot)
        _counts(model, blur)          # blur becomes most recent
        _counts(model, vgg)           # evicts rot
        assert hierarchy_counts_cache_stats()["size"] == 2
        misses = _misses()
        _counts(model, blur)
        assert _misses() == misses
        _counts(model, rot)
        assert _misses() == misses + 1
        assert hierarchy_counts_cache_stats()["size"] == 2


class TestWarmCallSimulatesNothing:
    @pytest.mark.parametrize("offloaded", [False, True])
    def test_zero_cache_accesses_on_hit(self, monkeypatch, offloaded):
        wl = make_workload("resnet50_conv3", "small")
        model = SystemModel()
        cold, cold_hierarchy = model._cache_counts(wl, offloaded=offloaded)
        assert cold_hierarchy.l3.stats.accesses > 0
        assert cold.dram_accesses == cold_hierarchy.dram_accesses > 0

        calls = []
        access_lines = Cache.access_lines

        def counting(self, lines):
            calls.append(lines)
            return access_lines(self, lines)

        monkeypatch.setattr(Cache, "access_lines", counting)
        warm, hierarchy = model._cache_counts(wl, offloaded=offloaded)
        assert calls == []
        assert warm == cold
        for level in (hierarchy.l1, hierarchy.l2, hierarchy.l3):
            assert level.stats.accesses == 0
        # Callers still get a usable hierarchy for the stall model.
        assert hierarchy.stall_cycles(warm) == \
            cold_hierarchy.stall_cycles(cold)
