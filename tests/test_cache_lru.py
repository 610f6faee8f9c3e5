"""The array LRU against the scalar per-address oracle.

``Cache.access_lines`` serves a level's accesses lockstep by set;
``tests/reference_cache.py`` walks one address at a time through
per-set ``OrderedDict``s.  They must agree on every access's hit or
miss, on every level's counts, and on every phase of the five paper
workloads.
"""

import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, CoreConfig
from repro.core.system import SystemModel, _walk_streams, \
    clear_hierarchy_counts_cache
from repro.multicore.cache import Cache, CacheHierarchy, blocked_stream
from repro.workloads import PAPER_FACTORIES, make_workload
from tests.reference_cache import (
    ReferenceCache,
    ReferenceHierarchy,
    reference_walk,
)

#: How a stream may arrive: an array, the int64 buffer a traced run
#: materializes, a list, or a generator.
STREAM_KINDS = (np.asarray, lambda s: array.array("q", s), list,
                lambda s: (a for a in s))

geometry = st.tuples(st.integers(1, 16), st.integers(1, 8))


@st.composite
def hierarchies(draw):
    """(CoreConfig, CacheConfig) of small geometries: 1-16 sets and 1-8
    ways per level."""
    line = draw(st.sampled_from([1, 8, 64]))
    (s1, a1), (s2, a2), (s3, a3) = (draw(geometry) for _ in range(3))
    return (CoreConfig(l1d_size_b=s1 * a1 * line),
            CacheConfig(line_size_b=line, l1_assoc=a1,
                        l2_size_b=s2 * a2 * line, l2_assoc=a2,
                        l3_size_b=s3 * a3 * line, l3_assoc=a3))


@st.composite
def split_streams(draw, max_line=96):
    """1-4 streams of byte addresses over a small line range, so sets
    fill, evict and re-hit."""
    line = draw(st.sampled_from([1, 8, 64]))
    addrs = st.integers(0, max_line * line - 1)
    return [draw(st.lists(addrs, max_size=60))
            for _ in range(draw(st.integers(1, 4)))]


class _Phase:
    def __init__(self, name):
        self.name = name


class _Streams:
    """A workload reduced to its address streams."""

    def __init__(self, streams):
        self.streams = streams

    def address_streams(self):
        for i, stream in enumerate(self.streams):
            yield _Phase(f"p{i}"), np.asarray(stream, dtype=np.int64)


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(sets=st.integers(1, 16), assoc=st.integers(1, 8),
           streams=split_streams())
    def test_every_access_matches(self, sets, assoc, streams):
        line = 8
        cache = Cache(sets * assoc * line, assoc, line)
        oracle = ReferenceCache(sets * assoc * line, assoc, line)
        for stream in streams:
            lines = np.asarray(stream, dtype=np.int64) // line
            got = cache.access_lines(lines).tolist()
            assert got == [oracle.access(a) for a in stream]
            assert (cache.stats.accesses, cache.stats.hits) == \
                (oracle.stats.accesses, oracle.stats.hits)

    @settings(max_examples=150, deadline=None)
    @given(config=hierarchies(), streams=split_streams(), data=st.data())
    def test_hierarchy_calls_match(self, config, streams, data):
        hierarchy = CacheHierarchy(*config)
        oracle = ReferenceHierarchy(*config)
        for stream in streams:
            kind = data.draw(st.sampled_from(STREAM_KINDS))
            assert hierarchy.access_stream(kind(stream)) == \
                oracle.access_stream(stream)
        assert hierarchy.dram_accesses == oracle.dram_accesses
        for level, ref in ((hierarchy.l1, oracle.l1),
                           (hierarchy.l2, oracle.l2),
                           (hierarchy.l3, oracle.l3)):
            assert level.stats == ref.stats

    @settings(max_examples=150, deadline=None)
    @given(config=hierarchies(), streams=split_streams(),
           offloaded=st.booleans())
    def test_walk_matches_per_phase(self, config, streams, offloaded):
        """One walk over several phases (bincount per phase), and the
        L3-only offloaded walk."""
        walked = _walk_streams(CacheHierarchy(*config), _Streams(streams),
                               offloaded)
        assert (walked.phases, walked.direct) == \
            reference_walk(_Streams(streams), offloaded, *config)


class TestPaperWorkloads:
    @pytest.mark.parametrize("offloaded", [False, True])
    @pytest.mark.parametrize("name", sorted(PAPER_FACTORIES))
    def test_per_phase_counts_match_oracle(self, name, offloaded):
        workload = make_workload(name, "paper")
        walked = _walk_streams(CacheHierarchy(), workload, offloaded)
        phases, direct = reference_walk(workload, offloaded)
        assert walked.phases == phases
        assert walked.direct == direct
        # Plain ints: the counts feed JSON records and metric counters.
        assert all(type(c.l1.hits) is int and type(c.dram_accesses) is int
                   for _name, _n, c in walked.phases)


class TestState:
    def test_state_carries_across_calls(self):
        hierarchy = CacheHierarchy()
        stream = np.arange(0, 64 * 100, 64)
        hierarchy.access_stream(stream)
        assert hierarchy.access_stream(stream).l1.hits == 100

    def test_arrays_allocated_on_first_access(self):
        hierarchy = CacheHierarchy()
        assert all(level._ways is None
                   for level in (hierarchy.l1, hierarchy.l2, hierarchy.l3))
        hierarchy.access_stream([])
        assert hierarchy.l1._ways is None
        hierarchy.access_stream([0])
        assert hierarchy.l3._ways.shape == (16_384, 16)

    def test_memo_hit_allocates_nothing(self):
        clear_hierarchy_counts_cache()
        model = SystemModel()
        workload = make_workload("jpeg", "small")
        try:
            model._cache_counts(workload, offloaded=False)
            _counts, hierarchy = model._cache_counts(workload,
                                                     offloaded=False)
        finally:
            clear_hierarchy_counts_cache()
        assert hierarchy.l3._ways is None

    def test_negative_line_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Cache(1024, 2, 64).access_lines(np.array([3, -1]))


def _blocked_loops(base, rows, cols, elem_b, tile_rows, tile_cols):
    row_bytes = cols * elem_b
    for tr in range(0, rows, tile_rows):
        for tc in range(0, cols, tile_cols):
            for r in range(tr, min(tr + tile_rows, rows)):
                for c in range(tc, min(tc + tile_cols, cols)):
                    yield base + r * row_bytes + c * elem_b


@pytest.mark.parametrize("shape", [
    (4, 4, 1, 2, 2), (5, 7, 4, 2, 3), (3, 8, 2, 8, 8), (6, 1, 8, 4, 1),
    (1, 1, 1, 1, 1)])
def test_blocked_stream_matches_nested_loops(shape):
    assert blocked_stream(100, *shape).tolist() == \
        list(_blocked_loops(100, *shape))
