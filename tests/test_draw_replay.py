"""``DrawReplay`` and ``TrafficGenerator`` against scalar numpy.

The replay mirrors numpy's scalar ``random()`` and ``integers()`` over
bulk PCG64 words; every comparison here is exact.  The traffic oracle
is the scalar-numpy generator in ``tests/reference_traffic.py``.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import draws
from repro.draws import DrawReplay
from repro.noc.traffic import PATTERNS, TrafficGenerator, hotspot, uniform
from tests.reference_traffic import ReferenceTrafficGenerator

#: Range widths: the no-draw width 1, small widths, the rejection-prone
#: 2**31 + 1 (about half of its first draws are rejected) and the full
#: 2**32, which numpy serves with a bare uint32.
WIDTHS = [1, 2, 3, 15, 16, 255, 2 ** 31 - 1, 2 ** 31 + 1, 2 ** 32]

draw_ops = st.lists(
    st.one_of(st.just(("random", 0, 0)),
              st.tuples(st.just("integers"),
                        st.integers(min_value=-3, max_value=3),
                        st.sampled_from(WIDTHS))),
    min_size=1, max_size=400)


def replay_matches(expected, replay, ops):
    for kind, low, width in ops:
        if kind == "random":
            assert replay.random() == expected.random()
        else:
            assert replay.integers(low, low + width) == \
                int(expected.integers(low, low + width))


class TestReplayMatchesNumpy:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32), ops=draw_ops)
    def test_random_interleavings(self, seed, ops):
        replay_matches(np.random.default_rng(seed),
                       DrawReplay(np.random.default_rng(seed)), ops)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32), ops=draw_ops,
           chunk_words=st.integers(min_value=1, max_value=5))
    def test_across_chunk_boundaries(self, seed, ops, chunk_words):
        replay_matches(np.random.default_rng(seed),
                       DrawReplay(np.random.default_rng(seed), chunk_words),
                       ops)

    @pytest.mark.parametrize("chunk_words", [1, 2, 3, 1024])
    def test_rejection_loops_span_refills(self, chunk_words):
        ops = [("integers", 0, 2 ** 31 + 1)] * 2000
        replay_matches(np.random.default_rng(5),
                       DrawReplay(np.random.default_rng(5), chunk_words),
                       ops)

    @pytest.mark.parametrize("seed", range(4))
    def test_from_a_full_uint32_buffer(self, seed):
        rng = np.random.default_rng(seed)
        rng.integers(0, 5)  # a uint32 draw buffers the word's high half
        state = rng.bit_generator.state
        assert state["has_uint32"] == 1
        expected = np.random.default_rng(seed)
        expected.bit_generator.state = state
        ops = [("integers", 0, 7), ("random", 0, 0),
               ("integers", 0, 2 ** 31 + 1)] * 50
        replay_matches(expected, DrawReplay(rng, 3), ops)

    def test_empty_range_rejected(self):
        replay = DrawReplay(np.random.default_rng(0))
        with pytest.raises(ValueError):
            replay.integers(3, 3)
        with pytest.raises(ValueError):
            replay.integers(0, 2 ** 32 + 1)


class TestGuards:
    @pytest.mark.parametrize("bit_generator", [np.random.MT19937,
                                               np.random.PCG64DXSM,
                                               np.random.Philox])
    def test_rejects_other_bit_generators(self, bit_generator):
        with pytest.raises(TypeError, match="PCG64"):
            DrawReplay(np.random.Generator(bit_generator(0)))

    @pytest.mark.parametrize("patch", [
        ("_TWO_M53", draws._TWO_M53 * (1.0 + 2.0 ** -52)),
        ("next_uint32", lambda self: self.next_uint64() & 0xFFFFFFFF),
        ("integers", lambda self, low, high:
            low + ((self.next_uint32() * (high - low)) >> 32)),
    ], ids=["random", "uint32_buffer", "no_rejection"])
    def test_self_check_catches_a_changed_formula(self, monkeypatch, patch):
        name, value = patch
        owner = draws if name.startswith("_") else DrawReplay
        monkeypatch.setattr(owner, name, value)
        draws._self_check.cache_clear()
        try:
            with pytest.raises(RuntimeError, match=np.__version__):
                DrawReplay(np.random.default_rng(0))
        finally:
            draws._self_check.cache_clear()


def packet_rows(generator, cycles):
    return [[(p.src, p.dst, p.size_flits, p.create_cycle,
              p.traffic_class)
             for p in generator.packets_for_cycle(cycle)]
            for cycle in range(cycles)]


PATTERN_CASES = sorted(PATTERNS) + ["hotspot16"]


def make_pattern_arg(name):
    return hotspot(16) if name == "hotspot16" else name


class TestTrafficMatchesScalarNumpy:
    @pytest.mark.parametrize("pattern", PATTERN_CASES)
    def test_every_pattern_load_and_size(self, pattern):
        for load, size, seed in itertools.product(
                [0.0, 0.1, 0.25, 0.9, 1.0], [1, 2, 4], range(3)):
            fast = TrafficGenerator(16, make_pattern_arg(pattern), load,
                                    size, seed)
            oracle = ReferenceTrafficGenerator(
                16, make_pattern_arg(pattern), load, size, seed)
            assert packet_rows(fast, 200) == packet_rows(oracle, 200), \
                (pattern, load, size, seed)
            assert fast.generated == oracle.generated

    @pytest.mark.parametrize("nodes", [2, 3, 5, 8])
    def test_small_and_odd_networks(self, nodes):
        for load, seed in itertools.product([0.3, 1.0], range(3)):
            fast = TrafficGenerator(nodes, "uniform", load, 1, seed)
            oracle = ReferenceTrafficGenerator(nodes, "uniform", load, 1,
                                               seed)
            assert packet_rows(fast, 300) == packet_rows(oracle, 300)
            assert fast.generated == oracle.generated

    def test_pattern_draw_that_refills_the_chunk(self):
        """Hits precomputed for a chunk are redone when a pattern's own
        draw fetches the next one."""
        background = uniform(16)
        refilled = []

        def pick(src, rng):
            before = rng.chunk
            dst = background(src, rng)
            if rng.chunk is not before:
                refilled.append(src)
            return dst

        fast = TrafficGenerator(16, pick, 1.0, 1, seed=4)
        oracle = ReferenceTrafficGenerator(16, uniform(16), 1.0, 1, seed=4)
        assert packet_rows(fast, 400) == packet_rows(oracle, 400)
        assert refilled
