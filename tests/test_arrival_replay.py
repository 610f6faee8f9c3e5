"""Serve arrivals replayed over bulk PCG64 words against scalar numpy.

``DrawReplay.poisson`` mirrors numpy's ``random_poisson`` (the
multiplication method below a mean of 10, PTRS with ``random_loggam``
from 10 on); ``ClientPopulation.prebuild`` walks each tenant's stream
through it, skipping the zero-arrival cycles in bulk.  Every comparison
here is exact; the arrival oracle is the scalar-numpy draw in
``tests/reference_arrivals.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import draws
from repro.draws import DrawReplay
from repro.serve.arrivals import (
    Arrival,
    BurstyArrivals,
    ClientPopulation,
    DiurnalArrivals,
    PoissonArrivals,
)
from tests.reference_arrivals import scalar_schedule

#: Means on both sides of the PTRS switch at 10, up to far-tail values.
LAMS = [0.0, 0.2, 3.3, 9.999, 10.0, 37.5, 250.0, 1e4, 1e12]

draw_ops = st.lists(
    st.one_of(st.tuples(st.just("poisson"), st.sampled_from(LAMS)),
              st.just(("random", 0)),
              st.tuples(st.just("integers"),
                        st.sampled_from([1, 2, 15, 2 ** 31 + 1]))),
    min_size=1, max_size=200)


def pcg_state(rng):
    return rng.bit_generator.state["state"]


def draw(source, kind, arg):
    if kind == "poisson":
        return int(source.poisson(arg))
    if kind == "random":
        return source.random()
    return int(source.integers(0, arg))


class TestPoissonMatchesNumpy:
    @pytest.mark.parametrize("lam", LAMS)
    def test_value_and_words_per_draw(self, lam):
        """One word per refill, so the replay's generator has advanced
        by exactly the words consumed: it must track numpy's."""
        for seed in range(4):
            expected = np.random.default_rng(seed)
            wrapped = np.random.default_rng(seed)
            replay = DrawReplay(wrapped, chunk_words=1)
            for _ in range(200):
                assert replay.poisson(lam) == int(expected.poisson(lam))
                assert pcg_state(wrapped) == pcg_state(expected)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32), ops=draw_ops)
    def test_interleaved_with_random_and_integers(self, seed, ops):
        expected = np.random.default_rng(seed)
        wrapped = np.random.default_rng(seed)
        replay = DrawReplay(wrapped, chunk_words=1)
        for kind, arg in ops:
            assert draw(replay, kind, arg) == draw(expected, kind, arg)
            assert pcg_state(wrapped) == pcg_state(expected)

    def test_zero_us_is_rejected_like_numpy(self):
        """A first word of 0 gives U = -0.5 and us = 0: numpy's C divides
        by zero, gets a negative k and rejects the pair of words."""
        rest = np.random.default_rng(5).bit_generator.random_raw(64)

        def fed(words):
            replay = DrawReplay(np.random.default_rng(0))
            replay.chunk = np.array(words, dtype=np.uint64)
            replay.words = replay.chunk.tolist()
            return replay

        plain = fed(rest)
        lead = fed([0, 12345 << 11, *rest.tolist()])
        assert lead.poisson(37.5) == plain.poisson(37.5)
        assert lead.pos == plain.pos + 2

    def test_rejects_what_numpy_rejects(self):
        replay = DrawReplay(np.random.default_rng(0))
        for lam in (-0.5, float("nan"), 1e19):
            with pytest.raises(ValueError):
                np.random.default_rng(0).poisson(lam)
            with pytest.raises(ValueError):
                replay.poisson(lam)


class TestSkipZeroPoissons:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32),
           lam=st.sampled_from([0.0, 0.01, 0.2, 0.7, 2.5, 9.999, 10.0]),
           limits=st.lists(st.integers(min_value=0, max_value=3000),
                           min_size=1, max_size=12),
           chunk_words=st.sampled_from([1, 3, 17, 64, 1024]))
    def test_skipped_draws_are_numpy_zeros(self, seed, lam, limits,
                                           chunk_words):
        """A skip consumes exactly numpy's leading zero draws, and the
        draw it stops at is numpy's next draw."""
        expected = np.random.default_rng(seed)
        replay = DrawReplay(np.random.default_rng(seed), chunk_words)
        for limit in limits:
            skipped = replay.skip_zero_poissons(lam, limit)
            assert 0 <= skipped <= limit
            for _ in range(skipped):
                assert expected.poisson(lam) == 0
            if skipped < limit:
                count = replay.poisson(lam)
                assert count == int(expected.poisson(lam))
                assert count > 0 or lam >= 10.0

    def test_zero_mean_takes_no_word(self):
        wrapped = np.random.default_rng(3)
        before = pcg_state(wrapped)
        replay = DrawReplay(wrapped, chunk_words=1)
        assert replay.skip_zero_poissons(0.0, 500) == 500
        assert replay.poisson(0.0) == 0
        assert pcg_state(wrapped) == before


class TestSelfCheck:
    @pytest.mark.parametrize("patch", [
        ("_LOG_2PI", draws._LOG_2PI + 1e-3),
        ("_LOG_2PI", draws._LOG_2PI - 1e-3),
        ("_LOGGAM_COEFFS",
         (draws._LOGGAM_COEFFS[0] * 1.5,) + draws._LOGGAM_COEFFS[1:]),
    ], ids=["log2pi_up", "log2pi_down", "first_coefficient"])
    def test_catches_a_perturbed_loggam_constant(self, monkeypatch, patch):
        monkeypatch.setattr(draws, *patch)
        draws._self_check.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="poisson"):
                DrawReplay(np.random.default_rng(0))
        finally:
            draws._self_check.cache_clear()


def population(process, rate, mvm_fraction=0.5, nodes=16, seed=0,
               tenants=("t0", "t1", "t2")):
    return ClientPopulation(tenants, process, rate, mvm_fraction, nodes,
                            seed)


def assert_prebuild_matches_scalar(duration, *args, **kwargs):
    wheel = population(*args, **kwargs).prebuild(duration)
    oracle = scalar_schedule(population(*args, **kwargs), duration)
    assert dict(wheel) == oracle
    assert list(dict(wheel)) == sorted(oracle)
    return oracle


class TestPrebuildMatchesScalarNumpy:
    @pytest.mark.parametrize("rate", [0.05, 0.2, 1.5, 9.999, 10.0, 14.0])
    def test_poisson(self, rate):
        # 4,000 cycles at rate 0.2 take several 1,024-word chunks.
        duration = 4000 if rate < 1 else 400
        oracle = assert_prebuild_matches_scalar(duration, PoissonArrivals(),
                                                rate)
        assert oracle

    @pytest.mark.parametrize("rate", [0.2, 3.0])
    def test_bursty_with_zero_low_phase(self, rate):
        # duty * peak = 1: the off phase has mean 0 and draws nothing;
        # at rate 3 the bursts' mean 12 is past the PTRS switch.
        process = BurstyArrivals(period=64, duty=0.25, peak=4.0)
        assert process.intensity(63) == 0.0
        oracle = assert_prebuild_matches_scalar(3000, process, rate)
        assert all(cycle % 64 < 16 for cycle in oracle)

    @pytest.mark.parametrize("rate", [0.3, 6.0])
    def test_diurnal_full_swing(self, rate):
        # amplitude 1 swings the mean from 0 to 2 * rate: at rate 6 it
        # crosses the PTRS switch twice per period.
        assert_prebuild_matches_scalar(
            2000, DiurnalArrivals(period=256, amplitude=1.0), rate)

    @pytest.mark.parametrize("mvm_fraction", [0.0, 1.0])
    def test_all_comm_or_all_mvm(self, mvm_fraction):
        oracle = assert_prebuild_matches_scalar(
            3000, PoissonArrivals(), 0.3, mvm_fraction=mvm_fraction)
        kinds = {a.kind for arrivals in oracle.values() for a in arrivals}
        assert kinds == {"mvm" if mvm_fraction else "comm"}

    def test_two_nodes(self):
        # integers(0, 1) draws nothing: a comm request's dst is forced.
        oracle = assert_prebuild_matches_scalar(3000, PoissonArrivals(),
                                                0.4, nodes=2)
        assert all(a.src != a.dst for arrivals in oracle.values()
                   for a in arrivals)

    @pytest.mark.parametrize("duration", [0, 1, 700, 1500, 5000])
    def test_horizons(self, duration):
        assert_prebuild_matches_scalar(duration, PoissonArrivals(), 0.2,
                                       seed=9, tenants=("a",))

    def test_zero_rate(self):
        assert assert_prebuild_matches_scalar(500, PoissonArrivals(),
                                              0.0) == {}

    def test_prebuilt_once(self):
        pop = population(PoissonArrivals(), 0.2)
        pop.prebuild(10)
        with pytest.raises(RuntimeError, match="once"):
            pop.prebuild(10)


def test_arrival_fields_and_defaults():
    arrival = Arrival("t0", "mvm")
    assert arrival == Arrival(tenant="t0", kind="mvm", node=0, src=0, dst=1)
    assert arrival._fields == ("tenant", "kind", "node", "src", "dst")
    with pytest.raises(AttributeError):
        arrival.node = 3
