"""Exact replay of numpy's scalar draws over bulk PCG64 words.

A scalar ``Generator.random()`` or ``Generator.integers()`` call costs
far more in call overhead than in arithmetic.  :class:`DrawReplay`
fetches the bit generator's raw 64-bit words in bounded chunks with
``bit_generator.random_raw`` and applies numpy's own scalar algorithms
to them in Python, so a sequence of replayed draws equals the same
sequence of scalar numpy calls on the same generator, value for value:

* ``random()`` is ``(w >> 11) * 2**-53`` (numpy's ``next_double``);
* ``next_uint32()`` returns a word's low half and buffers its high half
  for the next call, starting from the generator's own
  ``has_uint32``/``uinteger`` buffer; ``random()`` leaves that buffer
  alone, as numpy does;
* ``integers(low, high)`` is numpy's default bounded draw for int64:
  ``low`` without a draw when ``high - low == 1``, a bare
  ``next_uint32`` when the range spans 2**32, otherwise Lemire's
  multiply-shift with its rejection loop.  Ranges wider than 2**32 are
  rejected.
* ``poisson(lam)`` is numpy's ``random_poisson``: 0 without a draw when
  ``lam == 0``; below 10 the multiplication method (multiply successive
  ``random()`` values until the product is ``<= exp(-lam)``); from 10
  on Hoermann's PTRS (transformed rejection with squeeze), whose
  acceptance test uses numpy's ``random_loggam``.

:meth:`DrawReplay.skip_zero_poissons` consumes a run of ``poisson``
draws that are 0 after one word each without entering the algorithm.

The mirrored algorithms are numpy internals, so every process checks a
few replayed draws against numpy before the first replay is built, and
raises naming the numpy version on a mismatch.  Once wrapped, the
``Generator`` must not be drawn from directly: its state runs up to a
chunk ahead of the replay.
"""

from __future__ import annotations

import functools
import math
from typing import Protocol

import numpy as np

#: Words fetched per ``random_raw`` call.
CHUNK_WORDS = 1024

_TWO_53 = 9007199254740992.0
_TWO_M53 = 1.0 / _TWO_53
_U32 = 0xFFFFFFFF

#: The largest Poisson mean ``Generator.poisson`` accepts (numpy raises
#: ``lam value too large`` above it).
POISSON_LAM_MAX = float(np.iinfo("l").max
                        - np.sqrt(np.iinfo("l").max) * 10)

#: ``random_loggam``'s Stirling-series coefficients and ``log(2 * pi)``,
#: as numpy writes them.
_LOGGAM_COEFFS = (8.333333333333333e-02, -2.777777777777778e-03,
                  7.936507936507937e-04, -5.952380952380952e-04,
                  8.417508417508418e-04, -1.917526917526918e-03,
                  6.410256410256410e-03, -2.955065359477124e-02,
                  1.796443723688307e-01, -1.39243221690590e+00)
_LOG_2PI = 1.8378770664093453e+00


class ScalarDraws(Protocol):
    """The draws a :class:`DrawReplay` reproduces (and a Generator has)."""

    def random(self) -> float: ...

    def integers(self, low: int, high: int) -> int: ...


class DrawReplay:
    """numpy's scalar ``random``/``integers``/``poisson`` over raw words.

    ``chunk`` holds the current words as a ``uint64`` array, which
    callers may classify in bulk, ``words`` the same words as a list of
    Python ints, which the scalar draws read, and ``pos`` the index of
    the next unread word.  Each refill replaces ``chunk`` and ``words``
    (never mutates them).
    """

    def __init__(self, rng: np.random.Generator,
                 chunk_words: int = CHUNK_WORDS) -> None:
        bit_generator = rng.bit_generator
        if type(bit_generator) is not np.random.PCG64:
            raise TypeError(
                f"DrawReplay mirrors PCG64 only, got "
                f"{type(bit_generator).__name__}")
        if chunk_words < 1:
            raise ValueError(f"chunk_words must be >= 1, got {chunk_words}")
        _self_check()
        self._bind(bit_generator, chunk_words)

    def _bind(self, bit_generator: np.random.PCG64,
              chunk_words: int) -> None:
        state = bit_generator.state
        self._raw = bit_generator.random_raw
        self._chunk_words = int(chunk_words)
        self._has_uint32 = bool(state["has_uint32"])
        self._uinteger = int(state["uinteger"])
        self.chunk = np.empty(0, dtype=np.uint64)
        self.words: list[int] = []
        self.pos = 0
        # The last Poisson mean seen and its exp(-lam): a caller draws
        # long runs of one mean.
        self._lam = 0.0
        self._enlam = 1.0

    def refill(self) -> None:
        """Replace the chunk with the next ``chunk_words`` words."""
        self.chunk = self._raw(self._chunk_words)
        self.words = self.chunk.tolist()
        self.pos = 0

    def next_uint64(self) -> int:
        pos = self.pos
        if pos == len(self.words):
            self.refill()
            pos = 0
        self.pos = pos + 1
        return self.words[pos]

    def next_uint32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = False
            return self._uinteger
        pos = self.pos
        if pos == len(self.words):
            self.refill()
            pos = 0
        self.pos = pos + 1
        word = self.words[pos]
        self._has_uint32 = True
        self._uinteger = word >> 32
        return word & _U32

    def random(self) -> float:
        """``Generator.random()``: a float64 in [0, 1)."""
        pos = self.pos
        if pos == len(self.words):
            self.refill()
            pos = 0
        self.pos = pos + 1
        return (self.words[pos] >> 11) * _TWO_M53

    def integers(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)``: an int in [low, high)."""
        span = high - low - 1
        if span < 0:
            raise ValueError(f"high <= low: integers({low}, {high})")
        if span == 0:
            return low
        if span == _U32:
            return low + self.next_uint32()
        if span > _U32:
            raise ValueError(
                f"DrawReplay draws ranges up to 2**32, got {span + 1}")
        excl = span + 1
        m = self.next_uint32() * excl
        leftover = m & _U32
        if leftover < excl:
            threshold = (_U32 - span) % excl
            while leftover < threshold:
                m = self.next_uint32() * excl
                leftover = m & _U32
        return low + (m >> 32)

    def poisson(self, lam: float) -> int:
        """``Generator.poisson(lam)``: numpy's ``random_poisson``."""
        if lam >= 10.0:
            if lam > POISSON_LAM_MAX:
                raise ValueError(f"lam value too large: {lam}")
            return self._poisson_ptrs(lam)
        if lam > 0.0:
            enlam = self._exp_minus(lam)
            count = 0
            prod = self.random()
            while prod > enlam:
                count += 1
                prod *= self.random()
            return count
        if lam == 0.0:
            return 0
        raise ValueError(f"lam must be >= 0, got {lam}")

    def _exp_minus(self, lam: float) -> float:
        if lam != self._lam:
            self._lam = lam
            self._enlam = math.exp(-lam)
        return self._enlam

    def _poisson_ptrs(self, lam: float) -> int:
        slam = math.sqrt(lam)
        loglam = math.log(lam)
        b = 0.931 + 2.53 * slam
        a = -0.059 + 0.02483 * b
        invalpha = 1.1239 + 1.1328 / (b - 3.4)
        vr = 0.9277 - 3.6224 / (b - 2)
        while True:
            u = self.random() - 0.5
            v = self.random()
            us = 0.5 - abs(u)
            if us == 0.0:
                # numpy divides by zero here; k becomes floor(-inf),
                # a negative int64, and the draw is rejected.
                continue
            k = math.floor((2 * a / us + b) * u + lam + 0.43)
            if us >= 0.07 and v <= vr:
                return k
            if k < 0 or (us < 0.013 and v > us):
                continue
            log_v = math.log(v) if v > 0.0 else -math.inf
            if (log_v + math.log(invalpha) - math.log(a / (us * us) + b)
                    <= -lam + k * loglam - _loggam(float(k + 1))):
                return k

    def skip_zero_poissons(self, lam: float, limit: int) -> int:
        """Consume up to ``limit`` draws of ``poisson(lam)`` that are 0
        after one word each; returns how many were consumed.

        For ``0 < lam < 10`` a draw is 0 exactly when its first word
        ``w`` has ``random() <= exp(-lam)``, i.e. ``(w >> 11) <=
        exp(-lam) * 2**53`` (scaling by a power of two is exact), and
        then takes that word only, so a run of zero draws is a run of
        words tested against one integer bound.  The run stops at the
        first other word, which :meth:`poisson` then reads as its
        draw's first.  ``lam == 0`` draws take no word, so all
        ``limit`` are consumed; none is skipped for any other ``lam``.
        """
        if lam == 0.0:
            return limit
        if not 0.0 < lam < 10.0:
            return 0
        bound = math.floor(self._exp_minus(lam) * _TWO_53)
        skipped = 0
        while skipped < limit:
            pos = self.pos
            if pos == len(self.words):
                self.refill()
                pos = 0
            words = self.words
            end = min(len(words), pos + limit - skipped)
            stop = pos
            while stop < end and words[stop] >> 11 <= bound:
                stop += 1
            skipped += stop - pos
            self.pos = stop
            if stop < end:
                break
        return skipped


def _loggam(x: float) -> float:
    """numpy's ``random_loggam``: ``log(gamma(x))`` for ``x >= 1``."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_COEFFS[9]
    for coeff in _LOGGAM_COEFFS[8::-1]:
        gl0 *= x2
        gl0 += coeff
    gl = gl0 / x0 + 0.5 * _LOG_2PI + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl


#: ``(seed, [(kind, arg), ...])`` interleavings checked against numpy,
#: where ``arg`` is ``integers``' ``high`` (``low`` is 0) or
#: ``poisson``'s ``lam``: small ranges, the no-draw range 1, the full
#: 2**32 range, 2**31+1, which rejects about half of its first draws,
#: and Poisson means on both sides of the PTRS switch at 10, whose
#: acceptance tests reach ``_loggam`` (below 7 too, at ``lam`` 10).
_CHECKS = (
    (0, [("random", 0), ("integers", 15), ("integers", 2 ** 31 + 1),
         ("integers", 1), ("random", 0), ("integers", 2 ** 32),
         ("integers", 3), ("integers", 2 ** 31 + 1)] * 24),
    (7, [("integers", 2 ** 31 + 1)] * 64 + [("random", 0)] * 8),
    (11, [("poisson", 0.2), ("poisson", 10.0), ("random", 0),
          ("poisson", 37.5), ("integers", 5), ("poisson", 3.3),
          ("poisson", 10.0), ("poisson", 0.0), ("poisson", 250.0)] * 48),
    (810, [("poisson", 10.0)] * 24),
)


@functools.cache
def _self_check() -> None:
    """Compare replayed draws with scalar numpy, once per process.

    A raised mismatch is not cached, so every later construction fails
    the same way instead of drawing a silently different stream.
    """
    for seed, calls in _CHECKS:
        expected = np.random.default_rng(seed)
        # Built without __init__, which would recurse into this check.
        replay = DrawReplay.__new__(DrawReplay)
        replay._bind(np.random.default_rng(seed).bit_generator, 5)
        for i, (kind, arg) in enumerate(calls):
            if kind == "random":
                want, got = expected.random(), replay.random()
            elif kind == "integers":
                want = int(expected.integers(0, arg))
                got = replay.integers(0, arg)
            else:
                want = int(expected.poisson(arg))
                got = replay.poisson(arg)
            if want != got:
                raise RuntimeError(
                    f"DrawReplay no longer matches numpy {np.__version__}: "
                    f"draw {i} ({kind}, {arg}) of seed {seed} gave "
                    f"{got!r}, numpy gave {want!r}")
