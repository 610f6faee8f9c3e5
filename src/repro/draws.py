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

The mirrored algorithms are numpy internals, so every process checks a
few replayed draws against numpy before the first replay is built, and
raises naming the numpy version on a mismatch.  Once wrapped, the
``Generator`` must not be drawn from directly: its state runs up to a
chunk ahead of the replay.
"""

from __future__ import annotations

import functools
from typing import Protocol

import numpy as np

#: Words fetched per ``random_raw`` call.
CHUNK_WORDS = 1024

_TWO_M53 = 1.0 / 9007199254740992.0
_U32 = 0xFFFFFFFF


class ScalarDraws(Protocol):
    """The draws a :class:`DrawReplay` reproduces (and a Generator has)."""

    def random(self) -> float: ...

    def integers(self, low: int, high: int) -> int: ...


class DrawReplay:
    """numpy's scalar ``random``/``integers`` over chunked raw words.

    ``chunk`` holds the current words as a ``uint64`` array, which
    callers may classify in bulk, and ``pos`` the index of the next
    unread word.  Each refill replaces ``chunk`` (never mutates it).
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
        self.pos = 0

    def refill(self) -> None:
        """Replace the chunk with the next ``chunk_words`` words."""
        self.chunk = self._raw(self._chunk_words)
        self.pos = 0

    def next_uint64(self) -> int:
        if self.pos == len(self.chunk):
            self.refill()
        word = self.chunk.item(self.pos)
        self.pos += 1
        return word

    def next_uint32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = False
            return self._uinteger
        word = self.next_uint64()
        self._has_uint32 = True
        self._uinteger = word >> 32
        return word & _U32

    def random(self) -> float:
        """``Generator.random()``: a float64 in [0, 1)."""
        return (self.next_uint64() >> 11) * _TWO_M53

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


#: ``(seed, [(kind, high), ...])`` interleavings checked against numpy:
#: small ranges, the no-draw range 1, the full 2**32 range, and 2**31+1,
#: which rejects about half of its first draws.
_CHECKS = (
    (0, [("random", 0), ("integers", 15), ("integers", 2 ** 31 + 1),
         ("integers", 1), ("random", 0), ("integers", 2 ** 32),
         ("integers", 3), ("integers", 2 ** 31 + 1)] * 24),
    (7, [("integers", 2 ** 31 + 1)] * 64 + [("random", 0)] * 8),
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
        for i, (kind, high) in enumerate(calls):
            if kind == "random":
                want, got = expected.random(), replay.random()
            else:
                want = int(expected.integers(0, high))
                got = replay.integers(0, high)
            if want != got:
                raise RuntimeError(
                    f"DrawReplay no longer matches numpy {np.__version__}: "
                    f"draw {i} ({kind}, high={high}) of seed {seed} gave "
                    f"{got!r}, numpy gave {want!r}")
