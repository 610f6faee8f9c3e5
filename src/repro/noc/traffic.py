"""Synthetic traffic patterns and injection processes (Section 4.1).

The paper evaluates uniform random, bit reversal, and shuffle (Figure 11);
the other Booksim classics are included for completeness and for the
sensitivity studies.  Destinations are functions of the source's binary
address, as in Dally & Towles.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from repro.draws import DrawReplay, ScalarDraws
from repro.noc.packet import Packet

#: ``pick(src, rng) -> dst``.  A pattern may call only ``rng.random()``
#: and ``rng.integers(low, high)``: those are the draws
#: :class:`~repro.draws.DrawReplay` reproduces.
PatternFn = Callable[[int, ScalarDraws], int]


def _address_bits(nodes: int) -> int:
    bits = int(math.log2(nodes))
    if 2 ** bits != nodes:
        raise ValueError(f"bit-permutation patterns need power-of-2 nodes, "
                         f"got {nodes}")
    return bits


def uniform(nodes: int) -> PatternFn:
    """Uniform random: every other node equally likely."""

    def pick(src: int, rng: ScalarDraws) -> int:
        dst = int(rng.integers(0, nodes - 1))
        return dst if dst < src else dst + 1

    return pick


def bit_reversal(nodes: int) -> PatternFn:
    """Destination address is the bit-reversed source address."""
    bits = _address_bits(nodes)

    def pick(src: int, rng: ScalarDraws) -> int:
        out = 0
        for b in range(bits):
            if src & (1 << b):
                out |= 1 << (bits - 1 - b)
        return out

    return pick


def shuffle(nodes: int) -> PatternFn:
    """Perfect shuffle: rotate the address left by one bit."""
    bits = _address_bits(nodes)

    def pick(src: int, rng: ScalarDraws) -> int:
        return ((src << 1) | (src >> (bits - 1))) & (nodes - 1)

    return pick


def transpose(nodes: int) -> PatternFn:
    """Swap the high and low halves of the address."""
    bits = _address_bits(nodes)
    half = bits // 2

    def pick(src: int, rng: ScalarDraws) -> int:
        low = src & ((1 << half) - 1)
        high = src >> half
        return (low << (bits - half)) | high

    return pick


def bit_complement(nodes: int) -> PatternFn:
    """Complement every address bit."""
    _address_bits(nodes)

    def pick(src: int, rng: ScalarDraws) -> int:
        return (~src) & (nodes - 1)

    return pick


def neighbor(nodes: int) -> PatternFn:
    """Send to the next node, modulo the network size."""

    def pick(src: int, rng: ScalarDraws) -> int:
        return (src + 1) % nodes

    return pick


def tornado(nodes: int) -> PatternFn:
    """Send almost half-way around: src + ceil(N/2) - 1."""

    offset = (nodes + 1) // 2 - 1

    def pick(src: int, rng: ScalarDraws) -> int:
        dst = (src + offset) % nodes
        return dst if dst != src else (src + 1) % nodes

    return pick


def hotspot(nodes: int, hot: int = 0, fraction: float = 0.3) -> PatternFn:
    """Send ``fraction`` of traffic to one hot node, the rest uniformly."""
    if not 0 <= hot < nodes:
        raise ValueError(f"hot node must be in [0, {nodes}), got {hot}")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    background = uniform(nodes)

    def pick(src: int, rng: ScalarDraws) -> int:
        if src != hot and rng.random() < fraction:
            return hot
        return background(src, rng)

    return pick


PATTERNS: dict[str, Callable[[int], PatternFn]] = {
    "uniform": uniform,
    "bit_reversal": bit_reversal,
    "shuffle": shuffle,
    "transpose": transpose,
    "bit_complement": bit_complement,
    "neighbor": neighbor,
    "tornado": tornado,
}


def make_pattern(name: str, nodes: int) -> PatternFn:
    """Look up a pattern by name."""
    try:
        return PATTERNS[name](nodes)
    except KeyError:
        raise ValueError(
            f"unknown pattern {name!r}; known: {sorted(PATTERNS)}") from None


class TrafficGenerator:
    """Bernoulli packet injection following a synthetic pattern.

    ``load`` is the offered load in flits per node per cycle; each cycle
    each node independently creates a packet with probability
    ``load / packet_size``.

    The stream is the one scalar numpy draws give: per cycle, per node in
    order, one ``rng.random()`` against that probability, then the
    pattern's own draws on a hit.  ``rng`` is a
    :class:`~repro.draws.DrawReplay`, which reproduces those draws over
    bulk PCG64 words, so a pattern may call only ``random()`` and
    ``integers(low, high)`` on it.  Each chunk's hit words are found in
    one numpy test (``(w >> 11) < prob * 2**53``, exact because the
    multiplication is by a power of two) and a cycle walks only those.
    """

    def __init__(self, nodes: int, pattern: str | PatternFn,
                 load: float, packet_size: int = 4,
                 seed: int = 1) -> None:
        if nodes < 2:
            raise ValueError(f"need >= 2 nodes, got {nodes}")
        if not 0.0 <= load <= 1.0:
            raise ValueError(f"load must be in [0, 1], got {load}")
        if packet_size < 1:
            raise ValueError("packet_size must be >= 1")
        self.nodes = nodes
        self.pattern = (make_pattern(pattern, nodes)
                        if isinstance(pattern, str) else pattern)
        self.load = load
        self.packet_size = packet_size
        self.rng = DrawReplay(np.random.default_rng(seed))
        self.generated = 0
        # A word w is a hit when random() = (w >> 11) * 2**-53 < prob.
        self._hit_below = math.ceil(load / packet_size * 2.0 ** 53)
        self._hits_of = self.rng.chunk
        self._hits: list[int] = []
        self._next_hit = 0

    def packets_for_cycle(self, cycle: int) -> list[Packet]:
        """Packets created this cycle (possibly empty)."""
        rng = self.rng
        nodes = self.nodes
        created: list[Packet] = []
        src = 0
        while src < nodes:
            pos = rng.pos
            if pos == len(rng.chunk):
                rng.refill()
                pos = 0
            if rng.chunk is not self._hits_of:  # refilled, maybe by a pattern
                self._hits_of = rng.chunk
                self._hits = np.flatnonzero(
                    (rng.chunk >> 11) < self._hit_below).tolist()
                self._next_hit = 0
            hits = self._hits
            i = self._next_hit
            while i < len(hits) and hits[i] < pos:  # a pattern drew them
                i += 1
            end = min(pos + nodes - src, len(rng.chunk))
            if i == len(hits) or hits[i] >= end:
                src += end - pos
                rng.pos = end
                self._next_hit = i
                continue
            hit = hits[i]
            src += hit - pos
            rng.pos = hit + 1
            self._next_hit = i + 1
            dst = self.pattern(src, rng)
            if dst != src:  # self-traffic is dropped, as in Booksim
                created.append(Packet(src=src, dst=dst,
                                      size_flits=self.packet_size,
                                      create_cycle=cycle))
                self.generated += 1
            src += 1
        return created


class TracePlayback:
    """Replays an explicit list of (cycle, src, dst, size) events.

    Used by the full-system model to drive the NoP with workload-derived
    traffic instead of a synthetic pattern.  ``events`` is a sequence of
    ``(cycle, src, dst, size)`` tuples or an ``(n, 4)`` integer array;
    either way the trace plays them in ``sorted(events)`` order, held as
    int64 columns (:attr:`cycles`, :attr:`srcs`, :attr:`dsts`,
    :attr:`sizes`) that the kernel's bulk playback reads.
    """

    def __init__(self, events, traffic_class: str = "data") -> None:
        table = np.asarray(events, dtype=np.int64).reshape(-1, 4)
        # Tuple order: cycle first, ties broken by src, dst, then size.
        order = np.lexsort(table.T[::-1])
        self.cycles, self.srcs, self.dsts, self.sizes = table[order].T
        # Scalar access from Python lists beats ndarray indexing.
        self._events = list(zip(*(column.tolist() for column in
                                  (self.cycles, self.srcs, self.dsts,
                                   self.sizes))))
        self.traffic_class = traffic_class
        self._pos = 0
        self.generated = 0
        self._keys = None  # key_ids(), built on first use

    def __len__(self) -> int:
        return len(self._events)

    def packets_for_cycle(self, cycle: int) -> list[Packet]:
        created: list[Packet] = []
        events, pos = self._events, self._pos
        while pos < len(events) and events[pos][0] <= cycle:
            _, src, dst, size = events[pos]
            pos += 1
            if src == dst:
                continue
            created.append(Packet(src=src, dst=dst, size_flits=size,
                                  create_cycle=cycle,
                                  traffic_class=self.traffic_class))
        self.generated += len(created)
        self._pos = pos
        return created

    def next_event_cycle(self, cycle: int) -> int | None:
        """Cycle of the next unplayed event, or None when exhausted.

        Declares this source idle-skippable: unlike a random generator
        (which draws RNG every cycle and so must be stepped through
        every cycle), a trace knows exactly when its next packet lands,
        letting :meth:`SimKernel.run` fast-forward quiescent stretches.
        The ``cycle`` argument is the caller's current cycle; all events
        at or before it have already been played.
        """
        if self._pos >= len(self._events):
            return None
        return self._events[self._pos][0]

    def upcoming(self, until_cycle: int) -> list[tuple[int, int, int, int]]:
        """Unplayed events before ``until_cycle`` that become packets.

        Read-only lookahead: the ``(cycle, src, dst, size)`` events that
        :meth:`packets_for_cycle` would turn into packets, in play order,
        with self-traffic dropped as it drops it.
        """
        found = []
        events, pos = self._events, self._pos
        while pos < len(events) and events[pos][0] < until_cycle:
            event = events[pos]
            if event[1] != event[2]:
                found.append(event)
            pos += 1
        return found

    def key_ids(self) -> tuple[list[tuple[int, int, int]], np.ndarray]:
        """The trace's distinct ``(src, dst, size)`` keys, and each
        event's index into them (computed once)."""
        if self._keys is None:
            table = np.stack([self.srcs, self.dsts, self.sizes], axis=1)
            keys, ids = np.unique(table, axis=0, return_inverse=True)
            self._keys = ([tuple(key) for key in keys.tolist()],
                          ids.reshape(-1))
        return self._keys

    def skip_played(self, count: int) -> None:
        """Mark the next ``count`` events played, as if each had become a
        packet; the caller vouches that none is self-traffic."""
        self._pos += count
        self.generated += count

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._events)
