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

from repro.noc.packet import Packet

PatternFn = Callable[[int, np.random.Generator], int]


def _address_bits(nodes: int) -> int:
    bits = int(math.log2(nodes))
    if 2 ** bits != nodes:
        raise ValueError(f"bit-permutation patterns need power-of-2 nodes, "
                         f"got {nodes}")
    return bits


def uniform(nodes: int) -> PatternFn:
    """Uniform random: every other node equally likely."""

    def pick(src: int, rng: np.random.Generator) -> int:
        dst = int(rng.integers(0, nodes - 1))
        return dst if dst < src else dst + 1

    return pick


def bit_reversal(nodes: int) -> PatternFn:
    """Destination address is the bit-reversed source address."""
    bits = _address_bits(nodes)

    def pick(src: int, rng: np.random.Generator) -> int:
        out = 0
        for b in range(bits):
            if src & (1 << b):
                out |= 1 << (bits - 1 - b)
        return out

    return pick


def shuffle(nodes: int) -> PatternFn:
    """Perfect shuffle: rotate the address left by one bit."""
    bits = _address_bits(nodes)

    def pick(src: int, rng: np.random.Generator) -> int:
        return ((src << 1) | (src >> (bits - 1))) & (nodes - 1)

    return pick


def transpose(nodes: int) -> PatternFn:
    """Swap the high and low halves of the address."""
    bits = _address_bits(nodes)
    half = bits // 2

    def pick(src: int, rng: np.random.Generator) -> int:
        low = src & ((1 << half) - 1)
        high = src >> half
        return (low << (bits - half)) | high

    return pick


def bit_complement(nodes: int) -> PatternFn:
    """Complement every address bit."""
    _address_bits(nodes)

    def pick(src: int, rng: np.random.Generator) -> int:
        return (~src) & (nodes - 1)

    return pick


def neighbor(nodes: int) -> PatternFn:
    """Send to the next node, modulo the network size."""

    def pick(src: int, rng: np.random.Generator) -> int:
        return (src + 1) % nodes

    return pick


def tornado(nodes: int) -> PatternFn:
    """Send almost half-way around: src + ceil(N/2) - 1."""

    offset = (nodes + 1) // 2 - 1

    def pick(src: int, rng: np.random.Generator) -> int:
        dst = (src + offset) % nodes
        return dst if dst != src else (src + 1) % nodes

    return pick


def hotspot(nodes: int, hot: int = 0, fraction: float = 0.3) -> PatternFn:
    """Send ``fraction`` of traffic to one hot node, the rest uniformly."""
    background = uniform(nodes)

    def pick(src: int, rng: np.random.Generator) -> int:
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
    """

    def __init__(self, nodes: int, pattern: str | PatternFn,
                 load: float, packet_size: int = 4,
                 seed: int = 1) -> None:
        if not 0.0 <= load <= 1.0:
            raise ValueError(f"load must be in [0, 1], got {load}")
        if packet_size < 1:
            raise ValueError("packet_size must be >= 1")
        self.nodes = nodes
        self.pattern = (make_pattern(pattern, nodes)
                        if isinstance(pattern, str) else pattern)
        self.load = load
        self.packet_size = packet_size
        self.rng = np.random.default_rng(seed)
        self.generated = 0

    def packets_for_cycle(self, cycle: int) -> list[Packet]:
        """Packets created this cycle (possibly empty)."""
        prob = self.load / self.packet_size
        created: list[Packet] = []
        for src in range(self.nodes):
            if self.rng.random() >= prob:
                continue
            dst = self.pattern(src, self.rng)
            if dst == src:  # self-traffic is dropped, as in Booksim
                continue
            created.append(Packet(src=src, dst=dst,
                                  size_flits=self.packet_size,
                                  create_cycle=cycle))
            self.generated += 1
        return created


class TracePlayback:
    """Replays an explicit list of (cycle, src, dst, size) events.

    Used by the full-system model to drive the NoP with workload-derived
    traffic instead of a synthetic pattern.
    """

    def __init__(self, events: list[tuple[int, int, int, int]],
                 traffic_class: str = "data") -> None:
        self.events = sorted(events)
        self.traffic_class = traffic_class
        self._pos = 0
        self.generated = 0

    def packets_for_cycle(self, cycle: int) -> list[Packet]:
        created: list[Packet] = []
        while self._pos < len(self.events) \
                and self.events[self._pos][0] <= cycle:
            _, src, dst, size = self.events[self._pos]
            self._pos += 1
            if src == dst:
                continue
            created.append(Packet(src=src, dst=dst, size_flits=size,
                                  create_cycle=cycle,
                                  traffic_class=self.traffic_class))
            self.generated += 1
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
        if self._pos >= len(self.events):
            return None
        return self.events[self._pos][0]

    def upcoming(self, until_cycle: int) -> list[tuple[int, int, int, int]]:
        """Unplayed events before ``until_cycle`` that become packets.

        Read-only lookahead: the ``(cycle, src, dst, size)`` events that
        :meth:`packets_for_cycle` would turn into packets, in play order,
        with self-traffic dropped as it drops it.
        """
        found = []
        events, pos = self.events, self._pos
        while pos < len(events) and events[pos][0] < until_cycle:
            event = events[pos]
            if event[1] != event[2]:
                found.append(event)
            pos += 1
        return found

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self.events)
