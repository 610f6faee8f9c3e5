"""Scalar-numpy synthetic traffic: the oracle for ``TrafficGenerator``.

This is the generator as it drew before :class:`repro.draws.DrawReplay`:
one ``Generator.random()`` call per node per cycle, and the pattern's
draws made on the ``Generator`` itself.  ``TrafficGenerator`` must
produce the same packets, cycle by cycle, and the same ``generated``.
"""

from __future__ import annotations

import numpy as np

from repro.noc.packet import Packet
from repro.noc.traffic import PatternFn, make_pattern


class ReferenceTrafficGenerator:
    def __init__(self, nodes: int, pattern: str | PatternFn,
                 load: float, packet_size: int = 4,
                 seed: int = 1) -> None:
        self.nodes = nodes
        self.pattern = (make_pattern(pattern, nodes)
                        if isinstance(pattern, str) else pattern)
        self.load = load
        self.packet_size = packet_size
        self.rng = np.random.default_rng(seed)
        self.generated = 0

    def packets_for_cycle(self, cycle: int) -> list[Packet]:
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
