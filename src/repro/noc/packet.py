"""Packets and flits for the cycle-accurate NoP simulator.

Wormhole networks move *flits* (flow-control digits); a packet is a head
flit, zero or more body flits, and a tail flit (a single-flit packet's head
is also its tail).  Flit width equals the channel phit width, so one flit
crosses one link per cycle.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

_packet_ids = itertools.count()


@dataclass
class Packet:
    """One network packet."""

    src: int
    dst: int
    size_flits: int
    create_cycle: int
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    #: Optional tag distinguishing traffic classes (e.g. "compute_request").
    traffic_class: str = "data"
    #: For physical multicast (photonic splitting states, Section 3.2):
    #: all destination ports.  Empty for unicast; when set, ``dst`` must be
    #: the first entry.  Only the Flumen network honours this natively —
    #: electrical networks must replicate.
    multicast_dsts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.size_flits < 1:
            raise ValueError(f"packet needs >= 1 flit, got {self.size_flits}")
        if self.src == self.dst:
            raise ValueError("source and destination must differ")
        if self.multicast_dsts:
            if self.multicast_dsts[0] != self.dst:
                raise ValueError("dst must equal multicast_dsts[0]")
            if len(set(self.multicast_dsts)) != len(self.multicast_dsts):
                raise ValueError("duplicate multicast destinations")
            if self.src in self.multicast_dsts:
                raise ValueError("source cannot be a multicast destination")

    @property
    def destinations(self) -> tuple[int, ...]:
        """All destinations: the multicast set, or just ``dst``."""
        return self.multicast_dsts or (self.dst,)

    def flits(self) -> list["Flit"]:
        """Materialize the packet's flit train."""
        return [
            Flit(packet=self, index=i,
                 is_head=(i == 0), is_tail=(i == self.size_flits - 1))
            for i in range(self.size_flits)
        ]


@dataclass
class Flit:
    """One flow-control digit of a packet."""

    packet: Packet
    index: int
    is_head: bool
    is_tail: bool
    #: Virtual channel currently occupied (set on injection / VC allocation).
    vc: int = -1

    @property
    def src(self) -> int:
        return self.packet.src

    @property
    def dst(self) -> int:
        return self.packet.dst

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "H" if self.is_head else "T" if self.is_tail else "B"
        return (f"Flit(p{self.packet.packet_id}{kind}{self.index} "
                f"{self.src}->{self.dst} vc{self.vc})")


def reset_packet_ids() -> None:
    """Reset the global packet-id counter (test isolation)."""
    global _packet_ids
    _packet_ids = itertools.count()


def skip_packet_ids(count: int) -> None:
    """Consume ``count`` ids, as building that many packets would."""
    deque(itertools.islice(_packet_ids, count), maxlen=0)
