"""Measurement infrastructure for the NoP simulator.

Collects the packet latency histogram, throughput, and the per-interval
link utilization timelines that reproduce Figure 1.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.obs.metrics import percentile_summary


@dataclass
class LatencyStats:
    """Per-packet latency accounting with warmup exclusion.

    Packets created during the warmup period are counted in the raw
    ``received`` / ``received_flits`` totals but excluded from both the
    latency histogram and the ``measured_*`` counters that feed
    :meth:`throughput` — latency and throughput therefore agree on the
    measurement window.  The histogram is exact: ``{latency: count}``.
    """

    warmup_cycles: int = 0
    histogram: dict[int, int] = field(default_factory=dict)
    received: int = 0
    received_flits: int = 0
    #: Post-warmup packets/flits only — the measurement window's share.
    measured: int = 0
    measured_flits: int = 0

    def record(self, packet_create_cycle: int, tail_arrival_cycle: int,
               size_flits: int) -> None:
        self.received += 1
        self.received_flits += size_flits
        if packet_create_cycle >= self.warmup_cycles:
            latency = tail_arrival_cycle - packet_create_cycle
            self.histogram[latency] = self.histogram.get(latency, 0) + 1
            self.measured += 1
            self.measured_flits += size_flits

    def record_many(self, create_cycles: np.ndarray,
                    latencies: np.ndarray, sizes: np.ndarray) -> None:
        """:meth:`record` for many packets at once (int64 arrays), with
        one add per distinct latency."""
        self.received += len(create_cycles)
        self.received_flits += int(sizes.sum())
        if self.warmup_cycles > 0:
            measured = create_cycles >= self.warmup_cycles
            latencies, sizes = latencies[measured], sizes[measured]
        self.measured += len(latencies)
        self.measured_flits += int(sizes.sum())
        counts = np.bincount(latencies)
        values = np.flatnonzero(counts)
        histogram = self.histogram
        for value, count in zip(values.tolist(), counts[values].tolist()):
            histogram[value] = histogram.get(value, 0) + count

    @property
    def average(self) -> float:
        # One rounding of an exact sum (< 2**53), as ``np.mean`` does.
        total = sum(v * c for v, c in self.histogram.items())
        return total / self.measured if self.measured else 0.0

    @property
    def p99(self) -> float:
        return percentile_summary(self.histogram)["p99"] or 0.0

    @property
    def maximum(self) -> int:
        return max(self.histogram, default=0)

    def throughput(self, nodes: int, measured_cycles: int) -> float:
        """Accepted flits per node per cycle, over the measurement window.

        Counts only flits of post-warmup packets — the same population
        the latency statistics describe.  (Warmup-period flits used to
        leak into this rate; see the regression test.)
        """
        if measured_cycles <= 0:
            return 0.0
        return self.measured_flits / (nodes * measured_cycles)

    def to_dict(self) -> dict:
        """JSON-ready snapshot of the latency statistics."""
        return {
            "received": self.received,
            "received_flits": self.received_flits,
            "measured": self.measured,
            "measured_flits": self.measured_flits,
            "warmup_cycles": self.warmup_cycles,
            "avg_latency": self.average,
            "p99_latency": self.p99,
            "max_latency": self.maximum,
        }


@dataclass
class UtilizationTracker:
    """Per-interval busy fraction of the network's links (Figure 1).

    ``on_flush(interval_index, fraction)`` — when set — fires as each
    interval closes; the networks wire it to the tracer's counter
    events so link-busy timelines land in the Chrome trace.
    """

    num_links: int
    interval_cycles: int = 100
    _busy_in_interval: int = 0
    _cycle_in_interval: int = 0
    timeline: list[float] = field(default_factory=list)
    on_flush: Callable[[int, float], None] | None = None

    def __post_init__(self) -> None:
        if self.interval_cycles < 1:
            raise ValueError(f"utilization interval_cycles must be >= 1, "
                             f"got {self.interval_cycles}")

    def record_cycle(self, busy_links: int) -> None:
        if busy_links > self.num_links:
            raise ValueError(
                f"{busy_links} busy links exceeds {self.num_links}")
        self._busy_in_interval += busy_links
        self._cycle_in_interval += 1
        if self._cycle_in_interval == self.interval_cycles:
            self._flush()

    def record_idle_cycles(self, idle_cycles: int) -> None:
        """Account ``idle_cycles`` consecutive all-idle cycles at once.

        Equivalent to ``record_cycle(0)`` called ``idle_cycles`` times —
        interval boundaries fall at the same cycles, the same fractions
        land on the timeline, and ``on_flush`` fires per interval — but
        in O(intervals crossed) instead of O(cycles).  Backends' idle
        fast-forward uses this to keep utilization output byte-exact.
        """
        self.record_cycles(0, idle_cycles)

    def record_cycles(self, busy_links: int, cycles: int) -> None:
        """Account ``cycles`` consecutive cycles at one busy-link count.

        Byte-equivalent to ``record_cycle(busy_links)`` repeated
        ``cycles`` times: the same interval boundaries, fractions, and
        ``on_flush`` firings, in O(intervals crossed).  Fast-forward
        paths use this for stretches where the set of transferring
        circuits — and hence the busy count — is provably constant.
        """
        if busy_links > self.num_links:
            raise ValueError(
                f"{busy_links} busy links exceeds {self.num_links}")
        while cycles > 0:
            room = self.interval_cycles - self._cycle_in_interval
            chunk = min(cycles, room)
            self._busy_in_interval += busy_links * chunk
            self._cycle_in_interval += chunk
            cycles -= chunk
            if self._cycle_in_interval == self.interval_cycles:
                self._flush()

    def record_segments(self, busy_links: np.ndarray,
                        cycles: np.ndarray) -> None:
        """:meth:`record_cycles` once per ``(busy_links[i], cycles[i])``
        segment, in order, over integer arrays.

        Interval sums are exact integers, so the same fractions land on
        the timeline and ``on_flush`` fires as often, in the same order.
        Raises before recording anything if a segment's busy count
        exceeds the links.
        """
        busy_links = np.asarray(busy_links, dtype=np.int64)
        cycles = np.asarray(cycles, dtype=np.int64)
        if busy_links.size and int(busy_links.max()) > self.num_links:
            raise ValueError(
                f"{int(busy_links.max())} busy links exceeds "
                f"{self.num_links}")
        interval = self.interval_cycles
        # Cycle position and busy-link total at each segment boundary,
        # counted from the open interval's start.
        at = np.concatenate(([self._cycle_in_interval],
                             self._cycle_in_interval + np.cumsum(cycles)))
        weight = np.concatenate(([self._busy_in_interval],
                                 self._busy_in_interval
                                 + np.cumsum(busy_links * cycles)))
        closed = int(at[-1]) // interval
        if closed:
            # Busy total at each interval boundary: the segment holding
            # it contributes pro rata (the boundary is a whole cycle).
            bounds = np.arange(1, closed + 1, dtype=np.int64) * interval
            seg = np.searchsorted(at, bounds, side="right") - 1
            seg = np.minimum(seg, len(cycles) - 1)
            totals = weight[seg] + busy_links[seg] * (bounds - at[seg])
            sums = np.diff(np.concatenate(([0], totals))).tolist()
            for total in sums:
                self._busy_in_interval = total
                self._cycle_in_interval = interval
                self._flush()
            self._busy_in_interval = int(weight[-1] - totals[-1])
        else:
            self._busy_in_interval = int(weight[-1])
        self._cycle_in_interval = int(at[-1]) - closed * interval

    def _flush(self) -> None:
        if self._cycle_in_interval and self.num_links:
            self.timeline.append(
                self._busy_in_interval
                / (self.num_links * self._cycle_in_interval))
            if self.on_flush is not None:
                self.on_flush(len(self.timeline) - 1, self.timeline[-1])
        self._busy_in_interval = 0
        self._cycle_in_interval = 0

    def finish(self) -> None:
        """Flush a trailing partial interval."""
        if self._cycle_in_interval:
            self._flush()

    @property
    def average(self) -> float:
        return float(np.mean(self.timeline)) if self.timeline else 0.0

    @property
    def peak(self) -> float:
        return max(self.timeline) if self.timeline else 0.0

    def to_dict(self) -> dict:
        """JSON-ready snapshot of the utilization timeline."""
        return {
            "num_links": self.num_links,
            "interval_cycles": self.interval_cycles,
            "average": self.average,
            "peak": self.peak,
            "timeline": list(self.timeline),
        }


@dataclass
class SimulationResult:
    """Outcome of one network simulation run."""

    topology: str
    pattern: str
    load: float
    cycles: int
    latency: LatencyStats
    utilization: UtilizationTracker | None = None
    injected_packets: int = 0
    flit_hops: int = 0
    link_traversals: int = 0
    saturated: bool = False

    @property
    def avg_latency(self) -> float:
        return self.latency.average

    def to_dict(self) -> dict:
        """JSON-ready snapshot of one simulation run."""
        return {
            "topology": self.topology,
            "pattern": self.pattern,
            "load": self.load,
            "cycles": self.cycles,
            "injected_packets": self.injected_packets,
            "flit_hops": self.flit_hops,
            "link_traversals": self.link_traversals,
            "saturated": self.saturated,
            "latency": self.latency.to_dict(),
            "utilization": (self.utilization.to_dict()
                            if self.utilization else None),
        }

    def summary(self) -> str:
        state = " (saturated)" if self.saturated else ""
        return (f"{self.topology:8s} {self.pattern:14s} load={self.load:.2f} "
                f"avg={self.avg_latency:7.1f}cy p99={self.latency.p99:7.1f}"
                f"{state}")
