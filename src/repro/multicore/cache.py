"""Set-associative cache hierarchy simulation (the Sniper substitute's
memory side).

Caches are simulated at line granularity with true LRU replacement.  The
full hierarchy walks L1 -> L2 -> L3 -> DRAM, counting accesses, hits and
misses per level — exactly the quantities the McPAT-style energy model
(Figure 13's cache components) consumes.

Workloads feed the hierarchy with *access streams* — iterables of byte
addresses — generated from their actual data-structure walk (strided
weight streams, im2col window reads, output writes), so locality emerges
from structure rather than hand-set hit rates.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.config import CacheConfig, CoreConfig
from repro.obs import NULL_OBS, Obs


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """One set-associative LRU cache level."""

    def __init__(self, size_b: int, assoc: int, line_b: int,
                 name: str = "cache") -> None:
        for field_name, value in (("size_b", size_b), ("assoc", assoc),
                                  ("line_b", line_b)):
            if value <= 0:
                raise ValueError(
                    f"{name}: {field_name} must be positive, got {value}")
        if size_b % (assoc * line_b):
            raise ValueError(
                f"{name}: size {size_b} not divisible by assoc*line")
        self.name = name
        self.line_b = line_b
        self.assoc = assoc
        self.num_sets = size_b // (assoc * line_b)
        # Sets materialize on first touch: an L3 slice has thousands of
        # sets, and short streams (the system model builds a fresh
        # hierarchy per workload phase set) touch a handful.  An absent
        # set and an empty one behave identically under LRU.
        self._sets: dict[int, OrderedDict[int, None]] = {}
        self.stats = CacheStats()

    def access(self, addr: int) -> bool:
        """Access one byte address; returns True on hit."""
        line = addr // self.line_b
        index = line % self.num_sets
        s = self._sets.get(index)
        if s is None:
            s = self._sets[index] = OrderedDict()
        self.stats.accesses += 1
        if line in s:
            s.move_to_end(line)
            self.stats.hits += 1
            return True
        if len(s) >= self.assoc:
            s.popitem(last=False)
        s[line] = None
        return False

    def reset_stats(self) -> None:
        self.stats = CacheStats()


@dataclass
class HierarchyCounts:
    """Access counts per level for one simulated stream."""

    l1: CacheStats = field(default_factory=CacheStats)
    l2: CacheStats = field(default_factory=CacheStats)
    l3: CacheStats = field(default_factory=CacheStats)
    dram_accesses: int = 0

    def add(self, other: HierarchyCounts) -> None:
        """Accumulate ``other``'s counts into this one, level by level."""
        for mine, theirs in ((self.l1, other.l1), (self.l2, other.l2),
                             (self.l3, other.l3)):
            mine.accesses += theirs.accesses
            mine.hits += theirs.hits
        self.dram_accesses += other.dram_accesses


class CacheHierarchy:
    """Private L1d + L2 backed by a shared L3 slice (Table 1 shapes).

    One instance models one chiplet's representative core cluster; the
    system model scales counts by the number of active chiplets, which is
    accurate for the data-parallel workloads evaluated (each chiplet works
    an independent tile of the same structure).
    """

    def __init__(self, core: CoreConfig | None = None,
                 cache: CacheConfig | None = None,
                 obs: Obs = NULL_OBS) -> None:
        core = core or CoreConfig()
        self.cfg = cache or CacheConfig()
        line = self.cfg.line_size_b
        self.l1 = Cache(core.l1d_size_b, self.cfg.l1_assoc, line, "L1d")
        self.l2 = Cache(self.cfg.l2_size_b, self.cfg.l2_assoc, line, "L2")
        self.l3 = Cache(self.cfg.l3_size_b, self.cfg.l3_assoc, line, "L3")
        self.dram_accesses = 0
        self.obs = obs
        self._m_hits = {
            level: obs.metrics.counter("multicore.cache_hits", level=level)
            for level in ("l1", "l2", "l3")}
        self._m_misses = {
            level: obs.metrics.counter("multicore.cache_misses", level=level)
            for level in ("l1", "l2", "l3")}
        self._m_dram = obs.metrics.counter("multicore.dram_accesses")

    def access(self, addr: int) -> str:
        """Walk the hierarchy; returns the level that served the access."""
        if self.l1.access(addr):
            return "l1"
        if self.l2.access(addr):
            return "l2"
        if self.l3.access(addr):
            return "l3"
        self.dram_accesses += 1
        return "dram"

    def access_stream(self, addresses) -> HierarchyCounts:
        """Run a full address stream, returning the per-level deltas."""
        before = self.snapshot()
        for addr in addresses:
            self.access(addr)
        after = self.snapshot()
        counts = HierarchyCounts(
            l1=_delta(before.l1, after.l1),
            l2=_delta(before.l2, after.l2),
            l3=_delta(before.l3, after.l3),
            dram_accesses=after.dram_accesses - before.dram_accesses,
        )
        self.account(counts)
        return counts

    def account(self, counts: HierarchyCounts) -> None:
        """Feed one stream's per-level counts into the metric counters.

        :meth:`access_stream` calls this for every stream it runs; the
        system model's hierarchy-count memo calls it to replay a stream
        it did not simulate again.
        """
        for level, stats in (("l1", counts.l1), ("l2", counts.l2),
                             ("l3", counts.l3)):
            self._m_hits[level].inc(stats.hits)
            self._m_misses[level].inc(stats.misses)
        self._m_dram.inc(counts.dram_accesses)

    def snapshot(self) -> HierarchyCounts:
        return HierarchyCounts(
            l1=CacheStats(self.l1.stats.accesses, self.l1.stats.hits),
            l2=CacheStats(self.l2.stats.accesses, self.l2.stats.hits),
            l3=CacheStats(self.l3.stats.accesses, self.l3.stats.hits),
            dram_accesses=self.dram_accesses,
        )

    def stall_cycles(self, counts: HierarchyCounts,
                     mlp: float = 4.0) -> float:
        """Exposed memory stall cycles for a set of counts.

        Misses at each level pay the next level's latency; out-of-order
        overlap divides the exposed portion by the memory-level
        parallelism.
        """
        raw = (counts.l1.misses * self.cfg.l2_latency_cycles
               + counts.l2.misses * self.cfg.l3_latency_cycles
               + counts.dram_accesses * self.cfg.dram_latency_cycles)
        return raw / max(mlp, 1.0)


def _delta(before: CacheStats, after: CacheStats) -> CacheStats:
    return CacheStats(accesses=after.accesses - before.accesses,
                      hits=after.hits - before.hits)


def strided_stream(base: int, count: int, stride_b: int,
                   repeats: int = 1):
    """Address generator: ``repeats`` passes over a strided region.

    The workhorse for weight/activation streams: a second pass over a
    region that fits in a level hits there, which is how operand reuse
    expresses itself.
    """
    for _ in range(repeats):
        for i in range(count):
            yield base + i * stride_b


def blocked_stream(base: int, rows: int, cols: int, elem_b: int,
                   tile_rows: int, tile_cols: int):
    """Tiled 2-D walk of a row-major matrix (blocked matmul access order)."""
    row_bytes = cols * elem_b
    for tr in range(0, rows, tile_rows):
        for tc in range(0, cols, tile_cols):
            for r in range(tr, min(tr + tile_rows, rows)):
                for c in range(tc, min(tc + tile_cols, cols)):
                    yield base + r * row_bytes + c * elem_b
