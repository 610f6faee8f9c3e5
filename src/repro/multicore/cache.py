"""Set-associative cache hierarchy simulation (the Sniper substitute's
memory side).

Caches are simulated at line granularity with true LRU replacement.  The
full hierarchy walks L1 -> L2 -> L3 -> DRAM, counting accesses, hits and
misses per level — exactly the quantities the McPAT-style energy model
(Figure 13's cache components) consumes.

Workloads feed the hierarchy with *address streams* — int64 arrays of
byte addresses — generated from their actual data-structure walk
(strided weight streams, im2col window reads, output writes), so
locality emerges from structure rather than hand-set hit rates.

Each level runs an exact LRU over arrays, *lockstep by set*: a level's
accesses are grouped by set and ranked within their set, and step ``t``
serves the ``t``-th access of every set at once against an ``(S, A)``
array of resident lines and an ``(S, A)`` array of last-use stamps.  A
hit refreshes its way's stamp; a miss overwrites the way with the
smallest stamp (empty ways hold stamp 0, so they fill first).  Sets
never interact, so this is the scalar per-access LRU, reordered.  The
levels are non-inclusive and fill on every miss, so L2 sees exactly the
L1-miss subsequence and L3 the L2-miss one: the hierarchy is one call
per level, and per-stream counts come from ``np.bincount`` over stream
ids.  ``tests/reference_cache.py`` keeps the scalar ``OrderedDict`` walk
as the oracle.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

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
        # Resident lines and last-use stamps, (num_sets, assoc) each,
        # allocated on first access: an L3 slice is 16,384 sets x 16
        # ways, and a hierarchy built only for its stall model (a memo
        # hit) never walks.  Stamps continue from ``_clock`` across
        # calls, so state carries from one call to the next.
        self._ways: np.ndarray | None = None
        self._stamps: np.ndarray | None = None
        self._clock = 0
        self.stats = CacheStats()

    def access_lines(self, lines: np.ndarray) -> np.ndarray:
        """Access ``lines`` (an int64 array of line addresses) in order.

        Returns one bool per access, True on a hit: the same results as
        accessing each line in turn through a per-set LRU.
        """
        lines = np.asarray(lines, dtype=np.int64)
        n = lines.size
        self.stats.accesses += n
        if n == 0:
            return np.zeros(0, dtype=bool)
        if lines.min() < 0:
            raise ValueError(f"{self.name}: negative line address")
        if self._ways is None:
            # -1 matches no line; stamp 0 is older than any access.
            shape = (self.num_sets, self.assoc)
            self._ways = np.full(shape, -1, dtype=np.int64)
            self._stamps = np.zeros(shape, dtype=np.int64)
        ways, stamps = self._ways, self._stamps
        flat_ways, flat_stamps = ways.reshape(-1), stamps.reshape(-1)
        sets = lines % self.num_sets
        by_set = np.argsort(sets, kind="stable")
        per_set = np.bincount(sets, minlength=self.num_sets)
        rank = np.arange(n) - np.repeat(np.cumsum(per_set) - per_set,
                                        per_set)
        # Accesses grouped by rank; a rank's accesses hit distinct sets.
        order = by_set[np.argsort(rank, kind="stable")]
        step_sets, step_lines = sets[order], lines[order]
        step_rows = step_sets * self.assoc
        hits = np.empty(n, dtype=bool)
        clock, start = self._clock, 0
        for end in np.cumsum(np.bincount(rank)).tolist():
            clock += 1
            s, line = step_sets[start:end], step_lines[start:end]
            # The resident way scores -1, below every stamp; otherwise
            # the oldest way (an empty one first) is the victim.
            score = np.where(ways.take(s, axis=0) == line[:, None], -1,
                             stamps.take(s, axis=0))
            way = step_rows[start:end] + score.argmin(axis=1)
            hits[start:end] = flat_ways[way] == line
            flat_ways[way] = line
            flat_stamps[way] = clock
            start = end
        self._clock = clock
        result = np.empty(n, dtype=bool)
        result[order] = hits
        self.stats.hits += int(np.count_nonzero(hits))
        return result


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

    def stream_lines(self, streams: list[Iterable[int]]
                     ) -> tuple[np.ndarray, list[int]]:
        """``streams`` of byte addresses joined into one array of line
        addresses, with each stream's length.

        A stream may be an ndarray, a buffer of int64 (``array.array``)
        or any iterable of ints.
        """
        arrays = [np.fromiter(stream, dtype=np.int64)
                  if isinstance(stream, Iterator)
                  else np.asarray(stream, dtype=np.int64)
                  for stream in streams]
        joined = (np.concatenate(arrays) if arrays
                  else np.zeros(0, dtype=np.int64))
        return joined // self.cfg.line_size_b, [a.size for a in arrays]

    def access_stream(self, addresses: Iterable[int]) -> HierarchyCounts:
        """Run a full address stream, returning the per-level deltas."""
        return self.access_streams([addresses])[0]

    def access_streams(self, streams: list[Iterable[int]]
                       ) -> list[HierarchyCounts]:
        """Run address streams back to back through L1 -> L2 -> L3 ->
        DRAM, returning each stream's per-level counts.

        Each level is one :meth:`Cache.access_lines` call over the
        accesses the level above missed, in order.
        """
        lines, lengths = self.stream_lines(streams)
        ids = np.repeat(np.arange(len(lengths)), lengths)
        levels = []
        for level in (self.l1, self.l2, self.l3):
            hit = level.access_lines(lines)
            levels.append(
                (np.bincount(ids, minlength=len(lengths)).tolist(),
                 np.bincount(ids[hit], minlength=len(lengths)).tolist()))
            lines, ids = lines[~hit], ids[~hit]
        self.dram_accesses += ids.size
        dram = np.bincount(ids, minlength=len(lengths)).tolist()
        per_stream = []
        for i, dram_accesses in enumerate(dram):
            l1, l2, l3 = (CacheStats(accesses[i], hits[i])
                          for accesses, hits in levels)
            counts = HierarchyCounts(l1, l2, l3, dram_accesses)
            self.account(counts)
            per_stream.append(counts)
        return per_stream

    def account(self, counts: HierarchyCounts) -> None:
        """Feed one stream's per-level counts into the metric counters.

        :meth:`access_streams` calls this for every stream it runs; the
        system model's hierarchy-count memo calls it to replay a stream
        it did not simulate again.
        """
        for level, stats in (("l1", counts.l1), ("l2", counts.l2),
                             ("l3", counts.l3)):
            self._m_hits[level].inc(stats.hits)
            self._m_misses[level].inc(stats.misses)
        self._m_dram.inc(counts.dram_accesses)

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


def strided_stream(base: int, count: int, stride_b: int,
                   repeats: int = 1) -> np.ndarray:
    """Addresses of ``repeats`` passes over a strided region.

    The workhorse for weight/activation streams: a second pass over a
    region that fits in a level hits there, which is how operand reuse
    expresses itself.
    """
    return np.tile(base + stride_b * np.arange(count, dtype=np.int64),
                   repeats)


def blocked_stream(base: int, rows: int, cols: int, elem_b: int,
                   tile_rows: int, tile_cols: int) -> np.ndarray:
    """Tiled 2-D walk of a row-major matrix (blocked matmul access order):
    tile by tile in row-major tile order, row-major within a tile."""
    r, c = np.divmod(np.arange(rows * cols, dtype=np.int64), cols)
    order = np.lexsort((c, r, c // tile_cols, r // tile_rows))
    return (base + r * cols * elem_b + c * elem_b)[order]
