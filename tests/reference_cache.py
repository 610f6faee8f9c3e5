"""Scalar per-address LRU caches: the oracle for the array LRU.

This is the hierarchy as it walked before ``Cache.access_lines``: one
Python call per level per access, each probing a per-set ``OrderedDict``
in recency order.  ``repro.multicore.cache`` must give the same hit or
miss for every access, and so the same counts at every level.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.config import CacheConfig, CoreConfig
from repro.multicore.cache import CacheStats, HierarchyCounts


class ReferenceCache:
    """One set-associative LRU level, one access at a time."""

    def __init__(self, size_b: int, assoc: int, line_b: int) -> None:
        self.line_b = line_b
        self.assoc = assoc
        self.num_sets = size_b // (assoc * line_b)
        self._sets: dict[int, OrderedDict[int, None]] = {}
        self.stats = CacheStats()

    def access(self, addr: int) -> bool:
        """Access one byte address; returns True on hit."""
        line = addr // self.line_b
        s = self._sets.setdefault(line % self.num_sets, OrderedDict())
        self.stats.accesses += 1
        if line in s:
            s.move_to_end(line)
            self.stats.hits += 1
            return True
        if len(s) >= self.assoc:
            s.popitem(last=False)
        s[line] = None
        return False


class ReferenceHierarchy:
    """L1d -> L2 -> L3 -> DRAM, walked one address at a time."""

    def __init__(self, core: CoreConfig | None = None,
                 cache: CacheConfig | None = None) -> None:
        core = core or CoreConfig()
        cfg = cache or CacheConfig()
        line = cfg.line_size_b
        self.l1 = ReferenceCache(core.l1d_size_b, cfg.l1_assoc, line)
        self.l2 = ReferenceCache(cfg.l2_size_b, cfg.l2_assoc, line)
        self.l3 = ReferenceCache(cfg.l3_size_b, cfg.l3_assoc, line)
        self.dram_accesses = 0

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
            self.access(int(addr))
        after = self.snapshot()
        return HierarchyCounts(
            l1=_delta(before.l1, after.l1),
            l2=_delta(before.l2, after.l2),
            l3=_delta(before.l3, after.l3),
            dram_accesses=after.dram_accesses - before.dram_accesses)

    def access_direct(self, addresses) -> int:
        """The offloaded walk: every address goes to L3 alone; returns
        the number of accesses."""
        count = 0
        for addr in addresses:
            count += 1
            if not self.l3.access(int(addr)):
                self.dram_accesses += 1
        return count

    def snapshot(self) -> HierarchyCounts:
        return HierarchyCounts(
            l1=CacheStats(self.l1.stats.accesses, self.l1.stats.hits),
            l2=CacheStats(self.l2.stats.accesses, self.l2.stats.hits),
            l3=CacheStats(self.l3.stats.accesses, self.l3.stats.hits),
            dram_accesses=self.dram_accesses)


def reference_walk(workload, offloaded: bool, core=None, cache=None):
    """Per phase ``(name, addresses processed, HierarchyCounts)`` and the
    L3-direct counts, as ``repro.core.system._walk_streams`` records
    them, from the scalar walk."""
    hierarchy = ReferenceHierarchy(core, cache)
    phases = []
    for phase, stream in workload.address_streams():
        if offloaded:
            processed = hierarchy.access_direct(stream)
            counts = HierarchyCounts()
        else:
            counts = hierarchy.access_stream(stream)
            processed = counts.l1.accesses
        phases.append((phase.name, processed, counts))
    direct = HierarchyCounts()
    if offloaded:
        direct = HierarchyCounts(
            l3=CacheStats(hierarchy.l3.stats.accesses,
                          hierarchy.l3.stats.hits),
            dram_accesses=hierarchy.dram_accesses)
    return tuple(phases), direct


def _delta(before: CacheStats, after: CacheStats) -> CacheStats:
    return CacheStats(accesses=after.accesses - before.accesses,
                      hits=after.hits - before.hits)
