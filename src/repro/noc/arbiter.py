"""Arbiters: round-robin for router switch allocation, wavefront for the
MZIM control unit's crossbar scheduling (Section 3.4).
"""

from __future__ import annotations

from collections.abc import Sequence


def rr_sparse(lines, last: int, n: int) -> int:
    """Round-robin winner among sparse request line indices.

    Equivalent to :meth:`RoundRobinArbiter.grant` over a dense request
    vector with exactly ``lines`` set: the scan from ``last + 1`` hits
    first the line minimizing ``(line - last - 1) mod n`` (distances
    are distinct per line, so the minimum is unique).
    """
    return min(lines, key=lambda line: (line - last - 1) % n)


class RoundRobinArbiter:
    """Classic rotating-priority arbiter over ``n`` requesters."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("arbiter needs at least one requester")
        self.n = n
        self._last = n - 1

    def grant(self, requests: Sequence[bool]) -> int | None:
        """Return the granted requester index, or None when idle.

        The winner becomes lowest priority for the next arbitration.
        """
        if len(requests) != self.n:
            raise ValueError(f"expected {self.n} request lines")
        for offset in range(1, self.n + 1):
            idx = (self._last + offset) % self.n
            if requests[idx]:
                self._last = idx
                return idx
        return None


class WavefrontArbiter:
    """Wavefront allocator for an ``n x n`` crossbar request matrix.

    Computes a maximal matching between inputs and outputs in a single
    combinational wave, rotating the priority diagonal every allocation for
    fairness — the arbiter the MZIM control unit uses to build
    communication maps (Section 3.4).  The hardware scans the dense
    ``n x n`` request matrix diagonal by diagonal; :meth:`allocate_sparse`
    grants the same matching from the request list alone.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("arbiter needs at least one port")
        self.n = n
        self._priority = 0

    def rotate(self, turns: int = 1) -> None:
        """Advance the priority diagonal without allocating.

        The arbiter rotates on *every* allocation, requests or not, so
        an idle fast path that skips an empty allocation must still
        rotate to keep later allocations cycle-exact.  ``turns``
        lets an idle fast-forward apply many skipped cycles at once.
        """
        self._priority = (self._priority + turns) % self.n

    def allocate_sparse(self, pairs: Sequence[tuple[int, int]]
                        ) -> list[tuple[int, int]]:
        """Allocate a sparse request list without building the matrix.

        Equivalent to the wavefront scan of a dense matrix with exactly
        ``pairs`` set: the dense scan visits cell ``(i, j)`` during wave
        ``((i + j) - priority) mod n`` and, within a wave, in ascending
        ``i``; greedily granting the sparse cells in that order yields
        the same matching, grant order included.  Cost is
        ``O(k log k)`` in the request count instead of ``O(n^2)``.
        """
        prio, n = self._priority, self.n
        ordered = sorted(
            pairs, key=lambda ij: (((ij[0] + ij[1]) - prio) % n, ij[0]))
        row_used: set[int] = set()
        col_used: set[int] = set()
        grants: list[tuple[int, int]] = []
        for i, j in ordered:
            if i not in row_used and j not in col_used:
                grants.append((i, j))
                row_used.add(i)
                col_used.add(j)
        self._priority = (self._priority + 1) % self.n
        return grants
