"""Arbiters: round-robin for router switch allocation, wavefront for the
MZIM control unit's crossbar scheduling (Section 3.4).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


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

    def grant_sparse(self, lines: Sequence[int]) -> int | None:
        """Grant among a sparse list of requesting line indices.

        Equivalent to :meth:`grant` over a dense vector with exactly
        ``lines`` set (see :func:`rr_sparse`).
        """
        if not len(lines):
            return None
        self._last = idx = rr_sparse(lines, self._last, self.n)
        return idx


class WavefrontArbiter:
    """Wavefront allocator for an ``n x n`` crossbar request matrix.

    Computes a maximal matching between inputs and outputs in a single
    combinational wave, rotating the priority diagonal every allocation for
    fairness — the arbiter the MZIM control unit uses to build
    communication maps (Section 3.4).
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("arbiter needs at least one port")
        self.n = n
        self._priority = 0

    def rotate(self, turns: int = 1) -> None:
        """Advance the priority diagonal without allocating.

        :meth:`allocate` rotates on *every* call, requests or not, so an
        idle fast path that skips building an empty request matrix must
        still rotate to keep later allocations cycle-exact.  ``turns``
        lets an idle fast-forward apply many skipped cycles at once.
        """
        self._priority = (self._priority + turns) % self.n

    def allocate(self, requests: np.ndarray) -> list[tuple[int, int]]:
        """Grant a conflict-free subset of the request matrix.

        ``requests[i, j]`` is truthy when input ``i`` wants output ``j``.
        Returns granted ``(input, output)`` pairs.
        """
        req = np.asarray(requests, dtype=bool)
        if req.shape != (self.n, self.n):
            raise ValueError(f"expected {(self.n, self.n)} matrix, "
                             f"got {req.shape}")
        row_free = [True] * self.n
        col_free = [True] * self.n
        grants: list[tuple[int, int]] = []
        for wave in range(self.n):
            diag = (self._priority + wave) % self.n
            for i in range(self.n):
                j = (diag - i) % self.n
                if req[i, j] and row_free[i] and col_free[j]:
                    grants.append((i, j))
                    row_free[i] = False
                    col_free[j] = False
        self._priority = (self._priority + 1) % self.n
        return grants

    def allocate_sparse(self, pairs: Sequence[tuple[int, int]]
                        ) -> list[tuple[int, int]]:
        """Allocate a sparse request list without building the matrix.

        Equivalent to :meth:`allocate` on a dense matrix with exactly
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

    def is_maximal(self, requests: np.ndarray,
                   grants: list[tuple[int, int]]) -> bool:
        """Check no further grant could be added (used by tests)."""
        req = np.asarray(requests, dtype=bool)
        rows = {i for i, _ in grants}
        cols = {j for _, j in grants}
        for i in range(self.n):
            for j in range(self.n):
                if req[i, j] and i not in rows and j not in cols:
                    return False
        return True
