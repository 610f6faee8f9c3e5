"""The dense wavefront scan: the oracle for ``allocate_sparse``.

``WavefrontArbiter.allocate_sparse`` grants from a sparse request list.
This is the allocation as the hardware performs it, over the dense
``n x n`` request matrix, one priority diagonal per wave; the sparse
form must give the same grants in the same order and leave the same
priority diagonal behind.  The round-robin side needs no twin here:
``RoundRobinArbiter.grant`` is the dense scan, and ``rr_sparse`` is
pinned against it directly.
"""

from __future__ import annotations

import numpy as np

from repro.noc.arbiter import WavefrontArbiter


def dense_allocate(arbiter: WavefrontArbiter,
                   requests: np.ndarray) -> list[tuple[int, int]]:
    """Grant a conflict-free subset of ``requests`` by wavefront scan.

    ``requests[i, j]`` is truthy when input ``i`` wants output ``j``.
    Returns granted ``(input, output)`` pairs and rotates ``arbiter``'s
    priority diagonal, requests or not.
    """
    n = arbiter.n
    req = np.asarray(requests, dtype=bool)
    if req.shape != (n, n):
        raise ValueError(f"expected {(n, n)} matrix, got {req.shape}")
    row_free = [True] * n
    col_free = [True] * n
    grants: list[tuple[int, int]] = []
    for wave in range(n):
        diag = (arbiter._priority + wave) % n
        for i in range(n):
            j = (diag - i) % n
            if req[i, j] and row_free[i] and col_free[j]:
                grants.append((i, j))
                row_free[i] = False
                col_free[j] = False
    arbiter._priority = (arbiter._priority + 1) % n
    return grants


def is_maximal(requests: np.ndarray,
               grants: list[tuple[int, int]]) -> bool:
    """No request could be added to ``grants`` without a conflict."""
    req = np.asarray(requests, dtype=bool)
    rows = {i for i, _ in grants}
    cols = {j for _, j in grants}
    return not any(req[i, j] and i not in rows and j not in cols
                   for i in range(req.shape[0])
                   for j in range(req.shape[1]))
