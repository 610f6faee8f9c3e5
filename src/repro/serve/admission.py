"""Token-bucket admission control on the simulated clock.

The daemon's first line of defense against overload: each tenant gets a
:class:`TokenBucket` refilled in *simulated cycles*, so admission
decisions are a pure function of the arrival stream — no wall time, no
races — and a rejected request costs the fabric nothing.

The bucket refills fractionally (``rate_per_cycle`` tokens per elapsed
cycle, capped at ``burst``) and a request is admitted iff a whole token
is available.  Exact float arithmetic on the same sequence of cycles
yields the same decisions, preserving byte-identical session replay.
"""

from __future__ import annotations


def _check_policy(rate_per_cycle: float, burst: float) -> None:
    if rate_per_cycle <= 0.0:
        raise ValueError(
            f"rate_per_cycle must be > 0, got {rate_per_cycle}")
    if burst < 1.0:
        raise ValueError(f"burst must be >= 1, got {burst}")


class TokenBucket:
    """Deterministic token bucket keyed to the simulated clock."""

    def __init__(self, rate_per_cycle: float, burst: float) -> None:
        _check_policy(rate_per_cycle, burst)
        self.rate_per_cycle = float(rate_per_cycle)
        self.burst = float(burst)
        #: Buckets start full so a session's first requests are not
        #: spuriously shed while the bucket warms up.
        self.tokens = float(burst)
        self._last_cycle = 0

    def _refill(self, cycle: int) -> None:
        if cycle > self._last_cycle:
            self.tokens = min(
                self.burst,
                self.tokens
                + self.rate_per_cycle * (cycle - self._last_cycle))
            self._last_cycle = cycle

    def try_take(self, cycle: int) -> bool:
        """Admit one request at ``cycle`` if a whole token is available."""
        self._refill(cycle)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def level(self, cycle: int) -> float:
        """Current token level after refilling to ``cycle`` (for tests)."""
        self._refill(cycle)
        return self.tokens


class AdmissionController:
    """Per-tenant token buckets with one shared rate/burst policy."""

    def __init__(self, rate_per_cycle: float, burst: float) -> None:
        _check_policy(rate_per_cycle, burst)
        self.rate_per_cycle = float(rate_per_cycle)
        self.burst = float(burst)
        self._buckets: dict[str, TokenBucket] = {}

    def bucket(self, tenant: str) -> TokenBucket:
        """``tenant``'s bucket, created full on first sight."""
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.rate_per_cycle, self.burst)
            self._buckets[tenant] = bucket
        return bucket

    def admit(self, tenant: str, cycle: int) -> bool:
        """One admission decision; False means shed the request."""
        return self.bucket(tenant).try_take(cycle)


def precompute_decisions(wheel,
                         admission: AdmissionController
                         ) -> dict[int, list[bool]]:
    """Admission verdicts for every arrival on a pre-drawn wheel.

    Replays the wheel's buckets in cycle order through ``admission``,
    one :meth:`AdmissionController.admit` per arrival in offer order,
    so the verdicts are exactly those live per-cycle admission would
    give.  Returns ``{cycle: [admitted, ...]}`` aligned, per cycle,
    with the wheel's tenant-ordered arrival list; ``admission`` is left
    holding the buckets' end-of-schedule state.
    """
    return {cycle: [admission.admit(arrival.tenant, cycle)
                    for arrival in arrivals]
            for cycle, arrivals in wheel}
