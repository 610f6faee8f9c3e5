"""Seeded client populations: arrival processes for the serve daemon.

A serving fabric does not see a pre-generated trace — it sees streams
of requests whose *intensity* shifts over time, and Flumen's whole
pitch is repartitioning the interconnect as that intensity moves.  This
module models the streams: an :class:`ArrivalProcess` is a deterministic
intensity profile over simulated cycles, and a :class:`ClientPopulation`
turns one profile into per-tenant Poisson request counts (the standard
stand-in for a large independent user population), all derived from the
session seed.

Processes live in the ``ARRIVALS`` registry (a
:class:`~repro.registry.Registry`): look up a factory by name with
``ARRIVALS.get``, extend with ``ARRIVALS.register``, and patch
temporarily in tests with ``ARRIVALS.temporary``.

Determinism contract: every draw comes from per-tenant
``np.random.default_rng`` generators seeded via
:func:`~repro.analysis.engine.point_seed`, and tenants are visited in a
fixed order each cycle, so the full arrival stream is a pure function
of ``(seed, tenants, process, rate, mvm_fraction, nodes)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.engine import point_seed
from repro.registry import Registry

ARRIVALS = Registry("arrival process")


class ArrivalProcess:
    """Deterministic intensity profile over simulated cycles.

    ``intensity(cycle)`` is a dimensionless multiplier (>= 0) applied
    to the population's base rate; subclasses encode the load shape.
    """

    name = "base"

    def intensity(self, cycle: int) -> float:
        """Dimensionless rate multiplier (>= 0) at ``cycle``."""
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Constant-intensity stream: the classic memoryless open load."""

    name = "poisson"

    def intensity(self, cycle: int) -> float:
        """Always 1.0: the base rate, uncontoured."""
        return 1.0


class BurstyArrivals(ArrivalProcess):
    """On/off duty-cycle bursts with the same long-run mean as poisson.

    For ``duty`` of each ``period`` the stream runs at ``peak`` times
    the base rate; the off phase rate is chosen so the cycle-averaged
    intensity stays 1.0 (clamped at zero when ``duty * peak >= 1``,
    i.e. the burst alone carries the whole mean).
    """

    name = "bursty"

    def __init__(self, period: int = 512, duty: float = 0.25,
                 peak: float = 4.0) -> None:
        if period < 2:
            raise ValueError(f"period must be >= 2, got {period}")
        if not 0.0 < duty < 1.0:
            raise ValueError(f"duty must be in (0, 1), got {duty}")
        if peak <= 0.0:
            raise ValueError(f"peak must be > 0, got {peak}")
        self.period = int(period)
        self.duty = float(duty)
        self.peak = float(peak)
        self._low = max(0.0, (1.0 - self.duty * self.peak)
                        / (1.0 - self.duty))

    def intensity(self, cycle: int) -> float:
        """``peak`` during the burst phase, the balancing low after."""
        phase = (cycle % self.period) / self.period
        return self.peak if phase < self.duty else self._low


class DiurnalArrivals(ArrivalProcess):
    """Slow sinusoidal swell standing in for a day/night load curve."""

    name = "diurnal"

    def __init__(self, period: int = 2048,
                 amplitude: float = 0.8) -> None:
        if period < 2:
            raise ValueError(f"period must be >= 2, got {period}")
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError(
                f"amplitude must be in [0, 1], got {amplitude}")
        self.period = int(period)
        self.amplitude = float(amplitude)

    def intensity(self, cycle: int) -> float:
        """``1 + amplitude * sin`` over ``period``, clipped at zero."""
        phase = 2.0 * math.pi * (cycle % self.period) / self.period
        return max(0.0, 1.0 + self.amplitude * math.sin(phase))


ARRIVALS.register("poisson", PoissonArrivals)
ARRIVALS.register("bursty", BurstyArrivals)
ARRIVALS.register("diurnal", DiurnalArrivals)


@dataclass(frozen=True)
class Arrival:
    """One offered request, before admission."""

    tenant: str
    #: ``"mvm"`` (compute offload) or ``"comm"`` (interposer packet).
    kind: str
    #: Originating node for MVM offloads.
    node: int = 0
    #: Endpoints for communication requests (``src != dst``).
    src: int = 0
    dst: int = 1


class ClientPopulation:
    """Per-tenant seeded request streams sharing one intensity profile.

    Each tenant owns an independent generator, so adding a tenant never
    perturbs another tenant's stream, and the per-cycle request count
    is Poisson-distributed around ``rate * intensity(cycle)``.
    """

    def __init__(self, tenants: tuple[str, ...],
                 process: ArrivalProcess, rate: float,
                 mvm_fraction: float, nodes: int, seed: int) -> None:
        if not tenants:
            raise ValueError("need at least one tenant")
        if rate < 0.0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        if not 0.0 <= mvm_fraction <= 1.0:
            raise ValueError(
                f"mvm_fraction must be in [0, 1], got {mvm_fraction}")
        if nodes < 2:
            raise ValueError(f"need >= 2 nodes, got {nodes}")
        self.tenants = tuple(tenants)
        self.process = process
        self.rate = float(rate)
        self.mvm_fraction = float(mvm_fraction)
        self.nodes = int(nodes)
        self._rngs = {
            tenant: np.random.default_rng(
                point_seed(seed, f"arrivals/{tenant}"))
            for tenant in self.tenants}

    def requests_for_cycle(self, cycle: int) -> list[Arrival]:
        """All requests offered this cycle, in fixed tenant order."""
        lam = self.rate * self.process.intensity(cycle)
        out: list[Arrival] = []
        for tenant in self.tenants:
            rng = self._rngs[tenant]
            for _ in range(int(rng.poisson(lam))):
                if rng.random() < self.mvm_fraction:
                    out.append(Arrival(
                        tenant=tenant, kind="mvm",
                        node=int(rng.integers(self.nodes))))
                else:
                    src = int(rng.integers(self.nodes))
                    dst = (src + 1
                           + int(rng.integers(self.nodes - 1))) \
                        % self.nodes
                    out.append(Arrival(tenant=tenant, kind="comm",
                                       src=src, dst=dst))
        return out

    def prebuild(self, duration: int) -> "ArrivalWheel":
        """Pre-draw the whole arrival schedule for cycles ``[0, duration)``.

        Consumes this population's generators: the wheel replays, per
        tenant, the *exact* RNG call sequence
        :meth:`requests_for_cycle` would have issued over those cycles
        (one ``poisson`` per cycle, then the per-request draws), so the
        resulting stream is byte-identical to live drawing.  A
        population is touched either live or through one wheel — never
        both — since the draws are consumed up front.
        """
        return ArrivalWheel(self, duration)


class ArrivalWheel:
    """Cycle-bucketed pre-drawn arrivals over a fixed horizon.

    The wheel is the fast-path counterpart of live per-cycle drawing
    (mirroring the SoA NoC kernel's pre-drawn injection wheel): all
    Poisson counts and per-request shape draws for ``[0, duration)``
    are materialized once, bucketed by cycle, keeping the hot loop free
    of per-cycle RNG calls and giving the idle fast-forward an exact
    "next arrival" query.

    Per-tenant generators are independent, so drawing tenant-major
    (each tenant's full horizon in one pass) reproduces exactly the
    stream the cycle-major live path yields; within a cycle bucket,
    arrivals stay in fixed tenant order.
    """

    def __init__(self, population: ClientPopulation,
                 duration: int) -> None:
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        self.duration = int(duration)
        process = population.process
        lams = [population.rate * process.intensity(cycle)
                for cycle in range(self.duration)]
        mvm_fraction = population.mvm_fraction
        nodes = population.nodes
        buckets: dict[int, list[Arrival]] = {}
        for tenant in population.tenants:
            rng = population._rngs[tenant]
            for cycle, lam in enumerate(lams):
                for _ in range(int(rng.poisson(lam))):
                    if rng.random() < mvm_fraction:
                        arrival = Arrival(
                            tenant=tenant, kind="mvm",
                            node=int(rng.integers(nodes)))
                    else:
                        src = int(rng.integers(nodes))
                        dst = (src + 1
                               + int(rng.integers(nodes - 1))) % nodes
                        arrival = Arrival(tenant=tenant, kind="comm",
                                          src=src, dst=dst)
                    buckets.setdefault(cycle, []).append(arrival)
        self._by_cycle = buckets
        self._cycles = np.array(sorted(buckets), dtype=np.int64)
        self.total = sum(len(v) for v in buckets.values())

    def requests_for_cycle(self, cycle: int) -> list[Arrival]:
        """Arrivals bucketed at ``cycle`` (empty outside the horizon)."""
        return self._by_cycle.get(cycle, [])

    def next_arrival_cycle(self, cycle: int) -> int | None:
        """First cycle ``>= cycle`` with any arrival, or ``None``."""
        index = int(np.searchsorted(self._cycles, cycle))
        if index >= len(self._cycles):
            return None
        return int(self._cycles[index])
