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
of ``(seed, tenants, process, rate, mvm_fraction, nodes)``.  Each
tenant's stream is the one scalar numpy draws give: per cycle one
``rng.poisson(rate * intensity(cycle))``, then per arrival one
``rng.random()`` against ``mvm_fraction`` and ``rng.integers(nodes)``
for an MVM's node, or ``rng.integers(nodes)`` and
``rng.integers(nodes - 1)`` for a comm request's endpoints.
:class:`~repro.draws.DrawReplay` reproduces those draws over bulk PCG64
words (``tests/reference_arrivals.py`` keeps the scalar-numpy oracle).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.analysis.engine import point_seed
from repro.draws import POISSON_LAM_MAX, DrawReplay
from repro.registry import Registry

ARRIVALS = Registry("arrival process")


class ArrivalProcess:
    """Deterministic intensity profile over simulated cycles.

    ``intensity(cycle)`` is a dimensionless multiplier (>= 0) applied
    to the population's base rate; subclasses encode the load shape.
    """

    name = "base"
    #: The largest value :meth:`intensity` takes; a subclass that goes
    #: above 1.0 says so, because it bounds the Poisson mean.
    peak_intensity = 1.0

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
        self.peak_intensity = max(self.peak, self._low)

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
        self.peak_intensity = 1.0 + self.amplitude

    def intensity(self, cycle: int) -> float:
        """``1 + amplitude * sin`` over ``period``, clipped at zero."""
        phase = 2.0 * math.pi * (cycle % self.period) / self.period
        return max(0.0, 1.0 + self.amplitude * math.sin(phase))


def check_rate(rate: float, process: ArrivalProcess) -> None:
    """Reject a ``rate`` whose Poisson means numpy cannot draw.

    The largest mean is ``rate * process.peak_intensity``; it must stay
    below :data:`POISSON_LAM_MAX`.
    """
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"rate must be finite and >= 0, got {rate}")
    peak_mean = rate * process.peak_intensity
    if peak_mean >= POISSON_LAM_MAX:
        raise ValueError(
            f"rate must be finite and small enough that rate * peak "
            f"intensity ({peak_mean:.4g}) stays below numpy's Poisson "
            f"limit {POISSON_LAM_MAX:.4g}, got {rate}")


ARRIVALS.register("poisson", PoissonArrivals)
ARRIVALS.register("bursty", BurstyArrivals)
ARRIVALS.register("diurnal", DiurnalArrivals)


class Arrival(NamedTuple):
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
        check_rate(rate, process)
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
        self._drawn = False

    def prebuild(self, duration: int) -> "ArrivalWheel":
        """Pre-draw the whole arrival schedule for cycles ``[0, duration)``.

        Consumes this population's generators, so a population is
        prebuilt once.  Each tenant's stream is walked through a
        :class:`~repro.draws.DrawReplay` over runs of cycles with equal
        Poisson means: a cycle whose draw is 0 is skipped on one word
        test (:meth:`~repro.draws.DrawReplay.skip_zero_poissons`), and
        only the others are drawn in full.  The tenants' records
        are then merged by a stable sort on cycle, which keeps tenant
        order within a cycle.
        """
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        if self._drawn:
            raise RuntimeError("a ClientPopulation is prebuilt once")
        self._drawn = True
        intensity = self.process.intensity
        lams = np.array([self.rate * intensity(cycle)
                         for cycle in range(duration)], dtype=float)
        # (start, stop, lam): the maximal runs of cycles of one mean.
        edges = [0, *(np.flatnonzero(lams[1:] != lams[:-1]) + 1).tolist(),
                 duration]
        runs = [(start, stop, float(lams[start]))
                for start, stop in zip(edges, edges[1:]) if start < stop]
        cycles: list[int] = []
        arrivals: list[Arrival] = []
        for tenant, rng in self._rngs.items():
            self._walk(tenant, DrawReplay(rng), runs, cycles, arrivals)
        cycle_of = np.array(cycles, dtype=np.int64)
        order = np.argsort(cycle_of, kind="stable")
        ordered = [arrivals[i] for i in order.tolist()]
        cycle_of = cycle_of[order]
        firsts = np.flatnonzero(np.diff(cycle_of, prepend=-1))
        bounds = [*firsts.tolist(), len(ordered)]
        return ArrivalWheel(duration, {
            cycle: ordered[lo:hi]
            for cycle, lo, hi in zip(cycle_of[firsts].tolist(), bounds,
                                     bounds[1:])})

    def _walk(self, tenant: str, replay: DrawReplay, runs: list,
              cycles: list[int], arrivals: list[Arrival]) -> None:
        """Append ``tenant``'s arrivals over ``runs`` to the records."""
        skip = replay.skip_zero_poissons
        poisson = replay.poisson
        random = replay.random
        integers = replay.integers
        mvm_fraction = self.mvm_fraction
        nodes = self.nodes
        for start, stop, lam in runs:
            cycle = start + skip(lam, stop - start)
            while cycle < stop:
                for _ in range(poisson(lam)):
                    if random() < mvm_fraction:
                        arrivals.append(Arrival(tenant, "mvm",
                                                integers(0, nodes)))
                    else:
                        src = integers(0, nodes)
                        dst = (src + 1 + integers(0, nodes - 1)) % nodes
                        arrivals.append(Arrival(tenant, "comm", 0,
                                                src, dst))
                    cycles.append(cycle)
                cycle += 1
                cycle += skip(lam, stop - cycle)


class ArrivalWheel:
    """Cycle-bucketed pre-drawn arrivals over a fixed horizon.

    Mirrors the SoA NoC kernel's pre-drawn injection wheel: every
    arrival in ``[0, duration)`` is drawn once, up front, and bucketed
    by cycle in fixed tenant order.  The serve loop then makes no RNG
    calls, and its idle fast-forward gets an exact "next arrival"
    query.
    """

    def __init__(self, duration: int,
                 by_cycle: dict[int, list[Arrival]]) -> None:
        self.duration = int(duration)
        self._by_cycle = by_cycle
        self._cycles = np.array(list(by_cycle), dtype=np.int64)

    def __iter__(self):
        """``(cycle, arrivals)`` for every non-empty bucket, in cycle order."""
        return iter(self._by_cycle.items())

    def requests_for_cycle(self, cycle: int) -> list[Arrival]:
        """Arrivals bucketed at ``cycle`` (empty outside the horizon)."""
        return self._by_cycle.get(cycle, [])

    def next_arrival_cycle(self, cycle: int) -> int | None:
        """First cycle ``>= cycle`` with any arrival, or ``None``."""
        index = int(np.searchsorted(self._cycles, cycle))
        if index >= len(self._cycles):
            return None
        return int(self._cycles[index])
