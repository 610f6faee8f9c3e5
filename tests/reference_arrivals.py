"""Scalar-numpy serve arrivals: the oracle for ``ClientPopulation.prebuild``.

This is the population's per-cycle draw as it was made before
:class:`repro.draws.DrawReplay`: per cycle, per tenant in roster order,
one ``Generator.poisson`` call, then per arrival one ``random()`` and
one or two ``integers()`` calls on the tenant's own ``Generator``.
``prebuild`` must produce the same arrivals, cycle by cycle, in the
same order.  It draws from the population's generators, so a
population is used either here or through ``prebuild``, never both.
"""

from __future__ import annotations

from repro.serve.arrivals import Arrival, ClientPopulation


def requests_for_cycle(population: ClientPopulation,
                       cycle: int) -> list[Arrival]:
    """All requests offered at ``cycle``, in fixed tenant order."""
    lam = population.rate * population.process.intensity(cycle)
    nodes = population.nodes
    out: list[Arrival] = []
    for tenant, rng in population._rngs.items():
        for _ in range(int(rng.poisson(lam))):
            if rng.random() < population.mvm_fraction:
                out.append(Arrival(tenant=tenant, kind="mvm",
                                   node=int(rng.integers(nodes))))
            else:
                src = int(rng.integers(nodes))
                dst = (src + 1 + int(rng.integers(nodes - 1))) % nodes
                out.append(Arrival(tenant=tenant, kind="comm",
                                   src=src, dst=dst))
    return out


def scalar_schedule(population: ClientPopulation,
                    duration: int) -> dict[int, list[Arrival]]:
    """``{cycle: arrivals}`` over ``[0, duration)``, empty cycles omitted."""
    schedule = {}
    for cycle in range(duration):
        arrivals = requests_for_cycle(population, cycle)
        if arrivals:
            schedule[cycle] = arrivals
    return schedule
