"""Test-only reference for the serve daemon's run loop.

:class:`PerCycleDaemon` keeps the per-cycle loop that
:class:`repro.serve.daemon.ServeDaemon` replaced with a pre-drawn
arrival wheel, a replayed admission schedule and an idle fast-forward.
It draws every cycle's arrivals live from a fresh
:class:`ClientPopulation` with scalar numpy
(``tests/reference_arrivals.py``), admits each one live through a fresh
:class:`AdmissionController`, syncs the counters and gauges every cycle
and steps every cycle.  It is the oracle the single loop is held to,
byte for byte (report, events, snapshots), by
``tests/test_serve_cluster.py``; it lives under ``tests/`` so
production code carries one serve loop only.  It shares
the daemon's ledger, so ``tests/test_serve_golden.py`` pins what it
cannot check: the counts, counters and latency summaries themselves.
"""

from __future__ import annotations

from repro.serve.admission import AdmissionController
from repro.serve.arrivals import ARRIVALS, ClientPopulation
from repro.serve.daemon import ServeDaemon
from tests.reference_arrivals import requests_for_cycle


class PerCycleDaemon(ServeDaemon):
    """:class:`ServeDaemon` stepping, drawing and admitting per cycle."""

    def __init__(self, config) -> None:
        super().__init__(config)
        # The wheel consumed the parent's generators and the replay
        # spent its buckets; start both over for live use.
        self.population = ClientPopulation(
            config.tenant_names(), ARRIVALS.get(config.arrival)(),
            config.rate, config.mvm_fraction, config.nodes, config.seed)
        self.admission = AdmissionController(
            config.admission_rate, config.admission_burst)

    def _arrivals(self, cycle: int):
        return [(arrival, self.admission.admit(arrival.tenant, cycle))
                for arrival in requests_for_cycle(self.population, cycle)]

    def _collect_completions(self) -> None:
        # The last call before the snapshot offer of each cycle: syncing
        # here keeps the counters and gauges current every cycle, not
        # only at offers.
        super()._collect_completions()
        self._sync_metrics()

    def _next_due(self, cycle: int) -> int:
        # Every cycle is due, so the loop never skips: it steps them all.
        return cycle
