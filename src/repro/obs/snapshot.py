"""Cycle-driven snapshot sampler: the metrics registry as a time-series.

A :class:`SnapshotSampler` is ticked from simulation loops (the NoC
kernel's run loop, the scheduler co-simulation in
:mod:`repro.core.system`, the sweep engine's point loop) and freezes the
whole registry every ``interval_cycles`` of *simulation* time::

    {"v": 1, "seq": 0, "cycle": 256, "metrics": {...to_dict()...}}

Sampling is keyed to cycles, never wall time, and the frozen snapshot
uses the registry's deterministic ``to_dict`` default (timers report
observation counts only), so same-seed runs emit byte-identical series.
When the host kernel fast-forwards through an idle stretch the skipped
cycles carry no registry mutations; the series simply resumes at the
post-jump cycle, deterministically.

Pass the run's :class:`~repro.obs.events.EventLog` so snapshots and
events share one :class:`~repro.obs.events.MonotoneClock` timeline.
"""

from __future__ import annotations

from repro.obs.events import EventLog, MonotoneClock

#: Version stamp carried by every snapshot record.
SNAPSHOT_SCHEMA_VERSION = 1

#: Default sampling period, in simulation cycles.
DEFAULT_INTERVAL_CYCLES = 256

#: Cycle stride of the simulation loops' snapshot offers.  A loop offers
#: the sampler one cycle in every ``OFFER_STRIDE`` rather than every
#: cycle; the sampler's own interval stays the sampling authority.
OFFER_STRIDE = 64


class SnapshotSampler:
    """Periodically freeze a metrics registry on a cycle-driven cadence."""

    enabled = True

    def __init__(self, metrics,
                 interval_cycles: int = DEFAULT_INTERVAL_CYCLES,
                 event_log: EventLog | None = None,
                 max_snapshots: int | None = None) -> None:
        if interval_cycles < 1:
            raise ValueError("interval_cycles must be >= 1, got "
                             f"{interval_cycles}")
        self.metrics = metrics
        self.interval_cycles = int(interval_cycles)
        self.series: list[dict] = []
        self._max_snapshots = max_snapshots
        #: Oldest-snapshot evictions under ``max_snapshots``.
        self.dropped = 0
        self._seq = 0
        self._next_due = 0
        self._clock = event_log.clock if event_log is not None \
            else MonotoneClock()

    @property
    def next_due(self) -> int:
        """First *global* cycle at which :meth:`tick` would sample.

        Host loops that fast-forward idle stretches use this (together
        with :meth:`clock` ``.first_reaching``) to bound the jump so no
        due sample is skipped; offers projecting before this cycle are
        guaranteed non-firing.
        """
        return self._next_due

    @property
    def clock(self):
        """The monotone clock rebasing this sampler's local cycles."""
        return self._clock

    def tick(self, cycle: int) -> bool:
        """Offer the sampler one simulation cycle; sample when due.

        Returns True when a snapshot was taken.  Cheap when not due:
        one clock advance and one comparison.
        """
        global_cycle = self._clock.advance(cycle)
        if global_cycle < self._next_due:
            return False
        self._sample(global_cycle)
        return True

    def sample(self, cycle: int) -> dict:
        """Force a snapshot now regardless of the sampling cadence."""
        return self._sample(self._clock.advance(cycle))

    def _sample(self, global_cycle: int) -> dict:
        snap = {"v": SNAPSHOT_SCHEMA_VERSION, "seq": self._seq,
                "cycle": global_cycle,
                "metrics": self.metrics.to_dict()}
        if (self._max_snapshots is not None
                and len(self.series) == self._max_snapshots):
            del self.series[0]
            self.dropped += 1
        self.series.append(snap)
        self._seq += 1
        self._next_due = global_cycle + self.interval_cycles
        return snap

    def latest(self) -> dict | None:
        """The most recent snapshot, or None before the first sample."""
        return self.series[-1] if self.series else None

    def __len__(self) -> int:
        return len(self.series)
