"""The graceful-degradation ladder (DESIGN.md §12).

When the health monitor flags the fabric, the controller walks a fixed
escalation sequence, retrying each rung with exponential backoff before
climbing to the next:

``HEALTHY -> RECALIBRATE -> SHRINK -> REROUTE -> ELECTRICAL``

* **RECALIBRATE** — re-run in-situ self-configuration around the fault
  (:func:`repro.photonics.calibration.calibrate_by_decomposition`);
  fixes movable phase errors such as drift.
* **SHRINK** — halve the compute partition's port cap, placing the SVD
  circuit on fault-free columns; fixes localized stuck devices and buys
  insertion-loss headroom against laser degradation.
* **REROUTE** — program detours around dead interposer paths
  (:meth:`repro.noc.soa.SoAFlumenNetwork.reroute_pair`), retire the
  fabric port the control unit maps each dead endpoint to, and cap
  partitions at the widest even run of ports left free.
* **ELECTRICAL** — terminal fallback: compute requests are serviced on
  the electrical core path (:mod:`repro.core.scheduler`), never the
  photonic fabric.  Accuracy is restored at digital precision, at the
  electrical path's runtime/energy cost.

This module is only the *state machine* and its bookkeeping; the rung
actions themselves are performed by
:class:`~repro.faults.recovery.FabricRecovery`, which reports back via
:meth:`attempt_result`.
Every transition is emitted through :mod:`repro.obs` as a ``core``-layer
instant plus metrics, so campaigns are traceable in Perfetto.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.obs import NULL_OBS, Obs


class Rung(enum.IntEnum):
    """Ladder rungs, in escalation order."""

    HEALTHY = 0
    RECALIBRATE = 1
    SHRINK = 2
    REROUTE = 3
    ELECTRICAL = 4


@dataclass(frozen=True)
class BackoffPolicy:
    """Bounded-retry exponential backoff for one ladder rung.

    Attempt ``a`` waits ``base_cycles * factor**a`` cycles (capped at
    ``max_backoff_cycles``); after ``max_retries`` failed attempts the
    ladder escalates to the next rung.
    """

    base_cycles: int = 32
    factor: float = 2.0
    max_retries: int = 3
    max_backoff_cycles: int = 4096

    def __post_init__(self) -> None:
        if self.base_cycles < 1:
            raise ValueError(
                f"base_cycles must be >= 1, got {self.base_cycles}")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.max_backoff_cycles < self.base_cycles:
            raise ValueError(
                f"max_backoff_cycles ({self.max_backoff_cycles}) must be "
                f">= base_cycles ({self.base_cycles})")

    def delay_cycles(self, attempt: int) -> int:
        """Backoff delay before attempt number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        return min(int(round(self.base_cycles * self.factor ** attempt)),
                   self.max_backoff_cycles)

    def schedule(self) -> tuple[int, ...]:
        """All per-attempt delays for one rung, in order."""
        return tuple(self.delay_cycles(a)
                     for a in range(self.max_retries + 1))


@dataclass(frozen=True)
class LadderTransition:
    """One recorded rung change."""

    cycle: int
    src: str
    dst: str
    reason: str

    def to_dict(self) -> dict:
        return {"cycle": self.cycle, "src": self.src, "dst": self.dst,
                "reason": self.reason}


@dataclass
class LadderStats:
    """Counters the campaign report aggregates per fault class."""

    detections: int = 0
    attempts: int = 0
    recoveries: int = 0
    escalations: int = 0
    backoff_cycles: int = 0
    rung_entries: dict[str, int] = field(default_factory=dict)
    recovered_rungs: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "detections": self.detections,
            "attempts": self.attempts,
            "recoveries": self.recoveries,
            "escalations": self.escalations,
            "backoff_cycles": self.backoff_cycles,
            "rung_entries": dict(self.rung_entries),
            "recovered_rungs": list(self.recovered_rungs),
        }


class DegradationLadder:
    """State machine walking the degradation rungs with bounded retries.

    Protocol (driven by the controller/campaign loop):

    1. an unhealthy probe calls :meth:`detect` — the ladder arms at
       ``RECALIBRATE`` and schedules the first attempt after one backoff;
    2. when :meth:`due` turns true the caller performs the current
       rung's action, brackets it with :meth:`attempt_started` /
       :meth:`attempt_result`;
    3. a healthy result recovers to ``HEALTHY`` (keeping any shrink/
       reroute state — the physical fault is still there); an unhealthy
       one retries with doubled backoff until ``max_retries``, then
       escalates.  ``ELECTRICAL`` is terminal.

    The scheduler consumes :attr:`partition_ports_cap`,
    :attr:`unusable_ports` and :attr:`electrical_fallback` every
    partitioner pass, so rung changes take effect without extra wiring.
    """

    def __init__(self, fabric_ports: int = 8,
                 policy: BackoffPolicy | None = None,
                 min_partition_ports: int = 2,
                 obs: Obs = NULL_OBS) -> None:
        if fabric_ports < 2:
            raise ValueError(f"need >= 2 fabric ports, got {fabric_ports}")
        self.policy = policy or BackoffPolicy()
        self.fabric_ports = fabric_ports
        self.min_partition_ports = max(
            2, min_partition_ports - min_partition_ports % 2)
        self.rung = Rung.HEALTHY
        self.attempt = 0
        self.next_action_cycle: int | None = None
        #: Largest partition the scheduler may grant (shrinks per rung).
        self.partition_ports_cap = fabric_ports
        #: Fabric ports retired from placement (dead-link endpoints).
        self.unusable_ports: set[int] = set()
        self.transitions: list[LadderTransition] = []
        self.stats = LadderStats()
        self.last_error = 0.0
        self.obs = obs
        self._tracer = obs.tracer
        self._events = obs.events
        self._m_detections = obs.metrics.counter("core.ladder_detections")
        self._m_attempts = obs.metrics.counter("core.ladder_attempts")
        self._m_recoveries = obs.metrics.counter("core.ladder_recoveries")
        self._m_escalations = obs.metrics.counter("core.ladder_escalations")
        self._g_rung = obs.metrics.gauge("core.ladder_rung")
        self._g_cap = obs.metrics.gauge("core.partition_ports_cap")
        self._g_cap.set(float(self.partition_ports_cap))

    # -- state queries -----------------------------------------------------

    @property
    def healthy(self) -> bool:
        return self.rung is Rung.HEALTHY

    @property
    def electrical_fallback(self) -> bool:
        return self.rung is Rung.ELECTRICAL

    def due(self, cycle: int) -> bool:
        """Is a recovery attempt scheduled at or before ``cycle``?"""
        return (self.next_action_cycle is not None
                and cycle >= self.next_action_cycle
                and self.rung not in (Rung.HEALTHY, Rung.ELECTRICAL))

    # -- protocol ----------------------------------------------------------

    def detect(self, cycle: int, error: float = 0.0) -> bool:
        """Arm the ladder on an unhealthy probe; no-op unless HEALTHY."""
        self.last_error = float(error)
        if self.rung is not Rung.HEALTHY:
            return False
        self.stats.detections += 1
        self._m_detections.inc()
        self._enter(cycle, Rung.RECALIBRATE, reason="health_probe")
        return True

    def attempt_started(self, cycle: int) -> None:
        """The caller is executing the current rung's recovery action."""
        self.stats.attempts += 1
        self._m_attempts.inc()
        self.next_action_cycle = None
        if self._tracer.enabled:
            self._tracer.instant(
                "core", "faults", "ladder_attempt", cycle,
                rung=self.rung.name, attempt=self.attempt)

    def attempt_result(self, cycle: int, healthy: bool,
                       error: float | None = None) -> None:
        """Report the post-action probe; recover, retry, or escalate."""
        if error is not None:
            self.last_error = float(error)
        if healthy:
            self._recover(cycle)
            return
        self.attempt += 1
        if self.attempt > self.policy.max_retries:
            self._escalate(cycle, reason="retries_exhausted")
        else:
            delay = self.policy.delay_cycles(self.attempt)
            self.stats.backoff_cycles += delay
            self.next_action_cycle = cycle + delay

    def mark_dead_port(self, port: int) -> None:
        """Retire a fabric port from future partition placement."""
        self.unusable_ports.add(int(port))

    def cap_partition_ports(self, ports: int) -> None:
        """Lower the partition cap to ``ports``, rounded down to even
        and kept at or above the minimum partition."""
        ports = max(self.min_partition_ports, ports - ports % 2)
        self.partition_ports_cap = min(self.partition_ports_cap, ports)
        self._g_cap.set(float(self.partition_ports_cap))

    # -- internals ---------------------------------------------------------

    def _recover(self, cycle: int) -> None:
        rung = self.rung
        self.stats.recoveries += 1
        self.stats.recovered_rungs.append(rung.name)
        self._m_recoveries.inc()
        self._transition(cycle, Rung.HEALTHY,
                         reason=f"recovered_at_{rung.name.lower()}")
        self.attempt = 0
        self.next_action_cycle = None

    def _escalate(self, cycle: int, reason: str) -> None:
        if self.rung is Rung.ELECTRICAL:
            return
        self.stats.escalations += 1
        self._m_escalations.inc()
        self._enter(cycle, Rung(self.rung + 1), reason=reason)

    def _enter(self, cycle: int, rung: Rung, reason: str) -> None:
        """Transition to ``rung`` and apply its entry action."""
        self._transition(cycle, rung, reason)
        self.attempt = 0
        self.stats.rung_entries[rung.name] = \
            self.stats.rung_entries.get(rung.name, 0) + 1
        if rung is Rung.SHRINK:
            self.cap_partition_ports(self.partition_ports_cap // 2)
        if rung is Rung.ELECTRICAL:
            self.next_action_cycle = None
        else:
            delay = self.policy.delay_cycles(0)
            self.stats.backoff_cycles += delay
            self.next_action_cycle = cycle + delay

    def _transition(self, cycle: int, dst: Rung, reason: str) -> None:
        src = self.rung
        self.rung = dst
        self.transitions.append(LadderTransition(
            cycle=cycle, src=src.name, dst=dst.name, reason=reason))
        self.obs.metrics.counter(
            "core.ladder_transitions", dst=dst.name).inc()
        self._g_rung.set(float(int(dst)))
        if self._events.enabled:
            self._events.emit(
                "ladder_transition", cycle,
                src=src.name, dst=dst.name, reason=reason,
                error=round(self.last_error, 6),
                partition_ports_cap=self.partition_ports_cap)
        if self._tracer.enabled:
            self._tracer.instant(
                "core", "faults", "ladder_transition", cycle,
                src=src.name, dst=dst.name, reason=reason,
                error=round(self.last_error, 6))

    def to_dict(self) -> dict:
        """JSON-ready snapshot for campaign records."""
        return {
            "rung": self.rung.name,
            "partition_ports_cap": self.partition_ports_cap,
            "unusable_ports": sorted(self.unusable_ports),
            "transitions": [t.to_dict() for t in self.transitions],
            **self.stats.to_dict(),
        }
