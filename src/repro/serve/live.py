"""Live telemetry store: `/metrics` and `/healthz` over a running daemon.

:class:`~repro.obs.server.TelemetryServer` is store-agnostic — it
calls ``exposition() / health() / events_tail() / snapshots()`` on
whatever it is given.  The file-backed
:class:`~repro.obs.telemetry.TelemetryStore` re-reads a telemetry
directory per request; :class:`LiveTelemetryStore` subclasses it to
read a running daemon's :class:`~repro.obs.Obs` bundle instead, so
`repro serve --http-port` exposes the session *while it runs* with zero
file I/O.

Thread-safety and determinism: the HTTP thread only *reads*.  The
snapshot series and event log are append-only, so bounded reads are
safe without locks; a scrape can race an append mid-iteration, so
reads are length-bounded copies (never live iterators), and the
exposition is rendered from the latest completed snapshot — exactly
like the file-backed store renders the latest written one.  Because
the read side never mutates daemon state, a session's artifacts are
byte-identical with or without an observer attached.
"""

from __future__ import annotations

from repro.obs import Obs
from repro.obs.telemetry import TelemetryStore


class LiveTelemetryStore(TelemetryStore):
    """Read-only telemetry view over a live daemon's bundle."""

    def __init__(self, obs: Obs, daemon=None,
                 describe: str = "live session") -> None:
        self.obs = obs
        #: Optional :class:`~repro.serve.daemon.ServeDaemon` whose
        #: lifecycle state and ledger enrich ``/healthz``.
        self.daemon = daemon
        #: Human-readable origin, shown where the file-backed store
        #: shows its directory path.
        self.root = describe

    @staticmethod
    def _bounded(seq) -> list:
        """Length-bounded copy of an append-only sequence.

        The writer only appends, so the first ``len(seq)`` entries
        observed here are complete records even if an append races the
        copy.
        """
        n = len(seq)
        return list(seq)[:n]

    def events(self) -> list[dict]:
        """Every event emitted so far (bounded copy)."""
        return self._bounded(self.obs.events.events)

    def snapshots(self) -> list[dict]:
        """Every snapshot sampled so far (bounded copy)."""
        if self.obs.sampler is None:
            return []
        return self._bounded(self.obs.sampler.series)

    def exposition(self) -> str:
        """Prometheus text for the latest snapshot; empty before one."""
        return super().exposition() if self.snapshots() else ""

    def health(self) -> dict:
        """``/healthz`` body; includes daemon state/cycle when attached."""
        record = super().health()
        if self.daemon is not None:
            record["state"] = self.daemon.state.value
            record["cycle"] = self.daemon.cycle
            record["in_flight"] = self.daemon.in_flight
        return record
