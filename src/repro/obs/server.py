"""HTTP endpoint over a telemetry store (``repro metrics-server``).

:class:`TelemetryServer` serves any
:class:`~repro.obs.telemetry.TelemetryStore` (a directory, or the serve
daemon's and cluster's in-memory stores) on ``/metrics``, ``/healthz``,
``/events`` and ``/snapshots``; ``?tail=N`` serves a stream's last N
records, none for N <= 0.  It is kept apart from
:mod:`repro.obs.telemetry` so that only the commands that open a socket
load ``http.server``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.obs.telemetry import TelemetryStore, tail

#: Content type the Prometheus text format is served under.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _TelemetryHandler(BaseHTTPRequestHandler):
    store: TelemetryStore  # injected by TelemetryServer

    server_version = "repro-telemetry/1"

    def log_message(self, fmt, *args):  # silence per-request stderr noise
        pass

    def _send(self, body: str, content_type: str, code: int = 200) -> None:
        data = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _tail_param(self, query: dict, default: int) -> int:
        try:
            return int(query.get("tail", [default])[0])
        except (TypeError, ValueError):
            return default

    def do_GET(self):  # noqa: N802 (http.server API)
        url = urlparse(self.path)
        query = parse_qs(url.query)
        if url.path == "/metrics":
            self._send(self.store.exposition(), PROM_CONTENT_TYPE)
        elif url.path == "/healthz":
            self._send(json.dumps(self.store.health(), sort_keys=True),
                       "application/json")
        elif url.path == "/events":
            records = self.store.events_tail(self._tail_param(query, 100))
            body = "".join(json.dumps(r, sort_keys=True) + "\n"
                           for r in records)
            self._send(body, "application/x-ndjson")
        elif url.path == "/snapshots":
            records = tail(self.store.snapshots(),
                           self._tail_param(query, 10))
            body = "".join(json.dumps(r, sort_keys=True) + "\n"
                           for r in records)
            self._send(body, "application/x-ndjson")
        else:
            self._send("not found\n", "text/plain", code=404)


class TelemetryServer:
    """Stdlib HTTP server exposing a telemetry store.

    ``port=0`` binds an ephemeral port (tests); the bound port is on
    :attr:`port` after construction.  Use :meth:`start` for a background
    thread or :meth:`serve_forever` to block.
    """

    def __init__(self, store: TelemetryStore, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        handler = type("BoundTelemetryHandler", (_TelemetryHandler,),
                       {"store": store})
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.host, self.port = self.httpd.server_address[:2]
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        """Serve from a daemon thread; returns immediately."""
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self.httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop serving, close the socket, and join the thread."""
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> TelemetryServer:
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
