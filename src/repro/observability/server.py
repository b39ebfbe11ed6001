"""The telemetry server: ``/metrics``, ``/health`` and ``/snapshot``.

Opt-in, stdlib-only exposition over HTTP so a scraper, a load balancer
probe or ``python -m repro.dash`` can watch a serving mediator from
outside the process.  Built on :class:`http.server.ThreadingHTTPServer`
running on a daemon thread -- no framework, no dependency, start/stop
in a line::

    server = TelemetryServer(mediator=mediator)
    server.start()            # or: with TelemetryServer(...) as server:
    ...                       # http://127.0.0.1:<server.port>/metrics
    server.stop()

Endpoints:

* ``/metrics`` -- :meth:`TelemetryServer.snapshot` in OpenMetrics
  text (see :mod:`repro.observability.exposition`);
* ``/health`` -- a JSON liveness/readiness document: catalog version,
  admission in-flight / shed rate, slow-query counts and the SLO
  status.  Answers **200** while healthy and **503** once the SLO
  error budget is exhausted, so any HTTP prober can act on it;
* ``/snapshot`` -- the same snapshot as JSON (the dashboard's data
  feed; lossless, buckets included).

The server binds ``port=0`` by default (ephemeral: read ``.port``
after :meth:`start`), and serves each request from a fresh thread so a
slow scraper cannot stall a probe.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.observability.exposition import (
    OPENMETRICS_CONTENT_TYPE,
    render_openmetrics,
)
from repro.observability.metrics import MetricsRegistry, get_metrics


def _json_safe(value: Any) -> Any:
    """Strip non-JSON values (inf/nan) a health document must not leak."""
    if isinstance(value, float) and (value != value or value in (
        float("inf"), float("-inf")
    )):
        return repr(value)
    return value


class TelemetryServer:
    """Serves the registry (and a mediator's health) over HTTP."""

    def __init__(
        self,
        mediator=None,
        registry: MetricsRegistry | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        """``mediator`` is optional: without one, ``/health`` reports
        only the process-level status and is always ``ok``.  The
        ``registry`` defaults to the process-wide one *at request
        time*, so a scoped ``use_metrics`` block is respected."""
        self.mediator = mediator
        self._registry = registry
        self.host = host
        self._requested_port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_metrics()

    @property
    def port(self) -> int:
        """The bound port (valid once :meth:`start` returned)."""
        if self._httpd is None:
            raise RuntimeError("the telemetry server is not running")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, Any]]:
        """What ``/metrics`` and ``/snapshot`` serve: the registry
        snapshot, with ``mediator.ask_seconds`` read from the bound
        mediator's own latency histogram when it has an objective --
        that histogram is the one holding the asks' exemplars (and
        the objective as an exact bucket boundary)."""
        snapshot = self.registry.snapshot()
        ask_latency = getattr(self.mediator, "ask_latency", None)
        if ask_latency is not None:
            snapshot["mediator.ask_seconds"] = ask_latency.snapshot()
        return snapshot

    def health(self) -> dict[str, Any]:
        """The ``/health`` document (also usable in-process)."""
        document: dict[str, Any] = {"status": "ok"}
        mediator = self.mediator
        if mediator is not None:
            document["catalog_version"] = mediator.catalog_version
            document["sources"] = len(mediator.catalog)
            admission = getattr(mediator, "admission", None)
            if admission is not None:
                admitted, shed = admission.admitted, admission.shed
                outcomes = admitted + shed
                document["admission"] = {
                    "in_flight": admission.in_flight,
                    "max_in_flight": admission.max_in_flight,
                    "admitted": admitted,
                    "shed": shed,
                    "shed_rate": shed / outcomes if outcomes else 0.0,
                }
            slow_queries = getattr(mediator, "slow_queries", None)
            if slow_queries is not None:
                document["slow_queries"] = {
                    "recorded": slow_queries.recorded,
                    "retained": len(slow_queries),
                    "evicted": slow_queries.evicted,
                }
            slo = getattr(mediator, "slo", None)
            if slo is not None:
                status = slo.status()
                document["slo"] = {
                    key: _json_safe(value) for key, value in status.items()
                }
                document["status"] = status["status"]
        return document

    # ------------------------------------------------------------------
    def start(self) -> "TelemetryServer":
        if self._httpd is not None:
            raise RuntimeError("the telemetry server is already running")
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:  # silence stderr
                pass

            def _send(self, code: int, content_type: str,
                      body: bytes) -> None:
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:  # noqa: N802 - stdlib handler name
                path = self.path.split("?", 1)[0]
                try:
                    if path == "/metrics":
                        body = render_openmetrics(
                            server.snapshot()
                        ).encode("utf-8")
                        self._send(200, OPENMETRICS_CONTENT_TYPE, body)
                    elif path == "/health":
                        document = server.health()
                        code = 200 if document["status"] == "ok" else 503
                        body = json.dumps(
                            document, sort_keys=True
                        ).encode("utf-8")
                        self._send(code, "application/json", body)
                    elif path == "/snapshot":
                        body = json.dumps(
                            server.snapshot(), sort_keys=True
                        ).encode("utf-8")
                        self._send(200, "application/json", body)
                    else:
                        self._send(404, "text/plain; charset=utf-8",
                                   b"not found\n")
                except BrokenPipeError:  # scraper went away mid-write
                    pass

        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), Handler
        )
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="telemetry-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
