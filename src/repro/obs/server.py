"""A stdlib HTTP surface for metrics, health and the journal.

:class:`ObsServer` wraps :class:`http.server.ThreadingHTTPServer` with
three read-only endpoints:

``/metrics``
    The metrics registry in Prometheus text exposition format
    (``text/plain; version=0.0.4``) — scrapeable by any Prometheus.
``/healthz``
    The :mod:`repro.obs.health` report as JSON.  HTTP 200 while ``ok``
    or ``degraded``, 503 when ``critical`` — a load balancer needs only
    the status code.
``/journal``
    The most recent flight-recorder events as JSON.  Query parameters:
    ``limit`` (newest N, default 100), ``type`` (exact event type),
    ``shard`` (exact shard label).

The server binds ``127.0.0.1`` on an ephemeral port by default (this is
an operator surface, not a public API), serves every request from a
daemon thread, and is silent — request logging goes to a counter, not
stderr.  Use it as a context manager::

    with ObsServer(fleet=fleet) as srv:
        print(srv.url)          # http://127.0.0.1:<port>
        ...                     # scrape /metrics, poll /healthz
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional
from urllib.parse import parse_qs, urlparse

from . import health as _health
from . import journal as _journal
from .journal import Journal
from .metrics import REGISTRY, MetricsRegistry

__all__ = ["ObsServer", "render_route"]

#: The routes both obs servers (threaded and asyncio) expose.
ROUTES = ("/metrics", "/healthz", "/journal")


def _json_body(payload: Any) -> bytes:
    return json.dumps(payload, indent=2, sort_keys=True).encode()


def render_route(
    route: str,
    params: "dict[str, list[str]]",
    *,
    fleet: Any = None,
    journal: Optional[Journal] = None,
    registry: Optional[MetricsRegistry] = None,
    thresholds: Optional[_health.Thresholds] = None,
) -> "tuple[int, str, bytes]":
    """``(status, content type, body)`` for one observability route.

    The single source of truth for the obs surface: the threaded
    :class:`ObsServer` and the asyncio endpoint
    (:class:`repro.aio.AsyncObsServer`) both render through here, so
    the two transports can never drift apart in payload or status
    semantics.
    """
    journal = journal if journal is not None else _journal.JOURNAL
    registry = registry if registry is not None else REGISTRY
    if route == "/metrics":
        return (
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            registry.render_prometheus().encode(),
        )
    if route == "/healthz":
        report = _health.check(
            fleet=fleet,
            journal=journal,
            thresholds=thresholds or _health.Thresholds(),
        )
        return (
            report.http_status,
            "application/json",
            _json_body(report.to_dict()),
        )
    if route == "/journal":
        try:
            limit = int(params.get("limit", ["100"])[0])
        except ValueError:
            return (
                400,
                "application/json",
                _json_body({"error": "limit must be an int"}),
            )
        events = journal.events(
            type=params.get("type", [None])[0],
            shard=params.get("shard", [None])[0],
            limit=limit,
        )
        return (
            200,
            "application/json",
            _json_body(
                {
                    "events": [e.to_dict() for e in events],
                    "dropped": journal.dropped,
                    "next_seq": journal.next_seq,
                }
            ),
        )
    return (
        404,
        "application/json",
        _json_body({"error": f"no route {route!r}", "routes": list(ROUTES)}),
    )


class _Handler(BaseHTTPRequestHandler):
    """Routes one request; all state lives on the server object."""

    server: "ObsServer"  # type: ignore[assignment]
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:
        pass  # requests are not logged

    def _send(
        self, status: int, body: bytes, content_type: str
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        obs: "ObsServer" = self.server  # type: ignore[assignment]
        status, content_type, body = render_route(
            route,
            parse_qs(parsed.query),
            fleet=obs.fleet,
            journal=obs.journal,
            registry=obs.registry,
            thresholds=obs.thresholds,
        )
        self._send(status, body, content_type)


#: How often the serving thread checks for :meth:`ObsServer.close`
#: (``serve_forever``'s 0.5 s default would make every close wait it out).
_POLL_INTERVAL_S = 0.05


class ObsServer(ThreadingHTTPServer):
    """The live observability endpoint (see module docstring)."""

    daemon_threads = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        fleet: Any = None,
        journal: Optional[Journal] = None,
        registry: Optional[MetricsRegistry] = None,
        thresholds: Optional[_health.Thresholds] = None,
    ):
        super().__init__((host, port), _Handler)
        self.fleet = fleet
        self.journal = journal if journal is not None else _journal.JOURNAL
        self.registry = registry if registry is not None else REGISTRY
        self.thresholds = thresholds or _health.Thresholds()
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "ObsServer":
        """Serve from a daemon thread; returns ``self`` for chaining."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self.serve_forever,
            args=(_POLL_INTERVAL_S,),
            name=f"repro-obs-server-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving and release the socket."""
        if self._thread is not None:
            self.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self.server_close()

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
