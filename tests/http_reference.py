"""Frozen HTTP wire layer (the reference).

This is ``repro.service.http``'s ``ServiceHTTPServer`` and ``_Handler``
as they were before the wire layer reused handler threads, read the
request head by hand and wrote each reply in one write: the stdlib
``ThreadingHTTPServer`` (one new thread per connection), the
``BaseHTTPRequestHandler`` request parser (the ``email`` package reads
the headers) and a reply sent one header at a time.  The code below is
kept verbatim -- class bodies and comments -- as the differential
reference for the program's server (``tests/test_http_reference.py``)
and as the "old" side of ``benchmarks/bench_wire.py``'s small-request
leg.  Nothing in ``src/`` imports this module.

:func:`make_reference_server` binds it on an ephemeral port in front of
any :class:`~repro.service.frontend.Frontend`.
"""

from __future__ import annotations

import json
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service.frontend import Frontend, make_frontend
from repro.service.reply import encode_reply
from repro.service.service import CutService

_MAX_BODY = 64 * 1024 * 1024

#: Sockets idle longer than this mid-request are dropped: a client
#: that sends headers and then stalls must not pin a handler thread
#: forever (satellite of the Content-Length hardening).
_SOCKET_TIMEOUT_S = 120.0


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns a :class:`Frontend`.

    ``service`` stays available (``None`` in sharded mode) so existing
    callers and tests can keep reaching the in-process
    :class:`CutService` behind an inline frontend.
    """

    daemon_threads = True

    def __init__(
        self,
        address,
        service: CutService | None = None,
        *,
        frontend: Frontend | None = None,
        quiet: bool = True,
    ):
        if frontend is None:
            if service is None:
                raise ValueError("need a service or a frontend")
            frontend = make_frontend(service)
        self.frontend = frontend
        self.service = service if service is not None else getattr(
            frontend.backend, "service", None
        )
        self.quiet = quiet
        super().__init__(address, _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _Handler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer
    timeout = _SOCKET_TIMEOUT_S

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        parsed = urllib.parse.urlsplit(self.path)
        self._respond("GET", parsed.path, lambda fe, _: self._get(fe, parsed))

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._respond("POST", self.path, self._post)

    def _respond(self, method: str, path: str, route) -> None:
        """Serve one request under its ``http.request`` root span.

        The span closes and the request is counted *before* the reply
        bytes go out: a client that has the response can immediately
        read its own request in /trace and /metrics (the recorded
        duration excludes the socket write).  A 429 counts as a shed,
        not an error.
        """
        frontend = self.server.frontend
        op = path.lstrip("/") or "unknown"
        t0 = time.perf_counter()
        with frontend.tracer.span("http.request") as root:
            if root:
                root.set(method=method, path=path, op=op)
            status, payload, headers = route(frontend, op)
            if status >= 400:
                payload = _with_trace_id(root, payload)
            if root:
                root.set(status=status)
        frontend.observe_request(
            op,
            time.perf_counter() - t0,
            error=status >= 400 and status != 429,
            shed=status == 429,
        )
        self._reply(status, payload, headers)

    @staticmethod
    def _get(frontend: Frontend, parsed) -> tuple[int, dict, dict]:
        path = parsed.path
        if path == "/healthz":
            return 200, {"ok": True}, {}
        if path == "/graphs":
            return 200, {"graphs": frontend.graphs()}, {}
        if path == "/stats":
            return 200, frontend.stats(), {}
        if path == "/metrics":
            return 200, frontend.metrics_payload(), {}
        if path == "/frontend":
            return 200, frontend.describe(), {}
        if path == "/trace":
            return _Handler._trace_payload(frontend, parsed.query)
        return 404, {"error": f"unknown path {path!r}"}, {}

    @staticmethod
    def _trace_payload(frontend: Frontend, query: str) -> tuple:
        """``GET /trace``: a bad ``limit`` is a 400, not silently the
        full snapshot — an operator typo'ing ``?limit=abc`` under
        incident pressure must hear about it."""
        params = urllib.parse.parse_qs(query)
        limit = None
        if "limit" in params:
            raw = params["limit"][0]
            try:
                limit = int(raw)
            except ValueError:
                return 400, {
                    "error": f"limit must be an integer, got {raw!r}"
                }, {}
            if limit < 0:
                return 400, {"error": f"limit must be >= 0, got {limit}"}, {}
        return 200, frontend.trace_payload(limit), {}

    def _post(
        self, frontend: Frontend, op: str
    ) -> tuple[int, dict | bytes, dict]:
        try:
            with frontend.tracer.span("http.parse") as sp:
                body = self._read_json()
                if sp:
                    # _read_json validated the header already
                    sp.set(
                        content_length=int(self.headers.get("Content-Length"))
                    )
        except ValueError as exc:
            return 400, {"error": str(exc)}, {}
        return frontend.handle(op, body)

    # ------------------------------------------------------------------
    def _read_json(self) -> dict:
        """Read and decode the request body, validating Content-Length.

        The raw header value is untrusted: ``rfile.read(-1)`` on a
        negative length blocks until the client closes the socket
        (pinning a handler thread indefinitely), and a non-numeric
        value used to crash the handler.  Both are a 400 now.
        """
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            raise ValueError("missing Content-Length; expected a JSON body")
        try:
            length = int(raw_length)
        except ValueError:
            raise ValueError(
                f"invalid Content-Length {raw_length!r}: not an integer"
            ) from None
        if length <= 0:
            raise ValueError(
                f"invalid Content-Length {length}: must be positive"
            )
        if length > _MAX_BODY:
            raise ValueError(f"request body exceeds {_MAX_BODY} bytes")
        raw = self.rfile.read(length)
        if not raw:
            raise ValueError("empty request body; expected JSON")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}") from exc

    def _reply(
        self,
        status: int,
        payload: dict | bytes,
        headers: dict[str, str] | None = None,
    ) -> None:
        """Send one reply: already-encoded bytes (a result-cached reply,
        a ``/batch`` body) as they are, anything else through
        ``json.dumps``.  A client that already hung up is counted
        (``http.client_disconnects``), not a handler-thread traceback."""
        data = encode_reply(payload)
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            for key, value in (headers or {}).items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            self.server.frontend.note_client_disconnect()
            self.close_connection = True

    def handle_one_request(self) -> None:
        """One request, with disconnect noise downgraded to a counter."""
        try:
            super().handle_one_request()
        except (BrokenPipeError, ConnectionResetError):
            self.server.frontend.note_client_disconnect()
            self.close_connection = True

    def log_message(self, fmt: str, *args) -> None:  # noqa: A003
        if not self.server.quiet:
            super().log_message(fmt, *args)


def _with_trace_id(root, payload: dict) -> dict:
    """Stamp the request's trace id onto an error payload.

    Every 4xx/5xx body (and every inline ``/batch`` error) carries the
    ``trace_id`` of its ``http.request`` span, so a failure seen by a
    client is correlatable with the exported span tree.  ``None`` when
    the service runs with tracing disabled.
    """
    payload["trace_id"] = root.trace_id if root else None
    return payload


def make_reference_server(frontend: Frontend) -> ServiceHTTPServer:
    """The frozen server on ``127.0.0.1`` (ephemeral port), not started."""
    return ServiceHTTPServer(("127.0.0.1", 0), frontend=frontend)
