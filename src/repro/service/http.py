"""JSON-over-HTTP front end for :class:`~repro.service.service.CutService`.

Stdlib only: ``http.server.ThreadingHTTPServer`` (one thread per
connection) plus ``json``.  Every POST flows through a
:class:`~repro.service.frontend.Frontend` — bounded admission with
429 + ``Retry-After`` shedding, coalescing of identical in-flight
queries, and (optionally) consistent-hash sharding of the graph store
across worker processes; see :mod:`repro.service.frontend`.  The wire
protocol is deliberately boring — every response is a JSON object,
errors are ``{"error": ...}`` with a 4xx status:

========  =========  ====================================================
method    path       body / result
========  =========  ====================================================
GET       /healthz   liveness probe
GET       /graphs    list of registered-graph descriptions
GET       /stats     cache/pool/oracle counters (the observability seam)
GET       /metrics   the full metrics-registry snapshot (counters,
                     gauges, latency histograms with p50/p95/p99)
GET       /trace     recent finished spans from the tracer ring buffer
                     (``?limit=N`` caps the count; a non-integer or
                     negative limit is a 400)
GET       /frontend  admission/coalescing config + live counters
POST      /frontend  reconfigure admission limits at runtime
                     (``{"max_inflight"?, "max_queue"?,
                     "queue_timeout_s"?, "retry_after_s"?}``)
POST      /graphs    ``{"name", "edges": [[u,v,w],...]}`` or
                     ``{"name", "path": "file-on-server"}`` (non-finite
                     weights are a 400)
POST      /<op>      each served op, one per entry of
                     :data:`repro.service.ops.OPS`; the body carries
                     the params that entry declares (``docs/HTTP_API.md``
                     documents each op with replayed examples)
POST      /batch     ``{"requests": [{"op": "mincut"|..., ...}, ...]}``
                     → ``{"responses": [...]}``, one per request, errors
                     inline so one bad request doesn't kill the batch
========  =========  ====================================================

Any POST (except ``/frontend``) may come back **429** with a
``Retry-After`` header and ``{"error", "retry_after_s", "trace_id"}``
body when the admission gate is saturated — clients back off and
retry.  The full wire contract, with replayed request/response
examples, is documented in ``docs/HTTP_API.md`` (kept honest by
``tests/test_http_api_docs.py``, which replays every example against a
live server).

Observability: every request runs under an ``http.request`` root span
(child spans cover body parse, queue wait, shard dispatch, store
lookup, kernelization, cache tiers, oracle path and executor fan-out —
see ``docs/OBSERVABILITY.md`` for the vocabulary), every error
response carries the request's ``trace_id`` so failures correlate with
exported spans, and per-op latency histograms feed ``GET /metrics``
and the ``requests`` section of ``/stats``.  The root span closes and
the request is counted *before* the reply bytes are written, so a
client holding a response always finds its own request in ``/trace``
and ``/metrics`` (read-your-own-trace; the recorded duration excludes
the socket write).  A client that hangs up before the reply lands is
swallowed and counted (``http.client_disconnects``) instead of dumping
a traceback from the handler thread.

``make_server(service, port=0)`` binds an ephemeral port for tests;
``serve(...)`` is the blocking entry point ``repro-cut serve`` uses.
A tiny ``urllib`` client (:func:`request_json` /
:func:`request_status_json`) backs ``repro-cut query``, the loadgen
and the end-to-end tests.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .frontend import Frontend, make_frontend
from .service import CutService

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

    def _post(self, frontend: Frontend, op: str) -> tuple[int, dict, dict]:
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
        self, status: int, payload: dict, headers: dict[str, str] | None = None
    ) -> None:
        """Serialise and send; a client that already hung up is counted
        (``http.client_disconnects``), not a handler-thread traceback."""
        data = json.dumps(payload).encode()
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


# ----------------------------------------------------------------------
# Server + client entry points
# ----------------------------------------------------------------------
def make_server(
    service: CutService | None = None,
    *,
    frontend: Frontend | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> ServiceHTTPServer:
    """Bind (``port=0`` → ephemeral) without starting the accept loop.

    Pass a live ``service`` for the classic single-process server (it
    gets wrapped in an inline :class:`Frontend` with default admission
    limits), or a pre-built ``frontend`` (e.g. from
    :func:`~repro.service.frontend.make_frontend` with ``shards=4``)
    for sharded serving.
    """
    return ServiceHTTPServer(
        (host, port), service, frontend=frontend, quiet=quiet
    )


def serve(
    service: CutService | None = None,
    *,
    frontend: Frontend | None = None,
    host: str = "127.0.0.1",
    port: int = 8008,
) -> None:
    """Blocking accept loop (Ctrl-C to stop) — ``repro-cut serve``."""
    with make_server(
        service, frontend=frontend, host=host, port=port, quiet=False
    ) as server:
        print(f"serving on {server.url}", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass


def request_status_json(
    url: str, path: str, payload: dict | None = None, *, timeout: float = 60.0
) -> tuple[int, dict]:
    """One JSON round-trip returning ``(status, body)``.

    4xx/5xx responses come back decoded rather than raising, so
    callers (the loadgen, the CLI) can tell a shed (429) from a real
    error without exception plumbing.
    """
    full = url.rstrip("/") + path
    if payload is None:
        req = urllib.request.Request(full)
    else:
        req = urllib.request.Request(
            full,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        body = exc.read()
        try:
            return exc.code, json.loads(body)
        except json.JSONDecodeError:
            raise RuntimeError(f"HTTP {exc.code}: {body[:200]!r}") from exc
    except urllib.error.URLError as exc:
        raise ConnectionError(
            f"cannot reach {full}: {exc.reason}"
        ) from exc


def request_json(
    url: str, path: str, payload: dict | None = None, *, timeout: float = 60.0
) -> dict:
    """One JSON round-trip: GET when ``payload`` is None, else POST.

    4xx responses come back as their decoded ``{"error": ...}`` body
    rather than raising, so CLI users see the server's message.
    """
    return request_status_json(url, path, payload, timeout=timeout)[1]
