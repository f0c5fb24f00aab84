"""Serving frontend: admission control, query coalescing, sharded dispatch.

The HTTP layer (:mod:`repro.service.http`) is a thread-per-connection
stdlib server; before this module every accepted connection went
straight at the :class:`~repro.service.service.CutService`, so a burst
of queries became an unbounded thread pile-up.  The
:class:`Frontend` sits between the wire and the service and adds the
three scalability mechanisms the ROADMAP's "async, sharded serving
tier" item calls for:

* **Admission control** — a bounded in-flight window plus a bounded
  wait queue (:class:`AdmissionGate`).  A request that cannot get a
  slot within ``queue_timeout_s`` (or that finds the wait queue full)
  is *shed* with HTTP 429 and a ``Retry-After`` hint instead of piling
  onto the service.  Time spent waiting is traced as a ``queue.wait``
  span and recorded in the ``frontend.queue_wait_s`` histogram.

* **Query coalescing** — identical in-flight read queries (same graph
  *fingerprint*, op and parsed params) share one computation: the
  first request becomes the *leader* and actually dispatches;
  followers park on the leader's flight and fan its result out
  (``frontend.coalesced_hits``).  Keyed by fingerprint, not name, so
  a mutation between two arrivals correctly splits them into separate
  flights.  Only ops marked ``coalesce`` in
  :data:`~repro.service.ops.OPS` (pure reads) coalesce; mutations and
  registrations never do.

* **Sharding** — :class:`ShardPool` partitions the
  :class:`~repro.service.store.GraphStore` (and with it kernels,
  Gomory–Hu oracles and result caches) across worker *processes* by
  graph fingerprint via a consistent-hash ring (:class:`HashRing`), so
  resident state scales horizontally and CPU-bound cut queries for
  different graphs run on different cores.  Each dispatch is traced as
  a ``shard.dispatch`` span; requests for one shard are serialised so
  answers stay bit-identical to the single-process service (proven by
  the differential harness in ``tests/test_frontend.py``).

Both backends expose the same ``dispatch(op, body) -> (status,
payload)`` surface, so the HTTP handler is identical in inline and
sharded mode, and the differential harness can drive both through real
sockets.  :func:`make_frontend` is the single constructor the server
and CLI use.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import multiprocessing
import signal
import threading
import time
from dataclasses import dataclass

from ..graph import Graph, load_any
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from .deltas import FingerprintMismatch, is_number, is_vertex_id
from .ops import BadRequest, Param, parse_request
from .reply import CachedReply, encode_reply
from .service import CutService, observe_request, request_summary


class Overloaded(Exception):
    """Raised by :class:`AdmissionGate` when a request must be shed."""

    def __init__(self, message: str, retry_after_s: float):
        super().__init__(message)
        self.retry_after_s = retry_after_s


# ----------------------------------------------------------------------
# Dispatch: op name + JSON body -> CutService call
# ----------------------------------------------------------------------
def require(body: dict, key: str):
    if key not in body:
        raise BadRequest(f"missing required field {key!r}")
    return body[key]


def parse_registration(body: dict) -> tuple[str, Graph]:
    """``POST /graphs`` body -> ``(name, Graph)``.

    A NaN or infinite weight would poison the graph fingerprint (NaN !=
    NaN breaks cache keys) and every cut comparison downstream;
    :meth:`Graph.add_edge` rejects it with a ``ValueError`` naming the
    weight and endpoints, which the wire answers with 400 just like
    ``/mutate`` does (see ``deltas._edge_row``).  The ``name`` (every
    later op addresses the graph by a string), the ``edges`` and
    ``vertices`` lists (a string would register its characters), each
    vertex id (an integer or a string,
    :func:`~repro.service.deltas.is_vertex_id`) and each weight's type (a JSON number, as ``/mutate`` rows require:
    ``true`` or ``"2.5"`` would otherwise pass ``float``) are validated
    here.
    """
    name = require(body, "name")
    if not isinstance(name, str):
        raise BadRequest(f"field 'name' must be a string, got {name!r}")
    if "path" in body:
        return name, load_any(body["path"])
    edges = require(body, "edges")
    if not isinstance(edges, list):
        raise BadRequest(f"field 'edges' must be a list, got {edges!r}")
    vertices = body.get("vertices", [])
    if not isinstance(vertices, list):
        raise BadRequest(f"field 'vertices' must be a list, got {vertices!r}")
    for v in vertices:
        if not is_vertex_id(v):
            raise BadRequest(f"bad vertex {v!r}: ids must be integers or strings")
    graph = Graph(vertices=vertices)
    for edge in edges:
        if not isinstance(edge, (list, tuple)) or len(edge) not in (2, 3):
            raise BadRequest(f"bad edge {edge!r}: want [u, v] or [u, v, w]")
        if not (is_vertex_id(edge[0]) and is_vertex_id(edge[1])):
            raise BadRequest(f"bad edge {edge!r}: ids must be integers or strings")
        if len(edge) == 3 and not is_number(edge[2]):
            raise BadRequest(
                f"bad edge {edge!r}: weight must be a number, got {edge[2]!r}"
            )
        w = float(edge[2]) if len(edge) == 3 else 1.0
        graph.add_edge(edge[0], edge[1], w)
    return name, graph


def safe_dispatch(
    service: CutService, op: str | None, body
) -> tuple[int, dict | bytes]:
    """Parse a wire op against its :class:`~repro.service.ops.OpSpec` and
    call the :class:`CutService` method of that name (``graphs``
    registers), with every failure mapped to a JSON ``(status, body)``.
    A result-cached reply comes back as its encoded JSON bytes
    (:class:`~repro.service.reply.CachedReply`), which the shard pipe,
    the frontend and the wire pass through untouched.

    A handler (or shard worker) must never die without replying — a
    thread killed by an uncaught exception drops the connection
    mid-request and, in ``/batch``, would break the errors-inline
    contract.
    """
    try:
        if not isinstance(body, dict):
            raise BadRequest("request body must be a JSON object")
        if op == "graphs":
            return 200, service.register(*parse_registration(body))
        _, params = parse_request(op, body)
        reply = getattr(service, op)(params.pop("graph"), **params)
        if isinstance(reply, CachedReply):
            return 200, reply.encode()
        return 200, reply
    except FingerprintMismatch as exc:
        return 409, {
            "error": str(exc),
            "expected_fingerprint": exc.expected,
            "fingerprint": exc.actual,
        }
    except (TypeError, ValueError) as exc:
        return 400, {"error": str(exc)}
    except KeyError as exc:
        # str(KeyError("x")) is "'x'": unwrap the arg for clean JSON
        return 404, {"error": str(exc.args[0]) if exc.args else str(exc)}
    except OSError as exc:
        return 400, {"error": f"{type(exc).__name__}: {exc}"}
    except Exception as exc:  # noqa: BLE001 - last-resort 500
        return 500, {"error": f"internal error: {type(exc).__name__}: {exc}"}


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
#: ``POST /frontend``'s fields, typed like op params: the two counts take
#: integers, the two times JSON numbers (never a boolean or a string)
ADMIN_PARAMS = (
    Param("max_inflight", "count"), Param("max_queue", "count"),
    Param("queue_timeout_s", "float"), Param("retry_after_s", "float"),
)


class AdmissionGate:
    """Bounded in-flight window + bounded wait queue.

    ``acquire()`` either returns (a slot is held; caller must
    ``release()``), or raises :class:`Overloaded`.  A request is shed
    immediately when the wait queue is full, or after ``queue_timeout_s``
    if no slot frees up.  Built on a ``Condition`` rather than a
    semaphore so the limits can be reconfigured at runtime
    (``POST /frontend``) and so queue depth is observable.
    """

    #: the limits a gate starts with, unless given
    max_inflight = 64
    max_queue = 256
    queue_timeout_s = 2.0
    retry_after_s = 1.0

    def __init__(self, **limits):
        """``limits`` as :meth:`configure` takes them."""
        self._cond = threading.Condition()
        self.inflight = 0
        self.waiting = 0
        self.queue_depth_peak = 0
        self.configure(**limits)

    def configure(self, **limits) -> None:
        """Set the given limits; ``None`` leaves one unchanged.  Each is
        typed by :data:`ADMIN_PARAMS`, as ``POST /frontend`` types it:
        an unknown field, a boolean, a fraction for a count or a
        negative or non-finite value raises :class:`ValueError` naming
        the field, and changes nothing."""
        unknown = set(limits) - {p.name for p in ADMIN_PARAMS}
        if unknown:
            raise ValueError(
                f"unknown frontend setting(s): {', '.join(sorted(unknown))}"
            )
        updates = {}
        for param in ADMIN_PARAMS:
            if limits.get(param.name) is None:
                continue
            value = param.coerce(limits[param.name])
            if not 0 <= value < math.inf:
                raise ValueError(f"{param.name} must be >= 0 and finite")
            updates[param.name] = value
        with self._cond:
            for key, value in updates.items():
                setattr(self, key, value)
            self._cond.notify_all()

    def _shed_message(self) -> str:
        return (
            f"server at capacity: {self.inflight} in flight "
            f"(limit {self.max_inflight}), {self.waiting} queued "
            f"(limit {self.max_queue})"
        )

    def try_acquire(self) -> bool:
        """Take a slot if one is free right now (no queueing)."""
        with self._cond:
            if self.inflight < self.max_inflight:
                self.inflight += 1
                return True
            return False

    def acquire(self) -> float:
        """Block until admitted; returns seconds spent waiting.

        Raises :class:`Overloaded` when shed.
        """
        with self._cond:
            if self.inflight < self.max_inflight:
                self.inflight += 1
                return 0.0
            if self.waiting >= self.max_queue:
                raise Overloaded(self._shed_message(), self.retry_after_s)
            deadline = time.monotonic() + self.queue_timeout_s
            t0 = time.monotonic()
            self.waiting += 1
            self.queue_depth_peak = max(self.queue_depth_peak, self.waiting)
            try:
                while self.inflight >= self.max_inflight:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise Overloaded(
                            self._shed_message(), self.retry_after_s
                        )
                    self._cond.wait(remaining)
                self.inflight += 1
                return time.monotonic() - t0
            finally:
                self.waiting -= 1

    def release(self) -> None:
        with self._cond:
            self.inflight -= 1
            self._cond.notify()

    def describe(self) -> dict:
        with self._cond:
            return {
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
                "queue_timeout_s": self.queue_timeout_s,
                "retry_after_s": self.retry_after_s,
                "inflight": self.inflight,
                "queue_depth": self.waiting,
                "queue_depth_peak": self.queue_depth_peak,
            }


# ----------------------------------------------------------------------
# Coalescing
# ----------------------------------------------------------------------
class _Flight:
    """One in-flight computation; followers park on ``done``."""

    __slots__ = ("done", "status", "payload")

    def __init__(self):
        self.done = threading.Event()
        self.status = 500
        self.payload: dict | bytes = {
            "error": "coalesced leader never completed"
        }


class QueryCoalescer:
    """Singleflight table keyed by ``(op, fingerprint, canonical body)``."""

    def __init__(self):
        self._lock = threading.Lock()
        self._flights: dict[tuple, _Flight] = {}

    def join(self, key: tuple) -> tuple[bool, _Flight]:
        """Return ``(is_leader, flight)`` for this key."""
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                return False, flight
            flight = _Flight()
            self._flights[key] = flight
            return True, flight

    def finish(
        self, key: tuple, flight: _Flight, status: int, payload: dict | bytes
    ) -> None:
        """Publish the leader's result and release followers."""
        with self._lock:
            self._flights.pop(key, None)
        flight.status = status
        flight.payload = payload
        flight.done.set()

    def __len__(self) -> int:
        with self._lock:
            return len(self._flights)


def _own(status: int, payload: dict | bytes) -> dict | bytes:
    """A flight's payload for one of its callers.  The HTTP layer
    stamps each caller's trace_id into an error payload in place, so an
    error is shallow-copied per caller; a reply is shared as it is."""
    return dict(payload) if status >= 400 else payload


# ----------------------------------------------------------------------
# Consistent-hash ring
# ----------------------------------------------------------------------
#: virtual nodes per shard on the :class:`HashRing`
RING_REPLICAS = 64

#: how :class:`ShardPool` starts its worker processes
SHARD_START_METHOD = "spawn"


class HashRing:
    """Consistent hashing over shard ids (sha256, virtual nodes).

    Routing by graph *fingerprint* (itself a sha256 of the edge
    columns) keeps placement stable under shard-count changes: growing
    from S to S+1 shards moves ~1/(S+1) of the keys instead of
    rehashing everything, which is what keeps resident oracles warm
    through a resize.

    Placement is deterministic — the same key always lands on the same
    shard of a same-sized ring — and adding a shard leaves most keys
    where they were:

    >>> ring = HashRing(4)
    >>> ring.route("a-fingerprint") == ring.route("a-fingerprint")
    True
    >>> keys = [f"key-{i}" for i in range(200)]
    >>> bigger = HashRing(5)
    >>> moved = sum(ring.route(k) != bigger.route(k) for k in keys)
    >>> 0 < moved < 100  # ~1/5 expected, far from a full reshuffle
    True
    """

    def __init__(self, shards: int):
        if shards < 1:
            raise ValueError("ring needs at least one shard")
        self.shards = int(shards)
        points = []
        for shard in range(self.shards):
            for replica in range(RING_REPLICAS):
                points.append((self._hash(f"shard-{shard}-{replica}"), shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(
            hashlib.sha256(key.encode()).digest()[:8], "big"
        )

    def route(self, key: str) -> int:
        """Shard id owning ``key`` (clockwise successor on the ring)."""
        idx = bisect.bisect(self._points, self._hash(key))
        if idx == len(self._points):
            idx = 0
        return self._owners[idx]


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class InlineBackend:
    """Single-process backend: dispatch straight into a CutService."""

    mode = "inline"
    shards = 1

    def __init__(self, service: CutService):
        self.service = service

    def dispatch(
        self, op: str | None, body, tracer: Tracer
    ) -> tuple[int, dict | bytes]:
        return safe_dispatch(self.service, op, body)

    def fingerprint_of(self, name: str) -> str | None:
        return self.service.store.peek_fingerprint(name)

    def graphs(self) -> list[dict]:
        return self.service.graphs()

    def stats(self) -> dict:
        return self.service.stats()

    def metrics_payload(self) -> dict:
        return self.service.metrics_payload()

    def close(self) -> None:
        self.service.close()


def _shard_main(shard_id: int, conn, service_kwargs: dict) -> None:
    """Worker-process loop: one CutService per shard, ops over a Pipe.

    Runs in a child process (so it must stay importable at module
    level for the ``spawn`` start method).  The protocol is
    ``(request_id, op, body)`` in, ``(request_id, status, payload)``
    out, strictly serial per shard — which is exactly what keeps
    sharded answers bit-identical to the single-process service.  A
    result-cached reply's payload is its encoded JSON ``bytes``, so the
    pipe carries the stored encoding, not a pickled dict.  The
    id comes back untouched so the parent can discard a late reply to a
    request it already timed out.  Control ops are prefixed with
    ``__``: ``__graphs__``, ``__stats__``, ``__metrics__``,
    ``__ping__``, ``__stop__``.
    """
    # Ctrl-C on the serving process lands on the whole foreground
    # process group; shutdown is driven by __stop__/EOF on the pipe,
    # so the worker must not die (noisily) on the stray SIGINT.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    service = CutService(**service_kwargs)
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            request_id, op, body = msg
            if op == "__stop__":
                conn.send((request_id, 200, {"ok": True}))
                break
            try:
                if op == "__graphs__":
                    result = (200, {"graphs": service.graphs()})
                elif op == "__stats__":
                    result = (200, service.stats())
                elif op == "__metrics__":
                    result = (200, service.metrics_payload())
                elif op == "__ping__":
                    result = (200, {"ok": True, "shard": shard_id})
                else:
                    result = safe_dispatch(service, op, body)
            except Exception as exc:  # noqa: BLE001 - keep the loop alive
                result = (
                    500,
                    {"error": f"shard error: {type(exc).__name__}: {exc}"},
                )
            try:
                conn.send((request_id, *result))
            except (BrokenPipeError, OSError):
                break
    finally:
        service.close()
        conn.close()


@dataclass
class _Route:
    shard: int
    fingerprint: str


class ShardPool:
    """Multi-process backend: GraphStore partitioned by fingerprint.

    The frontend computes each graph's fingerprint at registration
    time (parsing the edges / loading the file once, locally), routes
    the name to a shard via the :class:`HashRing`, and ships the
    original JSON body to that shard's worker process.  Subsequent ops
    on the name go to the same shard; ``mutate`` responses refresh the
    routing fingerprint (placement is sticky — a mutated graph stays
    where its oracles live), ``evict`` drops the route.  Per-shard
    dispatch is serialised by a lock around the Pipe round-trip, so
    one shard behaves exactly like a single-process service while
    different shards run truly in parallel.
    """

    mode = "sharded"

    def __init__(
        self,
        shards: int,
        *,
        service_kwargs: dict | None = None,
        request_timeout_s: float = 300.0,
    ):
        if shards < 2:
            raise ValueError("ShardPool needs >= 2 shards (use InlineBackend)")
        self.shards = int(shards)
        self.service_kwargs = dict(service_kwargs or {})
        self.request_timeout_s = float(request_timeout_s)
        self.ring = HashRing(self.shards)
        self._routes: dict[str, _Route] = {}
        self._routes_lock = threading.Lock()
        ctx = multiprocessing.get_context(SHARD_START_METHOD)
        self._conns = []
        self._procs = []
        self._locks = [threading.Lock() for _ in range(self.shards)]
        self._request_ids = itertools.count()
        # Tracer/metrics objects don't pickle; shard services run
        # untraced and the frontend traces around the round-trip.
        kwargs = dict(self.service_kwargs)
        kwargs.pop("tracer", None)
        kwargs.pop("metrics", None)
        for shard in range(self.shards):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_main,
                args=(shard, child, kwargs),
                daemon=True,
                name=f"cut-shard-{shard}",
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
        # Fail fast if a worker died on boot (bad service kwargs).
        for shard in range(self.shards):
            status, payload = self._roundtrip(shard, "__ping__", None)
            if status != 200:
                self.close()
                raise RuntimeError(f"shard {shard} failed to boot: {payload}")

    # ------------------------------------------------------------------
    def _roundtrip(
        self, shard: int, op: str, body, timeout_s: float | None = None
    ) -> tuple[int, dict | bytes]:
        """One request/reply on a shard's pipe, under its lock.

        Replies carry their request's id.  A request that timed out
        leaves its late reply in the pipe; the next round-trip on the
        shard reads and discards it instead of answering with it.
        """
        if timeout_s is None:
            timeout_s = self.request_timeout_s
        with self._locks[shard]:
            conn = self._conns[shard]
            request_id = next(self._request_ids)
            deadline = time.monotonic() + timeout_s
            try:
                conn.send((request_id, op, body))
                while True:
                    if not conn.poll(max(0.0, deadline - time.monotonic())):
                        return 500, {
                            "error": f"shard {shard} timed out after "
                            f"{timeout_s}s"
                        }
                    reply_id, status, payload = conn.recv()
                    if reply_id == request_id:
                        return status, payload
            except (EOFError, BrokenPipeError, OSError) as exc:
                return 500, {
                    "error": f"shard {shard} unavailable: "
                    f"{type(exc).__name__}: {exc}"
                }

    def _traced_roundtrip(self, tracer, shard, op, name, body):
        with tracer.span("shard.dispatch") as sp:
            if sp:
                sp.set(shard=shard, op=op, graph=name)
            status, payload = self._roundtrip(shard, op, body)
            if sp:
                sp.set(status=status)
        return status, payload

    def route_of(self, name) -> _Route | None:
        with self._routes_lock:
            return self._routes.get(name)

    def fingerprint_of(self, name: str) -> str | None:
        route = self.route_of(name)
        return route.fingerprint if route else None

    # ------------------------------------------------------------------
    def dispatch(
        self, op: str | None, body, tracer: Tracer
    ) -> tuple[int, dict | bytes]:
        """Parse against the op's spec, route by graph, ship the params.

        Parsing before routing gives the inline backend's 400s for a
        malformed request even when its graph is unknown.
        """
        if not isinstance(body, dict):
            return 400, {"error": "request body must be a JSON object"}
        if op == "graphs":
            return self._register(body, tracer)
        try:
            spec, params = parse_request(op, body)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        name = params["graph"]
        route = self.route_of(name)
        if route is None:
            return 404, {"error": f"no graph registered under {name!r}"}
        status, payload = self._traced_roundtrip(
            tracer, route.shard, op, name, params
        )
        if status == 200 and spec.route != "keep":
            with self._routes_lock:
                if spec.route == "drop":
                    self._routes.pop(name, None)
                else:  # "rekey": sticky placement, fresh fingerprint
                    self._routes[name] = _Route(
                        route.shard, payload["fingerprint"]
                    )
        return status, payload

    def _register(self, body: dict, tracer: Tracer) -> tuple[int, dict]:
        """Fingerprint locally, ring-route, ship the body to the shard."""
        try:
            name, graph = parse_registration(body)
        except (TypeError, ValueError) as exc:
            return 400, {"error": str(exc)}
        except OSError as exc:
            return 400, {"error": f"{type(exc).__name__}: {exc}"}
        fingerprint = graph.fingerprint()
        shard = self.ring.route(fingerprint)
        old = self.route_of(name)
        status, payload = self._traced_roundtrip(
            tracer, shard, "graphs", name, body
        )
        if status == 200:
            with self._routes_lock:
                self._routes[name] = _Route(shard, fingerprint)
            # Re-registering a name whose new content hashes to a
            # different shard must evict the stale copy, or /graphs
            # would list it twice.
            if old is not None and old.shard != shard:
                self._roundtrip(old.shard, "evict", {"graph": name})
        return status, payload

    # ------------------------------------------------------------------
    def graphs(self) -> list[dict]:
        rows: list[dict] = []
        for shard in range(self.shards):
            status, payload = self._roundtrip(shard, "__graphs__", None)
            if status == 200:
                for row in payload.get("graphs", ()):
                    row["shard"] = shard
                    rows.append(row)
        rows.sort(key=lambda r: r.get("name", ""))
        return rows

    def stats(self) -> dict:
        return {
            str(shard): self._roundtrip(shard, "__stats__", None)[1]
            for shard in range(self.shards)
        }

    def metrics_payload(self) -> dict:
        return {
            str(shard): self._roundtrip(shard, "__metrics__", None)[1]
            for shard in range(self.shards)
        }

    def close(self) -> None:
        for shard in range(self.shards):
            try:
                # bounded: a shard still busy with a timed-out request
                # is joined, then terminated, below
                self._roundtrip(shard, "__stop__", None, timeout_s=10.0)
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)


# ----------------------------------------------------------------------
# The frontend proper
# ----------------------------------------------------------------------
class Frontend:
    """Admission + coalescing + routing in front of a dispatch backend.

    ``handle(op, body)`` is the single entry point the HTTP handler
    calls for every POST; it returns ``(status, payload, headers)``.
    GET-side observability paths (``/graphs``, ``/stats``,
    ``/metrics``, ``/trace``, ``/frontend``) bypass admission — an
    operator must be able to inspect an overloaded server.
    """

    #: POST ops exempt from admission control: reconfiguring the gate
    #: must work even when the gate itself is saturated.
    EXEMPT_OPS = frozenset({"frontend"})

    def __init__(
        self,
        backend,
        *,
        max_inflight: int = 64,
        max_queue: int = 256,
        queue_timeout_s: float = 2.0,
        retry_after_s: float = 1.0,
        coalesce: bool = True,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.backend = backend
        # inline: share the service's tracer and registry (one /metrics)
        service = getattr(backend, "service", None)
        if tracer is None:
            tracer = service.tracer if service is not None else Tracer()
        if metrics is None:
            metrics = (
                service.metrics if service is not None else MetricsRegistry()
            )
        self.tracer = tracer
        self.metrics = metrics
        self.coalesce = bool(coalesce)
        self.gate = AdmissionGate(
            max_inflight=max_inflight,
            max_queue=max_queue,
            queue_timeout_s=queue_timeout_s,
            retry_after_s=retry_after_s,
        )
        self.coalescer = QueryCoalescer()
        scope = metrics.scope("frontend")
        self._admitted = scope.counter("admitted")
        self._shed = scope.counter("shed")
        self._coalesced_hits = scope.counter("coalesced_hits")
        self._coalesce_leaders = scope.counter("coalesce_leaders")
        self._queue_wait = scope.histogram("queue_wait_s")
        self._inflight_gauge = scope.gauge("inflight")
        self._disconnects = metrics.scope("http").counter("client_disconnects")
        self._started_at = time.time()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def handle(self, op: str, body) -> tuple[int, dict | bytes, dict]:
        """Admit, coalesce, dispatch.  Returns (status, payload, headers);
        a payload is a dict, or the encoded JSON bytes of a result-cached
        reply or a ``/batch`` body."""
        if op in self.EXEMPT_OPS:
            status, payload = self._admin(body)
            return status, payload, {}
        try:
            waited = self._admit()
        except Overloaded as exc:
            self._shed.inc()
            retry = exc.retry_after_s
            payload = {"error": str(exc), "retry_after_s": retry}
            headers = {"Retry-After": str(max(1, math.ceil(retry)))}
            return 429, payload, headers
        self._admitted.inc()
        if waited:
            self._queue_wait.record(waited)
        self._inflight_gauge.set(self.gate.inflight)
        try:
            if op == "batch":
                status, payload = self._handle_batch(body)
            else:
                status, payload = self._dispatch_coalesced(op, body)
            return status, payload, {}
        finally:
            self.gate.release()
            self._inflight_gauge.set(self.gate.inflight)

    def _admit(self) -> float:
        """Acquire an admission slot, tracing time spent queued."""
        gate = self.gate
        # Fast path: no span when a slot is free (keeps the replayed
        # doc traces stable and the hot path allocation-free).
        if gate.try_acquire():
            return 0.0
        with self.tracer.span("queue.wait") as sp:
            waited = gate.acquire()
            if sp:
                sp.set(waited_s=round(waited, 6), depth=gate.waiting)
            return waited

    def _dispatch_coalesced(self, op: str, body) -> tuple[int, dict | bytes]:
        key = self._coalesce_key(op, body)
        if key is None:
            return self.backend.dispatch(op, body, self.tracer)
        leader, flight = self.coalescer.join(key)
        if not leader:
            with self.tracer.span("coalesce.wait") as sp:
                if sp:
                    sp.set(op=op)
                flight.done.wait(timeout=600.0)
            self._coalesced_hits.inc()
            return flight.status, _own(flight.status, flight.payload)
        self._coalesce_leaders.inc()
        status, payload = 500, {"error": "internal error: leader crashed"}
        try:
            status, payload = self.backend.dispatch(op, body, self.tracer)
        finally:
            self.coalescer.finish(key, flight, status, payload)
        return status, _own(status, payload)

    def _coalesce_key(self, op: str, body) -> tuple | None:
        if not (self.coalesce and isinstance(body, dict)):
            return None
        try:
            spec, params = parse_request(op, body)
        except ValueError:
            return None  # dispatch for the real 400
        if not spec.coalesce:
            return None
        fingerprint = self.backend.fingerprint_of(params["graph"])
        if fingerprint is None:
            return None  # unknown graph: dispatch for the real 404
        # coalescable ops take scalar params only, so the values hash
        return (op, fingerprint, tuple(params.values()))

    def _handle_batch(self, body) -> tuple[int, dict | bytes]:
        """``/batch``: dispatch each item, errors inline (with trace_id).

        The body is built from each item's encoding, so a result-cached
        item goes in as its stored bytes."""
        if not isinstance(body, dict):
            return 400, {"error": "request body must be a JSON object"}
        requests = body.get("requests")
        if not isinstance(requests, list):
            return 400, {"error": "batch body needs a 'requests' list"}
        root = self.tracer.current()
        responses = []
        for i, item in enumerate(requests):
            op = None
            if isinstance(item, dict):
                item = dict(item)
                op = item.pop("op", None)
            with self.tracer.span("batch.item") as sp:
                if sp:
                    sp.set(op=op, index=i)
                status, payload = self._dispatch_coalesced(op, item)
                if sp:
                    sp.set(status=status)
            if status >= 400:
                payload["trace_id"] = root.trace_id if root else None
            responses.append(payload)
        items = b", ".join([encode_reply(p) for p in responses])
        return 200, b'{"responses": [' + items + b"]}"

    # ------------------------------------------------------------------
    # Admin + observability
    # ------------------------------------------------------------------
    def _admin(self, body) -> tuple[int, dict]:
        """``POST /frontend``: reconfigure admission limits at runtime.

        The fields are typed like op params; a rejected update changes
        nothing."""
        if not isinstance(body, dict):
            return 400, {"error": "request body must be a JSON object"}
        try:
            self.gate.configure(**body)
        except ValueError as exc:  # BadRequest included
            return 400, {"error": str(exc)}
        return 200, self.describe()

    def describe(self) -> dict:
        """The ``GET /frontend`` body: config + live admission state."""
        desc = {
            "mode": self.backend.mode,
            "shards": self.backend.shards,
            "coalesce": self.coalesce,
        }
        desc.update(self.gate.describe())
        desc.update(
            {
                "admitted": self._admitted.value,
                "shed": self._shed.value,
                "coalesced_hits": self._coalesced_hits.value,
                "coalesce_leaders": self._coalesce_leaders.value,
                "client_disconnects": self._disconnects.value,
            }
        )
        return desc

    def note_client_disconnect(self) -> None:
        self._disconnects.inc()

    def observe_request(
        self, op: str, seconds: float, *, error: bool = False,
        shed: bool = False,
    ) -> None:
        service = getattr(self.backend, "service", None)
        metrics = service.metrics if service is not None else self.metrics
        observe_request(metrics, op, seconds, error=error, shed=shed)

    def graphs(self) -> list[dict]:
        return self.backend.graphs()

    def stats(self) -> dict:
        if self.backend.mode == "inline":
            payload = self.backend.stats()
            payload["frontend"] = self.describe()
            return payload
        return {
            "uptime_s": time.time() - self._started_at,
            "frontend": self.describe(),
            "requests": request_summary(self.metrics),
            "shards": self.backend.stats(),
        }

    def metrics_payload(self) -> dict:
        if self.backend.mode == "inline":
            return self.backend.metrics_payload()
        payload = self.metrics.snapshot()
        payload["shards"] = self.backend.metrics_payload()
        return payload

    def trace_payload(self, limit: int | None) -> dict:
        return {
            "spans": self.tracer.snapshot(limit),
            "stats": self.tracer.stats(),
        }

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "Frontend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
def make_frontend(
    service: CutService | None = None,
    *,
    shards: int = 1,
    service_kwargs: dict | None = None,
    max_inflight: int = 64,
    max_queue: int = 256,
    queue_timeout_s: float = 2.0,
    retry_after_s: float = 1.0,
    coalesce: bool = True,
    tracer: Tracer | None = None,
) -> Frontend:
    """Build a frontend: inline for ``shards <= 1``, sharded otherwise.

    Inline mode reuses the service's tracer and metrics registry, so
    ``frontend.*`` counters land in the same ``GET /metrics`` snapshot
    as everything else.  Sharded mode owns its own tracer/registry
    frontend-side and fans ``/stats`` + ``/metrics`` out per shard.
    """
    if shards <= 1:
        if service is None:
            service = CutService(**(service_kwargs or {}))
        backend = InlineBackend(service)
    elif service is not None:
        raise ValueError(
            "pass service_kwargs (not a live service) in sharded mode"
        )
    else:
        backend = ShardPool(shards, service_kwargs=service_kwargs)
    return Frontend(
        backend,
        max_inflight=max_inflight,
        max_queue=max_queue,
        queue_timeout_s=queue_timeout_s,
        retry_after_s=retry_after_s,
        coalesce=coalesce,
        tracer=tracer,
    )
