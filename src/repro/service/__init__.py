"""Serving layer: a long-lived cut-query engine over the SPAA'22 kernels.

The library answers one question per process; this package turns it
into a system that answers millions.  Amortisation points, in query
order:

* parse + fingerprint once — :class:`GraphStore`;
* boosting trials in parallel — :class:`TrialExecutor` (deterministic:
  worker count never changes the answer);
* repeated s–t queries from one Gomory–Hu tree — :class:`CutOracle`;
* repeated identical queries from an LRU — :class:`LRUCache`.

:class:`CutService` composes the four; :func:`make_server` /
:func:`serve` put a stdlib JSON-over-HTTP front end on top
(``repro-cut serve`` / ``repro-cut query``).  Graphs are not frozen:
:class:`GraphDelta` batches of edge adds/removes/reweights mutate a
resident graph in place (``/mutate`` / ``repro-cut mutate``) with
selective invalidation of the caches above — see
:mod:`repro.service.deltas` and the request-lifecycle walkthrough in
``docs/ARCHITECTURE.md``.  Future scaling PRs (sharding, async I/O,
alternative backends) plug in behind the same :class:`CutService`
surface.
"""

from ..graph import load_any
from .cache import LRUCache
from .deltas import (
    DeltaEffect,
    FingerprintMismatch,
    GraphDelta,
    MutationRecord,
    apply_delta,
    chain_fingerprint,
)
from .executor import TrialExecutor
from .oracle import CutOracle
from .service import CutService
from .store import GraphEntry, GraphStore
from .frontend import (
    AdmissionGate,
    Frontend,
    HashRing,
    InlineBackend,
    Overloaded,
    QueryCoalescer,
    ShardPool,
    make_frontend,
)
from .http import (
    ServiceHTTPServer,
    make_server,
    request_json,
    request_status_json,
    serve,
)

__all__ = [
    "AdmissionGate",
    "CutOracle",
    "CutService",
    "DeltaEffect",
    "FingerprintMismatch",
    "Frontend",
    "GraphDelta",
    "GraphEntry",
    "GraphStore",
    "HashRing",
    "InlineBackend",
    "LRUCache",
    "MutationRecord",
    "Overloaded",
    "QueryCoalescer",
    "ServiceHTTPServer",
    "ShardPool",
    "TrialExecutor",
    "apply_delta",
    "chain_fingerprint",
    "load_any",
    "make_frontend",
    "make_server",
    "request_json",
    "request_status_json",
    "serve",
]
