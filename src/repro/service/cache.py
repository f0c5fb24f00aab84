"""Thread-safe LRU cache with hit/miss/eviction counters.

The serving layer caches two kinds of expensive artifacts: whole query
results (keyed by graph fingerprint + algorithm + params + seed) and
per-graph Gomory–Hu trees.  Both need the same small primitive — a
bounded mapping with least-recently-used eviction whose behaviour is
observable through ``/stats`` — so it lives here once.

Stdlib only (``collections.OrderedDict`` + a lock); safe under the
``ThreadingHTTPServer`` front end where handler threads share one
:class:`~repro.service.service.CutService`.

Counters live on a :class:`~repro.obs.metrics.MetricsRegistry` scope
(``results.hits`` etc. in ``GET /metrics``); a cache constructed
without one gets a private scope, so standalone use needs no wiring.
The ``bytes`` gauge sums ``weigh(value)`` over the resident entries
(the result cache weighs each entry by its stored JSON encoding).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterator

from ..obs.metrics import MetricsRegistry, MetricsScope

_MISSING = object()


class LRUCache:
    """Bounded mapping evicting the least-recently-used entry.

    ``capacity <= 0`` disables caching entirely (every ``get`` misses,
    ``put`` is a no-op) — useful for benchmarking cold paths.

    >>> cache = LRUCache(capacity=2)
    >>> cache.put("a", 1); cache.put("b", 2)
    >>> cache.get("a")                 # refreshes "a"; "b" is now LRU
    1
    >>> cache.put("c", 3)              # evicts "b"
    >>> "b" in cache, sorted(cache)
    (False, ['a', 'c'])
    >>> cache.stats()["evictions"]
    1
    """

    def __init__(
        self,
        capacity: int = 128,
        *,
        metrics: MetricsScope | None = None,
        weigh: Callable[[Any], int] | None = None,
    ):
        self.capacity = int(capacity)
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        if metrics is None:
            metrics = MetricsRegistry().scope("cache")
        self._hits = metrics.counter("hits")
        self._misses = metrics.counter("misses")
        self._evictions = metrics.counter("evictions")
        self._weigh = weigh if weigh is not None else (lambda value: 0)
        self._bytes = 0
        self._bytes_gauge = metrics.gauge("bytes")
        self._bytes_gauge.set(0)

    # counters stay readable as plain ints (``cache.hits``) — the
    # pre-registry attribute contract the oracle and tests rely on
    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, refreshing its recency on a hit."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self._misses.inc()
                return default
            self._data.move_to_end(key)
            self._hits.inc()
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/overwrite ``key``, evicting the LRU entry if full."""
        if self.capacity <= 0:
            return
        weigh = self._weigh
        with self._lock:
            old = self._data.get(key, _MISSING)
            if old is not _MISSING:
                self._bytes -= weigh(old)
                self._data.move_to_end(key)
            self._data[key] = value
            self._bytes += weigh(value)
            while len(self._data) > self.capacity:
                _, evicted = self._data.popitem(last=False)
                self._bytes -= weigh(evicted)
                self._evictions.inc()
            self._bytes_gauge.set(self._bytes)

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Remove and return ``key``'s value (no hit/miss accounting).

        The mutation path's selective-invalidation sweep uses this to
        drop or re-key entries a delta touched; removals are not
        evictions (``evictions`` counts capacity pressure only).
        """
        with self._lock:
            value = self._data.pop(key, _MISSING)
            if value is _MISSING:
                return default
            self._bytes -= self._weigh(value)
            self._bytes_gauge.set(self._bytes)
            return value

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __iter__(self) -> Iterator[Hashable]:
        with self._lock:
            return iter(list(self._data))

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._bytes = 0
            self._bytes_gauge.set(0)

    def stats(self) -> dict:
        """Counters as a JSON-able dict (rendered by ``/stats``)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._data),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "bytes": self._bytes,
            }
