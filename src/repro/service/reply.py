"""Reply encoding: where served payloads become JSON bytes.

A result-cached payload is encoded once, when it enters the result
cache (:class:`CachedResult`), and every reply built from it — the miss
that computed it and each later hit — is written by splicing the
caller's graph name and the ``cached`` flag around those stored bytes.
An n×n ``/gomoryhu`` matrix is then encoded once per cached result, not
once per reply.  Everything else is encoded by :func:`encode_reply`
when it goes on the wire.

The invariant: every reply body is byte-identical to
``json.dumps(payload).encode()`` of the payload a library caller gets
(``tests/test_wire_encoding.py``).  The splice keeps that exact because
``json.dumps`` writes a dict's items in insertion order with ``", "``
and ``": "`` separators, and a cached reply's payload is
``{"graph": name, **fields, "cached": flag}``:

>>> result = CachedResult.of({"fingerprint": "ab", "weight": 1.5})
>>> reply = CachedReply(result, 'a"b', cached=True)
>>> reply
{'graph': 'a"b', 'fingerprint': 'ab', 'weight': 1.5, 'cached': True}
>>> reply.encode() == json.dumps(reply).encode()
True
"""

from __future__ import annotations

import json
from typing import NamedTuple

_GRAPH = b'{"graph": '
_HIT = b', "cached": true}'
_MISS = b', "cached": false}'


class CachedResult(NamedTuple):
    """One result-cache entry: a payload without ``graph`` and
    ``cached``, and its JSON encoding."""

    fields: dict
    body: bytes

    @classmethod
    def of(cls, fields: dict) -> "CachedResult":
        """Encode ``fields`` (non-empty) once."""
        return cls(fields, json.dumps(fields).encode())


class CachedReply(dict):
    """A result-cached op's payload served to ``graph``'s caller, as a
    ``dict`` every caller reads like any other, that also knows the
    cache entry it was built from.

    :func:`~repro.service.frontend.safe_dispatch` sends it as
    :meth:`encode`, so the shard hop and the wire carry the stored
    bytes.  Copies and pickles are plain dicts.
    """

    __slots__ = ("_result",)

    def __init__(self, result: CachedResult, graph: str, cached: bool):
        super().__init__(graph=graph, **result.fields, cached=cached)
        self._result = result

    def encode(self) -> bytes:
        """``json.dumps`` of this payload, from the stored bytes: one
        copy of the body, no re-encoding."""
        return b"".join((
            _GRAPH, json.dumps(self["graph"]).encode(), b", ",
            memoryview(self._result.body)[1:-1],
            _HIT if self["cached"] else _MISS,
        ))

    def __reduce__(self):
        return dict, (dict(self),)


def encode_reply(payload: dict | bytes) -> bytes:
    """The body of one reply: already-encoded bytes as they are, any
    other payload through ``json.dumps``."""
    if isinstance(payload, bytes):
        return payload
    return json.dumps(payload).encode()
