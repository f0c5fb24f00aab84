"""docs/HTTP_API.md is executable: every example replays verbatim.

The doc interleaves ``<!-- replay: METHOD /path [expect=NNN] -->``
markers with fenced JSON blocks (request body for POSTs, then the
expected response).  This test parses them, boots a real server, sends
each request **in document order** (the doc is one stateful session),
and matches the live response against the documented one:

* the literal string ``"..."`` matches any value (wall-clock fields);
* a ``"...": "..."`` entry in an object permits undocumented extra
  keys — otherwise objects must carry exactly the documented keys;
* everything else must be equal, recursively.

So a drifted field name, a changed default, or a renumbered counter in
the serving layer fails this test until the doc is updated — the
docs-overhaul satellite's honesty guarantee.
"""

import json
import re
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.service import CutService, make_server
from conftest import serving

DOC = Path(__file__).resolve().parent.parent / "docs" / "HTTP_API.md"

MARKER = re.compile(
    r"<!--\s*replay:\s*(GET|POST)\s+(\S+)(?:\s+expect=(\d+))?\s*-->"
)
FENCE = re.compile(r"```json\n(.*?)```", re.DOTALL)

WILDCARD = "..."


def parse_examples(doc: Path = DOC):
    """Yield (method, path, expect_status, request_body, response).

    ``doc`` defaults to HTTP_API.md; tests/test_observability_docs.py
    reuses the parser (and the matcher below) for OBSERVABILITY.md.
    """
    text = doc.read_text()
    examples = []
    for match in MARKER.finditer(text):
        method, path, expect = match.group(1), match.group(2), match.group(3)
        tail = text[match.end():]
        next_marker = MARKER.search(tail)
        if next_marker:
            tail = tail[: next_marker.start()]
        blocks = [json.loads(m.group(1)) for m in FENCE.finditer(tail)]
        if method == "GET":
            assert len(blocks) == 1, f"{method} {path}: want 1 JSON block"
            body, response = None, blocks[0]
        else:
            assert len(blocks) == 2, f"{method} {path}: want 2 JSON blocks"
            body, response = blocks
        examples.append(
            (method, path, int(expect) if expect else 200, body, response)
        )
    return examples


def match_value(doc, actual, where):
    if doc == WILDCARD:
        return
    if isinstance(doc, dict):
        assert isinstance(actual, dict), f"{where}: expected object"
        open_ended = WILDCARD in doc
        doc_keys = set(doc) - {WILDCARD}
        missing = doc_keys - set(actual)
        assert not missing, f"{where}: missing keys {sorted(missing)}"
        if not open_ended:
            extra = set(actual) - doc_keys
            assert not extra, f"{where}: undocumented keys {sorted(extra)}"
        for key in sorted(doc_keys):
            match_value(doc[key], actual[key], f"{where}.{key}")
        return
    if isinstance(doc, list):
        assert isinstance(actual, list), f"{where}: expected array"
        assert len(doc) == len(actual), (
            f"{where}: length {len(actual)} != documented {len(doc)}"
        )
        for i, (d, a) in enumerate(zip(doc, actual)):
            match_value(d, a, f"{where}[{i}]")
        return
    assert doc == actual, f"{where}: {actual!r} != documented {doc!r}"


@pytest.fixture(scope="module")
def server():
    service = CutService()  # the doc session starts from an empty server
    with serving(make_server(service)) as srv:
        yield srv
    service.close()


def _request(url, method, path, body):
    full = url + path
    if method == "GET":
        req = urllib.request.Request(full)
    else:
        req = urllib.request.Request(
            full,
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_examples_exist():
    examples = parse_examples()
    assert len(examples) >= 10
    documented_paths = {p for _, p, _, _, _ in examples}
    # every endpoint of the wire protocol appears with an example
    for path in ("/healthz", "/graphs", "/stats", "/metrics", "/trace",
                 "/mincut", "/kcut", "/stcut", "/kernelize", "/mutate",
                 "/batch", "/evict", "/frontend", "/gomoryhu",
                 "/sparsestcut"):
        assert path in documented_paths, f"no example for {path}"


def test_orientation_table_lists_exactly_the_served_ops():
    """The POST rows of the quick-orientation table are the ops table
    (repro.service.ops.OPS) plus registration, /batch and /frontend."""
    from repro.service.ops import OPS

    rows = re.findall(r"^\| POST \| `(/\w+)` \|", DOC.read_text(), re.M)
    assert len(rows) == len(set(rows)), f"duplicate rows: {rows}"
    assert set(rows) == {f"/{op}" for op in OPS} | {
        "/graphs", "/batch", "/frontend"
    }


def test_replay_in_document_order(server):
    for method, path, expect, body, documented in parse_examples():
        status, actual = _request(server.url, method, path, body)
        assert status == expect, (
            f"{method} {path}: HTTP {status}, documented {expect}"
        )
        match_value(documented, actual, f"{method} {path}")
