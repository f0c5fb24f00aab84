"""docs/OBSERVABILITY.md is executable, same as the HTTP API page.

Reuses the parser/matcher from tests/test_http_api_docs.py against a
fresh server: the doc's replayed session exercises the observability
surface specifically (span trees over /trace, trace_id on errors, the
/stats mutation block, the full /metrics catalog), and the pinned
counter values fail the build if instrumentation drifts — e.g. a new
span in the warm-query path changes the documented ring accounting.
"""


import pytest

from repro.service import CutService, make_server
from conftest import serving
from tests.test_http_api_docs import DOC, _request, match_value, parse_examples

OBS_DOC = DOC.with_name("OBSERVABILITY.md")


@pytest.fixture(scope="module")
def server():
    service = CutService()  # the doc session starts from an empty server
    with serving(make_server(service)) as srv:
        yield srv
    service.close()


def test_examples_cover_the_obs_surface():
    examples = parse_examples(OBS_DOC)
    assert len(examples) >= 7
    documented_paths = {p.split("?")[0] for _, p, _, _, _ in examples}
    for path in ("/graphs", "/stcut", "/mutate", "/trace", "/stats",
                 "/metrics"):
        assert path in documented_paths, f"no example for {path}"
    # the error-correlation satellite is demonstrated, not just claimed
    assert any(expect == 404 for _, _, expect, _, _ in examples)


def test_replay_in_document_order(server):
    for method, path, expect, body, documented in parse_examples(OBS_DOC):
        status, actual = _request(server.url, method, path, body)
        assert status == expect, (
            f"{method} {path}: HTTP {status}, documented {expect}"
        )
        match_value(documented, actual, f"{method} {path}")
