"""Host gauge: null requests to a server that runs none of the program.

The benchmark runs on shared hosts whose speed drifts between runs: a
fixed pure-Python loop reads 0.020 s or 0.038 s in back-to-back
processes, and a millisecond request's round trip moves with what the
host charges for connections, thread starts and wake-ups as much as
with the interpreter's speed.  A run is too short to average such
phases out, so every timed metric is reported at a fixed reference
host speed: multiplied by ``REFERENCE_S / median(readings)`` (a rate
divided by it), where each reading is one round trip of a null request
to ``gauge_server.py`` -- the stdlib HTTP stack the program's wire
layer is built on, in its own process, doing no work -- timed by the
client between the window's own requests.  Over a 150 s stream of
served requests, per-0.25 s medians of cached ``/stcut`` and ``/kcut``
round trips followed the null round trip with correlation 0.95 (0.65
with a pure-Python loop); their ratio to it varied 4%, the raw times
11-12%.

The gauge runs none of the program's code, so a change to the program
moves a normalized metric exactly as much as the raw one; the raw
values are printed as ``diag raw`` lines.  Readings are taken while a
closed-loop server is idle.
"""

from __future__ import annotations

import statistics

from client import Server

#: seconds one null round trip takes at the reference host speed; a
#: scale constant only (normalized times are "seconds on a host where
#: the null request takes this")
REFERENCE_S = 0.001


class HostGauge:
    """``gauge_server.py`` in a child process; :meth:`read` times one
    null round trip, :meth:`stop` ends the server."""

    def __init__(self, root: str, *, log_path: str):
        self._server = Server(root, log_path=log_path,
                              script="gauge_server.py")

    def read(self) -> float:
        status, _, seconds = self._server.client.post("null", {})
        if status != 200:
            raise RuntimeError(f"gauge server answered HTTP {status}")
        self._server.client.posts.clear()
        return seconds

    def stop(self) -> None:
        self._server.stop()


def factor(readings) -> float:
    """Multiply a time by this (divide a rate) for the reference speed."""
    return REFERENCE_S / statistics.median(readings)

