"""Benchmark server: the served path in a process of its own.

Built through the public ``make_frontend`` / ``make_server`` API the way
``repro-cut serve`` builds it, but quiet (no per-request stderr log) and
with the program's own tracer disabled.  Prints its URL on one stdout
line, serves until its stdin closes, then shuts the frontend (and any
shard workers) down.

With ``--trace-dir`` the per-layer wrappers of :mod:`layers` are
installed in this process and, through the shard entry point, in every
shard worker; each process writes its trace files there on exit.

Run from the repository root with ``src`` on ``PYTHONPATH``::

    PYTHONPATH=src python3 perfbench/server.py --shards 2
"""

from __future__ import annotations

import argparse
import os
import sys
import threading

import layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()

    recorder = None
    if args.trace_dir:
        os.environ[layers.TRACE_DIR_ENV] = os.path.abspath(args.trace_dir)
        recorder = layers.Recorder()
        layers.install(recorder)
        from repro.service import frontend as frontend_module

        frontend_module._shard_main = layers.traced_shard_main

    from repro.obs import Tracer
    from repro.service import CutService, make_frontend
    from repro.service.http import make_server

    tracer = Tracer(enabled=False)
    service_kwargs = dict(workers=1, preprocess="off")
    if args.shards > 1:
        frontend = make_frontend(
            shards=args.shards, service_kwargs=service_kwargs, tracer=tracer
        )
    else:
        frontend = make_frontend(
            CutService(tracer=tracer, **service_kwargs), tracer=tracer
        )
    server = make_server(frontend=frontend, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.url, flush=True)
    try:
        sys.stdin.read()  # the client closes our stdin to stop us
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
        frontend.close()
        if recorder is not None:
            recorder.dump(os.environ[layers.TRACE_DIR_ENV], "main")
    return 0


if __name__ == "__main__":
    sys.exit(main())
