"""Host-gauge server: a null JSON request over the stdlib HTTP stack.

Serves ``POST`` with the shape of the program's wire layer -- a
``ThreadingHTTPServer`` (one thread per connection), HTTP/1.0, a JSON
body read and decoded, a small JSON reply -- but does no work, so its
round trip measures only what the host charges for a request path:
connection set-up, thread start, cross-process wake-ups and the
interpreter's speed.  It runs no code of the program.  Prints its URL
on one stdout line and serves until its stdin closes.

    python3 perfbench/gauge_server.py
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

REPLY = json.dumps({"ok": True}).encode()


class NullHandler(BaseHTTPRequestHandler):
    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", 0))
        json.loads(self.rfile.read(length) or b"null")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(REPLY)))
        self.end_headers()
        self.wfile.write(REPLY)

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass


def main() -> int:
    server = ThreadingHTTPServer(("127.0.0.1", 0), NullHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    print(f"http://{host}:{port}", flush=True)
    try:
        sys.stdin.read()  # the client closes our stdin to stop us
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
