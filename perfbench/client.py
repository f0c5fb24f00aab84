"""Server process control and a single-threaded, closed-loop HTTP client."""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
#: seconds a server may take to print its URL (imports, shard spawn)
START_TIMEOUT_S = 60.0
#: seconds one request may take before the run is abandoned
REQUEST_TIMEOUT_S = 120.0


def _descendants(pid: int) -> list[int]:
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        for child in parents.get(todo.pop(), ()):
            out.append(child)
            todo.append(child)
    return out


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """A server script of this directory in a child process, by default
    the program's (``server.py``); :meth:`stop` ends it."""

    def __init__(self, root: str, *, log_path: str, shards: int = 1,
                 trace_dir: str | None = None, script: str = "server.py"):
        self.spawned_at = time.perf_counter()
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [sys.executable, os.path.join(HERE, script)]
        if script == "server.py":
            cmd += ["--shards", str(shards)]
        if trace_dir is not None:
            cmd += ["--trace-dir", trace_dir]
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self._log,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline().decode().strip() if ready else ""
        if not line.startswith("http://"):
            self.stop()
            raise RuntimeError(f"server did not start (see {log_path})")
        host, port = line[len("http://"):].rsplit(":", 1)
        self.client = Client(host, int(port))

    def rss_peak_mb(self) -> float:
        """Summed peak RSS (VmHWM) of the server and all its children."""
        pids = [self.proc.pid] + _descendants(self.proc.pid)
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        """Close stdin (the shutdown signal) and wait for the whole tree."""
        children = _descendants(self.proc.pid) if self.proc.poll() is None else []
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pid in children:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and _alive(pid):
                time.sleep(0.05)
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self.proc.stdout.close()
        self._log.close()


@dataclass
class Client:
    """One request at a time over a fresh connection, as the server's
    HTTP/1.0 handler closes each one; every POST is logged for matching
    against the server's own per-request log.

    Requests go over a plain socket: the client's own CPU time is part
    of every round trip, and ``http.client`` would triple it.
    """

    host: str
    port: int
    #: (op, round-trip seconds, response bytes) of every POST, in order
    posts: list = field(default_factory=list)

    def _exchange(self, request: bytes) -> tuple[int, bytes]:
        chunks = []
        with socket.create_connection(
            (self.host, self.port), timeout=REQUEST_TIMEOUT_S
        ) as sock:
            sock.sendall(request)
            while True:
                chunk = sock.recv(1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        return int(head.split(None, 2)[1]), body

    def post(self, op: str, body: dict) -> tuple[int, bytes, float]:
        data = json.dumps(body).encode()
        request = (
            f"POST /{op} HTTP/1.0\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n"
        ).encode() + data
        t0 = time.perf_counter()
        status, raw = self._exchange(request)
        elapsed = time.perf_counter() - t0
        self.posts.append((op, elapsed, len(raw)))
        return status, raw, elapsed

    def call(self, op: str, body: dict) -> dict:
        """Untimed POST that must succeed (set-up and checkpoints)."""
        status, raw, _ = self.post(op, body)
        payload = json.loads(raw)
        if status != 200:
            raise RuntimeError(f"/{op} failed with {status}: {payload}")
        return payload

    def get(self, path: str) -> dict:
        status, raw = self._exchange(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        if status != 200:
            raise RuntimeError(f"GET {path} failed with {status}: {raw[:200]!r}")
        return json.loads(raw)
