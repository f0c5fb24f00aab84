"""The benchmark workloads: inputs, request streams and checks.

Every workload drives a real server from one closed-loop client: each
request is sent only after the previous reply arrived.  Inputs are the
VieCut instance families of Henzinger-Noe-Schulz-Strash (planted,
near-regular expander, clustered community).  Their shapes form a fixed
corpus (one generator seed per slot, like a benchmark instance set);
the run's seed relabels every graph by a random permutation and drives
every random choice of the request stream (pairs, mutation targets).
So each seed sends different inputs -- new labels, new fingerprints, new
cut sides -- of the same difficulty, and a run's medians do not depend
on which instances the seed happened to draw.  The server only ever
sees edge lists.

* ``serve-warm`` -- two shards; a resident corpus whose oracles and
  results were built in set-up.  Only the wire, frontend, shard hop,
  service skeleton, result cache and oracle walks run; no solver does.
* ``mutate-stream`` -- inline server; small resident graphs take a
  stream of increase-only adds and dyadic halvings, each followed by
  reads, so the store's delta path, the invalidation sweep, Gomory-Hu
  repair and kernel refresh sit on the request path, beside solves
  (``core``, ``flow``, ``analysis.sparsest``) that caches cannot answer.

Each workload issues every op class of the end-to-end metric set, in a
fixed round-robin order, so host-speed drift hits every op alike.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from repro.workloads import planted_cut
from repro.workloads.viecut import clustered_community, near_regular_expander

import host
import verify

#: ops whose latency is reported, in the order metrics are printed
OPS = ("upload", "mincut", "kcut", "sparsestcut", "gomoryhu", "stcut",
       "batch", "mutate")

#: /batch size; every item is an stcut
BATCH_ITEMS = 8

#: timed requests between two host-gauge readings
GAUGE_EVERY = 8


#: generator seed of corpus slot ``i`` is ``CORPUS_SEED + i``
CORPUS_SEED = 2022


def make_graph(family: str, n: int, slot: int, rng: random.Random | None = None):
    """Corpus slot ``slot``: one instance of a VieCut family at a constant
    expected degree, relabeled by a permutation drawn from ``rng``.

    Vertices keep their generated order under the new labels, so the
    instance's difficulty is the same for every permutation.
    """
    seed = CORPUS_SEED + slot
    if family == "planted":
        graph = planted_cut(n, seed=seed).graph
    elif family == "expander":
        graph = near_regular_expander(n, 4, seed=seed)
    elif family == "clustered":
        graph = clustered_community(n, intra_p=min(1.0, 24 / n), seed=seed).graph
    else:
        raise ValueError(f"unknown family {family!r}")
    if rng is None:
        return graph
    labels = list(range(n))
    rng.shuffle(labels)
    label = dict(zip(graph.vertices(), labels))
    return verify.build_graph(
        [label[v] for v in graph.vertices()],
        [(label[u], label[v], w) for u, v, w in graph.edges()],
    )


def upload_body(name: str, graph) -> dict:
    return {
        "name": name,
        "vertices": list(graph.vertices()),
        "edges": [[u, v, w] for u, v, w in graph.edges()],
    }


def random_pair(rng: random.Random, n: int) -> tuple[int, int]:
    s = rng.randrange(n)
    return s, (s + 1 + rng.randrange(n - 1)) % n


@dataclass
class Window:
    """A stretch of the timed phase, summarized on its own."""

    samples: dict = field(default_factory=lambda: {op: [] for op in OPS})
    completed: int = 0
    #: timed seconds, host-gauge readings left out
    wall_s: float = 0.0
    #: host-gauge readings, and the seconds spent taking them
    gauge_s: list = field(default_factory=list)
    gauge_spent_s: float = 0.0

    def factor(self) -> float:
        return host.factor(self.gauge_s)


class Meter:
    """Timed requests of one phase: samples, outcomes, deferred checks.

    The phase is a list of segments; each boundary is a ``GET /stats``,
    which the traced server also uses to snapshot its layer counters.
    Segments split into windows (each ends a segment or calls
    :meth:`split`) of a fixed number of workload cycles, the scope of
    one host-gauge factor.  Every ``GAUGE_EVERY`` requests the host
    gauge (``host.py``) is read into the current window (untimed: its time is left out of the window's
    ``wall_s``).
    A check runs after the phase, so verification never adds to a
    sample; a failed request or a wrong answer counts as a failed op.
    """

    def __init__(self, client, gauge=None):
        self.client = client
        self.gauge = gauge
        self.samples: dict[str, list] = {op: [] for op in OPS}
        self.attempted: dict[str, int] = {op: 0 for op in OPS}
        self.failed: dict[str, int] = {op: 0 for op in OPS}
        self.errors: list[str] = []
        self.completed = 0
        self.windows: list[Window] = []
        self.stats: list[dict] = []
        #: indices into ``client.posts`` of timed requests
        self.timed_posts: list[int] = []
        #: payload "rounds" summed over uncached timed solves
        self.rounds_charged = 0
        self._checks: list = []
        self._window_start = None

    @property
    def window(self) -> Window:
        return self.windows[-1]

    def begin(self) -> None:
        self.stats.append(self.client.get("/stats"))
        self._open()

    def split(self) -> None:
        """Close the current window and open the next (same segment)."""
        self._close()
        self._open()

    def end(self) -> None:
        self._close()
        self.stats.append(self.client.get("/stats"))

    def _open(self) -> None:
        self.windows.append(Window())
        self._window_start = time.perf_counter()

    def _close(self) -> None:
        window = self.window
        window.wall_s = (time.perf_counter() - self._window_start
                         - window.gauge_spent_s)
        self._window_start = None

    def elapsed(self) -> float:
        """Seconds of the phase so far, host-gauge readings included."""
        return (sum(w.wall_s + w.gauge_spent_s for w in self.windows[:-1])
                + time.perf_counter() - self._window_start)

    def request(self, op: str, path: str, body: dict):
        """One timed request; returns the raw reply or None on an error."""
        status, raw, seconds = self.client.post(path, body)
        self.timed_posts.append(len(self.client.posts) - 1)
        self.attempted[op] += 1
        if len(self.timed_posts) % GAUGE_EVERY == 0:
            t0 = time.perf_counter()
            self.window.gauge_s.append(self.gauge.read())
            self.window.gauge_spent_s += time.perf_counter() - t0
        if status != 200:
            self.fail(op, f"/{path} -> HTTP {status}: {raw[:200]!r}")
            return None
        self.completed += 1
        self.window.completed += 1
        self.samples[op].append(seconds)
        self.window.samples[op].append(seconds)
        return raw

    def defer(self, op: str, check) -> None:
        """Queue ``check() -> error | None`` for after the timed phase."""
        self._checks.append((op, check))

    def fail(self, op: str, message: str) -> None:
        self.failed[op] = self.failed.get(op, 0) + 1
        self.errors.append(message)

    def run_checks(self) -> None:
        for op, check in self._checks:
            try:
                error = check()
            except (KeyError, TypeError, ValueError) as exc:
                error = f"{op}: malformed reply ({type(exc).__name__}: {exc})"
            if error:
                self.fail(op, error)
        self._checks = []

    def note_rounds(self, payload: dict) -> None:
        if not payload.get("cached"):
            self.rounds_charged += int(payload.get("rounds", 0))


def _defer_json(meter: Meter, op: str, raw, check) -> None:
    """Decode ``raw`` after the phase and run ``check(payload)``."""
    if raw is not None:
        meter.defer(op, lambda: check(json.loads(raw)))


def _stcut_checks(meter, op, raw, get_ref, pairs) -> None:
    def check(payload):
        items = payload["responses"] if op == "batch" else [payload]
        if len(items) != len(pairs):
            return f"{op}: {len(items)} answers for {len(pairs)} pairs"
        ref = get_ref()
        for item, (s, t) in zip(items, pairs):
            error = verify.check_stcut(item, ref, s, t)
            if error:
                return error
        return None

    _defer_json(meter, op, raw, check)


def _stcut(meter, rng, name, n, get_ref) -> None:
    """One timed stcut; ``get_ref()`` gives the reference at check time."""
    s, t = random_pair(rng, n)
    raw = meter.request("stcut", "stcut", {"graph": name, "s": s, "t": t})
    _stcut_checks(meter, "stcut", raw, get_ref, [(s, t)])


def _batch(meter, rng, name, n, get_ref) -> None:
    pairs = [random_pair(rng, n) for _ in range(BATCH_ITEMS)]
    body = {"requests": [
        {"op": "stcut", "graph": name, "s": s, "t": t} for s, t in pairs
    ]}
    raw = meter.request("batch", "batch", body)
    _stcut_checks(meter, "batch", raw, get_ref, pairs)


def _check_once(meter, op, key, raw, first: dict, check) -> None:
    """Fully check the first cached reply per (op, graph); later replies
    must be byte-identical to it (decoding each ~0.7 MB /gomoryhu reply
    would slow the client), else they are checked in full too."""
    if raw is None:
        return
    seen = first.get((op, key))
    if seen is None:
        first[(op, key)] = raw
        _defer_json(meter, op, raw, check)
    elif raw != seen:
        _defer_json(meter, op, raw, check)


# ----------------------------------------------------------------------
# serve-warm
# ----------------------------------------------------------------------
class ServeWarm:
    """A warm, sharded corpus: the serving layers carry the request."""

    shards = 2
    #: resident graphs whose oracles and /gomoryhu results are built in
    #: set-up; an n=256 /gomoryhu reply is ~0.7 MB of JSON
    CORPUS = (("planted", 256), ("planted", 256), ("clustered", 256),
              ("clustered", 256))
    #: round-robin order; stcut is every other request
    CYCLE = ("stcut", "batch", "stcut", "gomoryhu", "stcut", "mincut",
             "stcut", "kcut", "stcut", "sparsestcut", "stcut", "upload",
             "stcut", "mutate")
    #: cycles per window (~1.5 s, ~40 host-gauge readings)
    WINDOW = 24
    #: cached solves on a small resident graph (answers from the result
    #: cache; computed once in set-up)
    SOLVES = {
        "mincut": {"trials": 2, "seed": 0, "preprocess": "off"},
        "kcut": {"k": 3, "trials": 1, "seed": 0, "preprocess": "off"},
        "sparsestcut": {"trials": 1, "seed": 0},
    }

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.corpus = [
            (f"g{i}", make_graph(family, n, i, rng))
            for i, (family, n) in enumerate(self.CORPUS)
        ]
        self.refs = {name: verify.Reference(g) for name, g in self.corpus}
        self.solve = make_graph("planted", 64, len(self.CORPUS), rng)
        solve_ref = verify.Reference(self.solve)
        k = self.SOLVES["kcut"]["k"]
        self.solve_checks = {
            "mincut": lambda p: verify.check_mincut(p, solve_ref),
            "kcut": lambda p: verify.check_kcut(p, self.solve, k),
            "sparsestcut": lambda p: verify.check_sparsest(p, self.solve),
        }
        #: re-uploaded and mutated in the timed phase; never queried, so
        #: writes touch no resident oracle or cached result
        self.scratch = make_graph("expander", 64, len(self.CORPUS) + 1, rng)
        self.scratch_edges = [(u, v) for u, v, _ in self.scratch.edges()]
        self.scratch_fp = None

    def setup(self, client) -> None:
        for name, graph in self.corpus:
            client.call("graphs", upload_body(name, graph))
            client.call("gomoryhu", {"graph": name})
        client.call("graphs", upload_body("solve", self.solve))
        for op, params in self.SOLVES.items():
            client.call(op, {"graph": "solve", **params})
        entry = client.call("graphs", upload_body("scratch", self.scratch))
        self.scratch_fp = entry["fingerprint"]
        # warm-up: every request kind once, untimed
        u, v = self.scratch_edges[0]
        client.call("mutate", {"graph": "scratch", "adds": [[u, v, 1.0]]})
        client.call("graphs", upload_body("scratch", self.scratch))
        for name, _ in self.corpus:
            client.call("stcut", {"graph": name, "s": 0, "t": 1})
            client.call("batch", {"requests": [
                {"op": "stcut", "graph": name, "s": 1, "t": 2}]})

    def run(self, meter: Meter, seconds: float) -> None:
        rng = random.Random(self.seed + 1)
        counts = {op: 0 for op in OPS}
        first: dict = {}
        cycle = 0
        meter.begin()
        while True:
            for op in self.CYCLE:
                self._issue(meter, rng, op, counts[op], first)
                counts[op] += 1
            cycle += 1
            if cycle % self.WINDOW == 0:
                if meter.elapsed() >= seconds:
                    break
                meter.split()
        meter.end()

    def _issue(self, meter, rng, op, count, first) -> None:
        name, graph = self.corpus[count % len(self.corpus)]
        ref = self.refs[name]
        if op == "stcut":
            _stcut(meter, rng, name, graph.num_vertices, lambda: ref)
        elif op == "batch":
            _batch(meter, rng, name, graph.num_vertices, lambda: ref)
        elif op == "gomoryhu":
            raw = meter.request(op, op, {"graph": name})
            _check_once(meter, op, name, raw, first,
                        lambda p: verify.check_gomoryhu(p, ref))
        elif op in self.SOLVES:
            raw = meter.request(op, op, {"graph": "solve", **self.SOLVES[op]})
            _check_once(meter, op, "solve", raw, first, self.solve_checks[op])
        elif op == "upload":
            raw = meter.request(op, "graphs", upload_body("scratch", self.scratch))
            fp = self.scratch_fp
            _defer_json(meter, op, raw, lambda p: verify.check_upload(
                p, self.scratch, fingerprint=fp))
        elif op == "mutate":
            u, v = self.scratch_edges[rng.randrange(len(self.scratch_edges))]
            raw = meter.request(op, op, {"graph": "scratch", "adds": [[u, v, 1.0]]})
            _defer_json(meter, op, raw,
                        lambda p: verify.check_mutate(p, self.scratch, 1))


# ----------------------------------------------------------------------
# mutate-stream
# ----------------------------------------------------------------------
class Mirror:
    """The client's copy of a resident graph, one version per generation."""

    def __init__(self, name: str, graph):
        self.name = name
        self.vertices = list(graph.vertices())
        self.n = len(self.vertices)
        self.edges = [(u, v) for u, v, _ in graph.edges()]
        self.weights = [w for _, _, w in graph.edges()]
        self.generation = 0
        self.drawn = 0
        self._refs: dict[int, verify.Reference] = {}
        self._versions = {0: tuple(self.weights)}

    def graph(self, generation: int | None = None):
        weights = self._versions[
            self.generation if generation is None else generation]
        return verify.build_graph(
            self.vertices,
            [(u, v, w) for (u, v), w in zip(self.edges, weights)])

    def ref_at(self, generation: int):
        """A zero-argument getter of the reference at ``generation``,
        built on first use (checks run after the timed phase).  A
        generation sees a few pairs, so each is one max-flow."""

        def get() -> verify.Reference:
            if generation not in self._refs:
                self._refs[generation] = verify.Reference(
                    self.graph(generation), pairs_from_tree=False)
            return self._refs[generation]

        return get

    def body(self, name: str) -> dict:
        return upload_body(name, self.graph())

    def mutation(self, rng: random.Random) -> tuple[dict, int, float]:
        """A delta on a random edge: every fourth one a dyadic halving
        (which keeps every weight positive, so the graph never
        disconnects), the others increase-only adds.  The fixed 3:1
        pattern keeps the repair share the same in every run."""
        e = rng.randrange(len(self.edges))
        u, v = self.edges[e]
        self.drawn += 1
        if self.drawn % 4 == 0:
            new = self.weights[e] / 2
            return {"graph": self.name, "reweights": [[u, v, new]]}, e, new
        new = self.weights[e] + 0.5
        return {"graph": self.name, "adds": [[u, v, 0.5]]}, e, new

    def apply(self, e: int, weight: float) -> None:
        self.weights[e] = weight
        self.generation += 1
        self._versions[self.generation] = tuple(self.weights)


class MutateStream:
    """Writes beside reads on warm graphs: the delta path carries it."""

    shards = 1
    #: one family for both graphs: a planted graph's safe kernel often
    #: solves min cut outright (~5 ms) where a clustered one runs trials
    #: (~150 ms), and a 50/50 mix of the two would put every median on
    #: the boundary between them
    GRAPHS = (("clustered", 64), ("clustered", 64))
    #: a small resident graph no write touches: the stream's kcut is a
    #: result-cache hit on it (solved in set-up), and each sparsestcut
    #: asks it for a fresh seeded attempt, so every one is a real solve
    #: (~60 ms) -- short enough that the writes and their reads, not
    #: two solvers, set the stream's pace
    STATIC = ("expander", 32)
    #: (mutate, stcut) pairs per cycle, before the cycle's other reads
    PAIRS = 6
    #: cycles per window (~8 s); each window ends with a cold re-upload
    #: checkpoint (untimed)
    WINDOW = 20
    MINCUT = {"trials": 2, "seed": 0, "preprocess": "safe"}
    KCUT = {"k": 3, "trials": 1, "seed": 0, "preprocess": "safe"}
    SPARSEST = {"trials": 1}

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        #: sparsestcut requests so far: the next one's seed
        self.attempts = 0
        self.graphs = [
            (f"m{i}", make_graph(family, n, i, rng))
            for i, (family, n) in enumerate(self.GRAPHS)
        ]
        self.static = make_graph(*self.STATIC, len(self.GRAPHS), rng)
        self.mirrors: list[Mirror] = []

    def setup(self, client) -> None:
        self.mirrors = [Mirror(name, g) for name, g in self.graphs]
        for mirror in self.mirrors:
            client.call("graphs", mirror.body(mirror.name))
            client.call("gomoryhu", {"graph": mirror.name})
            client.call("mincut", {"graph": mirror.name, **self.MINCUT})
            client.call("stcut", {"graph": mirror.name, "s": 0, "t": 1})
            client.call("batch", {"requests": [
                {"op": "stcut", "graph": mirror.name, "s": 1, "t": 2}]})
        client.call("graphs", upload_body("static", self.static))
        client.call("kcut", {"graph": "static", **self.KCUT})
        client.call("sparsestcut", {"graph": "static", **self.SPARSEST,
                                    "seed": 0})
        self.attempts = 0
        client.call("graphs", self.mirrors[0].body("snap"))

    def run(self, meter: Meter, seconds: float) -> None:
        rng = random.Random(self.seed + 1)
        first: dict = {}
        cycle = 0
        meter.begin()
        while True:
            self._cycle(meter, rng, self.mirrors[cycle % len(self.mirrors)], first)
            cycle += 1
            if cycle % self.WINDOW == 0:
                done = meter.elapsed() >= seconds
                meter.end()
                self._checkpoint(meter)
                if done:
                    break
                meter.begin()

    def _cycle(self, meter, rng, mirror: Mirror, first: dict) -> None:
        name, n = mirror.name, mirror.n
        for _ in range(self.PAIRS):
            self._mutate(meter, rng, mirror)
            _stcut(meter, rng, name, n, mirror.ref_at(mirror.generation))
        before = mirror.ref_at(mirror.generation)
        _batch(meter, rng, name, n, before)
        raw = meter.request("mincut", "mincut", {"graph": name, **self.MINCUT})
        if raw is not None:
            meter.note_rounds(json.loads(raw))
        _defer_json(meter, "mincut", raw,
                    lambda p: verify.check_mincut(p, before()))
        # a write right before the all-pairs read, so /gomoryhu always
        # runs on a masked or repair-pending oracle
        self._mutate(meter, rng, mirror)
        after = mirror.ref_at(mirror.generation)
        raw = meter.request("gomoryhu", "gomoryhu", {"graph": name})
        _defer_json(meter, "gomoryhu", raw,
                    lambda p: verify.check_gomoryhu(p, after()))
        raw = meter.request("kcut", "kcut", {"graph": "static", **self.KCUT})
        _check_once(meter, "kcut", "static", raw, first,
                    lambda p: verify.check_kcut(p, self.static, self.KCUT["k"]))
        self.attempts += 1
        raw = meter.request("sparsestcut", "sparsestcut", {
            "graph": "static", **self.SPARSEST, "seed": self.attempts})
        _defer_json(meter, "sparsestcut", raw,
                    lambda p: verify.check_sparsest(p, self.static))
        raw = meter.request("upload", "graphs", mirror.body("snap"))
        _defer_json(meter, "upload", raw,
                    lambda p: verify.check_upload(p, after().graph))

    @staticmethod
    def _mutate(meter, rng, mirror: Mirror) -> None:
        body, e, new = mirror.mutation(rng)
        raw = meter.request("mutate", "mutate", body)
        if raw is None:
            return
        mirror.apply(e, new)
        gen, ref = mirror.generation, mirror.ref_at(mirror.generation)
        _defer_json(meter, "mutate", raw,
                    lambda p: verify.check_mutate(p, ref().graph, gen))

    def _checkpoint(self, meter: Meter) -> None:
        """Untimed: each warm answer must equal a cold re-upload's."""
        client = meter.client
        for mirror in self.mirrors:
            cold = "cold-" + mirror.name
            client.call("graphs", mirror.body(cold))
            for op, params in (("gomoryhu", {}), ("mincut", self.MINCUT)):
                warm_p = client.call(op, {"graph": mirror.name, **params})
                cold_p = client.call(op, {"graph": cold, **params})
                keys = ("matrix", "tree") if op == "gomoryhu" else ("weight", "side")
                meter.attempted["checkpoint"] = meter.attempted.get("checkpoint", 0) + 1
                if any(warm_p[k] != cold_p[k] for k in keys):
                    meter.fail("checkpoint", f"{op} on {mirror.name} at generation "
                               f"{mirror.generation} differs from a cold re-upload")
            client.call("evict", {"graph": cold})
