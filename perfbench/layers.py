"""Per-layer tracing of the served path, installed from outside the program.

The benchmark's traced run wraps public callables of ``repro`` in every
server process -- the frontend process and each shard worker -- without
editing the program.  Each wrapper is patched at the name its caller
looks it up under (a module global such as
``repro.service.executor.ampc_min_cut``, or a class attribute such as
``DinicSolver.max_flow``), so the span fires exactly when the served
path crosses that layer boundary.  A rename in the program makes
:func:`install` fail loudly instead of silently measuring nothing, and
the zero-fire guard in ``run.py`` catches a binding the path bypasses.

Spans nest per thread (name, start, end, parent); self time is a span's
duration minus the time its direct child spans cover.  Per-name
aggregates (calls, total seconds, self seconds) are updated as spans
close.  ``GET /stats`` marks phase boundaries: each process snapshots
its aggregates whenever it serves a ``/stats`` call, so the client
recovers the timed phase as the difference of two snapshots.  At exit
each process writes its snapshots, its ``Frontend.handle`` log and a
bounded list of raw spans under the trace directory.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time

#: Environment variable carrying the trace directory into shard workers.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: Raw spans kept per process for inspection (aggregates are exact).
RAW_SPAN_LIMIT = 20000

#: (span name, module, attribute path).  Several bindings may share a
#: span name when the same layer is reached through different imports.
TARGETS = (
    ("frontend.handle", "repro.service.frontend", "Frontend.handle"),
    ("frontend.shard_dispatch", "repro.service.frontend", "ShardPool.dispatch"),
    ("service.mincut", "repro.service.service", "CutService.mincut"),
    ("service.kcut", "repro.service.service", "CutService.kcut"),
    ("service.stcut", "repro.service.service", "CutService.stcut"),
    ("service.gomoryhu", "repro.service.service", "CutService.gomoryhu"),
    ("service.sparsestcut", "repro.service.service", "CutService.sparsestcut"),
    ("service.mutate", "repro.service.service", "CutService.mutate"),
    ("store.register", "repro.service.store", "GraphStore.register"),
    ("store.apply_delta", "repro.service.store", "GraphStore.apply_delta"),
    ("store.kernel", "repro.service.store", "GraphStore.kernel_for"),
    ("store.kernel", "repro.service.store", "GraphStore.kcut_kernel_for"),
    ("oracle.apply_delta", "repro.service.oracle", "CutOracle.apply_delta"),
    ("oracle.query", "repro.service.oracle", "CutOracle.st_min_cut"),
    ("oracle.all_pairs", "repro.service.oracle", "CutOracle.all_pairs"),
    ("executor.trial", "repro.service.executor", "ampc_min_cut"),
    ("executor.trial", "repro.service.executor", "apx_split_kcut"),
    ("core.keys", "repro.core.mincut", "draw_contraction_keys"),
    ("core.contract", "repro.core.mincut", "contract_to_size"),
    ("core.singleton", "repro.core.mincut", "smallest_singleton_cut"),
    ("core.basecase", "repro.core.mincut", "_exact_base_case"),
    ("core.ldr", "repro.core.singleton", "build_level_structure"),
    ("core.intervals", "repro.core.singleton", "edge_intervals"),
    ("core.sweep", "repro.core.singleton", "min_interval_overlap"),
    ("trees.low_depth", "repro.core.singleton", "low_depth_decomposition"),
    ("flow.maxflow", "repro.flow.dinic", "DinicSolver.max_flow"),
    ("flow.gh_build", "repro.service.oracle", "gomory_hu_tree"),
    ("flow.gh_build", "repro.analysis.sparsest", "gomory_hu_tree"),
    ("flow.gh_repair", "repro.service.oracle", "repair_gomory_hu"),
    ("preprocess.kernelize", "repro.preprocess", "kernelize"),
    ("preprocess.kernelize", "repro.preprocess", "kernelize_for_kcut"),
    ("preprocess.kernelize", "repro.preprocess.dynamic", "kernelize"),
    ("preprocess.refresh", "repro.preprocess", "refresh_kernel"),
    ("sparsest.solve", "repro.analysis.sparsest", "approx_sparsest_cut"),
    ("ampc.round", "repro.ampc.runtime", "AMPCRuntime.round"),
    ("ampc.round", "repro.ampc.runtime", "AMPCRuntime.column_round"),
)

#: Counted, not timed: called ~10^5 times per sparsest solve.
CUT_WEIGHT = ("repro.graph.graph", "Graph.cut_weight")

#: Snapshot triggers: the outermost of these on a thread snapshots.
STATS_HOOKS = (
    ("repro.service.frontend", "Frontend.stats"),
    ("repro.service.service", "CutService.stats"),
)


class Recorder:
    """Per-process span aggregates, phase snapshots and raw spans."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        #: name -> [calls, total_s, self_s]
        self.agg: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.snapshots: list[dict] = []
        #: (op, seconds) per Frontend.handle call, in call order
        self.handle_log: list[tuple[str, float]] = []
        self.raw: list[tuple] = []
        self.raw_dropped = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack())

    def count(self, name: str) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + 1

    def wrap(self, name: str, fn):
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            with recorder._lock:
                span_id = recorder._next_id
                recorder._next_id += 1
            parent = stack[-1] if stack else None
            frame = [name, span_id, time.monotonic(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                duration = end - frame[2]
                if parent is not None:
                    parent[3] += duration
                with recorder._lock:
                    entry = recorder.agg.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[3]
                    if name == "frontend.handle":
                        op = args[1] if len(args) > 1 else kwargs.get("op")
                        recorder.handle_log.append((str(op), duration))
                    if len(recorder.raw) < RAW_SPAN_LIMIT:
                        recorder.raw.append((
                            name, span_id, frame[2], end,
                            parent[1] if parent is not None else None,
                        ))
                    else:
                        recorder.raw_dropped += 1

        traced.__wrapped__ = fn
        return traced

    def snapshot(self) -> None:
        with self._lock:
            self.snapshots.append({
                "agg": {k: list(v) for k, v in self.agg.items()},
                "counters": dict(self.counters),
            })

    def dump(self, directory: str, role: str) -> None:
        os.makedirs(directory, exist_ok=True)
        with self._lock:
            payload = {
                "role": role,
                "pid": os.getpid(),
                "snapshots": self.snapshots,
                "handle_log": self.handle_log,
                "raw_spans": len(self.raw),
                "raw_dropped": self.raw_dropped,
            }
            raw = list(self.raw)
        base = os.path.join(directory, f"trace-{role}")
        with open(base + ".json", "w") as fh:
            json.dump(payload, fh)
        with open(base + ".spans.jsonl", "w") as fh:
            for name, span_id, start, end, parent in raw:
                fh.write(json.dumps({
                    "name": name, "id": span_id, "start": start,
                    "end": end, "parent": parent,
                }) + "\n")


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise AttributeError(f"trace target {module}.{path} no longer exists")
    return owner, attr


def install(recorder: Recorder) -> None:
    """Patch every target in this process; raises if one is missing."""
    for name, module, path in TARGETS:
        owner, attr = _resolve(module, path)
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr)))

    owner, attr = _resolve(*CUT_WEIGHT)
    cut_weight = getattr(owner, attr)

    def counted_cut_weight(*args, **kwargs):
        if recorder.active("sparsest.solve"):
            recorder.count("graph.cut_weight_in_sparsest")
        return cut_weight(*args, **kwargs)

    setattr(owner, attr, counted_cut_weight)

    # One flag shared by both hooks: an inline server's Frontend.stats
    # calls CutService.stats on the same thread, and must snapshot once.
    local = threading.local()
    for module, path in STATS_HOOKS:
        owner, attr = _resolve(module, path)
        setattr(owner, attr, _stats_hook(recorder, getattr(owner, attr), local))


def _stats_hook(recorder: Recorder, fn, local: threading.local):
    def hooked(*args, **kwargs):
        outermost = not getattr(local, "inside", False)
        if outermost:
            recorder.snapshot()
            local.inside = True
        try:
            return fn(*args, **kwargs)
        finally:
            if outermost:
                local.inside = False

    return hooked


def traced_shard_main(shard_id: int, conn, service_kwargs: dict) -> None:
    """Shard-worker entry: install the wrappers, run the real loop, dump.

    Patched over ``repro.service.frontend._shard_main`` in the server
    process before the shard pool starts; spawn children import this
    module by name, so the wrappers land in every shard.
    """
    from repro.service import frontend

    recorder = Recorder()
    install(recorder)
    try:
        frontend._shard_main(shard_id, conn, service_kwargs)
    finally:
        recorder.dump(os.environ[TRACE_DIR_ENV], f"shard{shard_id}")
