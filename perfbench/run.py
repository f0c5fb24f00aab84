"""Served-path benchmark: one closed-loop client against a real server.

Run from the repository root::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program's
tracing off, every time and rate at the reference host speed of
``host.py`` (the raw values follow as ``diag raw`` lines).  ``--trace 1`` runs the workload twice, for half the time
each: once untraced, once with per-layer wrappers installed in every
server process (``layers.py``), and reports the per-layer metrics plus
the tracing overhead.  Every reply is verified after the timed phase;
a wrong answer counts as a failed op.  The last stdout line is the JSON
result; the lines before it list every metric with its unit and sample
count, the per-op attempted/failed counts, and diagnostics.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import sys
import time

import host
from client import Server
from stats import TooFewSamples, percentile

#: set-ups per run; setup_s is their median
SETUPS = 3
#: solver endpoints, reported as mean round trips: a solve of tens of
#: milliseconds runs at one of the host's two CPU speeds (~1.5x apart,
#: switching within a second), so its times form two clusters and a
#: median jumps between them with the run's mix; a mean moves with the
#: mix only in proportion.  Other ops report medians.
MEAN_OPS = ("mincut", "kcut", "sparsestcut", "gomoryhu")
#: iterations of the pure-Python reference loop (host-speed diagnostic)
REF_LOOP = 300_000

#: spans each workload's traced run must see fire (a missed name
#: binding shows as zero calls) -- and, for serve-warm, must not
MUST_FIRE = {
    "serve-warm": (
        "frontend.handle", "frontend.shard_dispatch", "service.mincut",
        "service.kcut", "service.stcut", "service.gomoryhu",
        "service.sparsestcut", "service.mutate", "store.register",
        "store.apply_delta", "oracle.query",
    ),
    "mutate-stream": (
        "frontend.handle", "service.mincut", "service.kcut", "service.stcut",
        "service.gomoryhu", "service.sparsestcut", "service.mutate",
        "store.register", "store.apply_delta", "store.kernel",
        "oracle.apply_delta", "oracle.query", "oracle.all_pairs",
        "executor.trial", "core.keys", "core.contract", "core.singleton",
        "core.basecase", "core.ldr", "core.intervals", "core.sweep",
        "trees.low_depth", "flow.maxflow", "flow.gh_build", "flow.gh_repair",
        "preprocess.kernelize", "preprocess.refresh", "sparsest.solve",
    ),
}
MUST_NOT_FIRE = {"serve-warm": ("core.", "trees.", "flow.", "sparsest.", "executor.")}
#: counters each workload's traced run must see move: the wrapper on
#: Graph.cut_weight, and the /stats counters its derived metrics read
MUST_COUNT = {
    "serve-warm": ("results.hits",),
    "mutate-stream": ("oracle.repairs", "graph.cut_weight_in_sparsest"),
}

ORACLE_COUNTERS = ("repairs", "repaired_edges", "repair_fallbacks",
                   "mask_hits", "builds")


def reference_loop() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


class GaugedSetup:
    """The client as set-up sees it: the host gauge is read after every
    call, and the time that takes is kept out of the set-up time."""

    def __init__(self, client, gauge):
        self.client, self.gauge = client, gauge
        self.readings: list[float] = []
        self.spent_s = 0.0

    def call(self, op: str, body: dict) -> dict:
        payload = self.client.call(op, body)
        t0 = time.perf_counter()
        self.readings.append(self.gauge.read())
        self.spent_s += time.perf_counter() - t0
        return payload


def measure(workload, root: str, seconds: float, *, gauge, outdir: str,
            setups: int, trace_dir: str | None = None):
    """Set up ``setups`` times, run the timed phase on the last server,
    verify; returns (meter, [(set-up seconds, its gauge factor)], peak
    RSS in MB)."""
    from workloads import Meter

    times = []
    for i in range(setups):
        server = Server(root, shards=workload.shards, trace_dir=trace_dir,
                        log_path=os.path.join(outdir, "server.log"))
        try:
            calls = GaugedSetup(server.client, gauge)
            workload.setup(calls)
            elapsed = time.perf_counter() - server.spawned_at - calls.spent_s
            times.append((elapsed, host.factor(calls.readings)))
        except BaseException:
            server.stop()
            raise
        if i < setups - 1:
            server.stop()
    meter = Meter(server.client, gauge)
    try:
        workload.run(meter, seconds)
        rss = server.rss_peak_mb()
    finally:
        server.stop()
    meter.run_checks()
    return meter, times, rss


def _scale(window, normalize: bool) -> float:
    return window.factor() if normalize else 1.0


def scaled(meter, op: str, *, normalize: bool = True) -> list[float]:
    """Every sample of ``op``, each multiplied by its window's gauge
    factor: its time at the reference host speed."""
    return [seconds * _scale(window, normalize)
            for window in meter.windows for seconds in window.samples[op]]


def throughput(meter, *, normalize: bool = True) -> float:
    return meter.completed / sum(
        window.wall_s * _scale(window, normalize) for window in meter.windows)


def e2e_metrics(meter, setups, rss, *, normalize: bool = True) -> dict:
    """metric -> (value, unit, samples) for the trace-0 run, at the
    reference host speed (raw with ``normalize=False``)."""
    setup = [seconds * (f if normalize else 1.0) for seconds, f in setups]
    out = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "throughput_rps": (throughput(meter, normalize=normalize), "1/s",
                           meter.completed),
        "rss_peak_mb": (rss, "MB", 1),
    }
    for op in meter.samples:
        samples = scaled(meter, op, normalize=normalize)
        if op in MEAN_OPS:
            out[f"{op}_mean_s"] = (statistics.fmean(samples), "s", len(samples))
        else:
            out[f"{op}_p50_s"] = (percentile(samples, 50), "s", len(samples))
    stcut = scaled(meter, "stcut", normalize=normalize)
    out["stcut_p90_s"] = (percentile(stcut, 90), "s", len(stcut))
    return out


# ----------------------------------------------------------------------
# per-layer metrics of a traced phase
# ----------------------------------------------------------------------
def _services(stats_payload: dict) -> list[dict]:
    shards = stats_payload.get("shards")
    return list(shards.values()) if isinstance(shards, dict) else [stats_payload]


def _stats_counters(payload: dict) -> dict:
    out = {"results.hits": 0, "results.misses": 0}
    out.update({f"oracle.{f}": 0 for f in ORACLE_COUNTERS})
    for service in _services(payload):
        out["results.hits"] += service["results"]["hits"]
        out["results.misses"] += service["results"]["misses"]
        for oracle in service["oracles"].values():
            for f in ORACLE_COUNTERS:
                out[f"oracle.{f}"] += oracle[f]
    return out


def timed_layers(meter, trace_dir: str) -> tuple[dict, dict, list]:
    """Span aggregates, counters and the frontend handle log over the
    timed segments, summed across the server's processes."""
    agg: dict[str, list] = {}
    counters: dict[str, float] = {}
    handle_log = None
    segments = [(i, i + 1) for i in range(0, len(meter.stats), 2)]
    for path in sorted(glob.glob(os.path.join(trace_dir, "trace-*.json"))):
        with open(path) as fh:
            dump = json.load(fh)
        snaps = dump["snapshots"]
        if len(snaps) != len(meter.stats):
            raise RuntimeError(
                f"{path}: {len(snaps)} snapshots for {len(meter.stats)} /stats calls"
            )
        for a, b in segments:
            for name, after in snaps[b]["agg"].items():
                before = snaps[a]["agg"].get(name, [0, 0.0, 0.0])
                entry = agg.setdefault(name, [0, 0.0, 0.0])
                for k in range(3):
                    entry[k] += after[k] - before[k]
            for name, after in snaps[b]["counters"].items():
                counters[name] = (counters.get(name, 0)
                                  + after - snaps[a]["counters"].get(name, 0))
        if dump["role"] == "main":
            handle_log = dump["handle_log"]
    for a, b in segments:
        before = _stats_counters(meter.stats[a])
        for name, after in _stats_counters(meter.stats[b]).items():
            counters[name] = counters.get(name, 0) + after - before[name]
    if handle_log is None:
        raise RuntimeError(f"no trace of the frontend process in {trace_dir}")
    return agg, counters, handle_log


#: (metric, span, statistic): "self"/"total" give mean seconds per call
#: of the span's self or total time, "calls" its call count
SPAN_METRICS = (
    ("frontend.handle_self_s", "frontend.handle", "self"),
    ("frontend.shard_dispatch_s", "frontend.shard_dispatch", "total"),
    *((f"service.query_self_s.{op}", f"service.{op}", "self")
      for op in ("mincut", "kcut", "stcut", "gomoryhu", "sparsestcut")),
    ("service.mutate_self_s", "service.mutate", "self"),
    ("store.register_s", "store.register", "total"),
    ("store.apply_delta_s", "store.apply_delta", "total"),
    ("store.kernel_s", "store.kernel", "total"),
    ("executor.trials", "executor.trial", "calls"),
    ("executor.trial_s", "executor.trial", "total"),
    *((f"core.{name}_s", f"core.{name}", "self")
      for name in ("keys", "contract", "singleton", "ldr", "intervals",
                   "sweep", "basecase")),
    ("trees.low_depth_s", "trees.low_depth", "self"),
    ("flow.maxflow_calls", "flow.maxflow", "calls"),
    ("flow.maxflow_s", "flow.maxflow", "total"),
    ("flow.gh_build_s", "flow.gh_build", "total"),
    ("flow.gh_repair_s", "flow.gh_repair", "total"),
    ("oracle.query_s", "oracle.query", "self"),
    ("oracle.all_pairs_s", "oracle.all_pairs", "total"),
    ("preprocess.kernelize_s", "preprocess.kernelize", "total"),
    ("preprocess.refresh_s", "preprocess.refresh", "total"),
    ("sparsest.solve_s", "sparsest.solve", "total"),
    ("ampc.rounds_executed", "ampc.round", "calls"),
)


def layer_metrics(meter, trace_dir: str, overhead: float) -> tuple[dict, dict, dict]:
    """(metric -> (value, unit, samples), span aggregates, counters) of a
    traced phase."""
    agg, counters, handle_log = timed_layers(meter, trace_dir)
    posts = meter.client.posts
    if len(handle_log) != len(posts) or any(
        h[0] != p[0] for h, p in zip(handle_log, posts)
    ):
        raise RuntimeError("server handle log does not match the client's POSTs")
    timed = meter.timed_posts

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "http.wire_s": (statistics.median(
            posts[i][1] - handle_log[i][1] for i in timed), "s", len(timed)),
        "http.response_bytes": (statistics.mean(
            posts[i][2] for i in timed), "B", len(timed)),
    }
    for metric, span, stat in SPAN_METRICS:
        calls, total, self_s = agg.get(span, [0, 0.0, 0.0])
        if stat == "calls":
            out[metric] = (calls, "count", calls)
        else:
            seconds = total if stat == "total" else self_s
            out[metric] = (ratio(seconds, calls), "s", calls)
    lookups = counters["results.hits"] + counters["results.misses"]
    out["cache.hit_ratio"] = (
        ratio(counters["results.hits"], lookups), "ratio", lookups)
    for f in ORACLE_COUNTERS:
        out[f"oracle.{f}"] = (counters[f"oracle.{f}"], "count", len(timed))
    attempts = sum(counters[f"oracle.{f}"]
                   for f in ("repairs", "repair_fallbacks", "builds"))
    solves = agg.get("sparsest.solve", [0])[0]
    out.update({
        "oracle.useful_ratio": (
            ratio(counters["oracle.repairs"], attempts), "ratio", attempts),
        "graph.cut_weight_calls": (ratio(
            counters.get("graph.cut_weight_in_sparsest", 0), solves),
            "count", solves),
        "ampc.rounds_charged": (meter.rounds_charged, "count", len(timed)),
        "trace.overhead": (overhead, "ratio", 2),
    })
    return out, agg, counters


def zero_fire_errors(workload: str, agg: dict, counters: dict) -> list[str]:
    fired = {name for name, (c, _, _) in agg.items() if c > 0}
    errors = [f"zero-fire: {name} never fired on {workload}"
              for name in MUST_FIRE[workload] if name not in fired]
    for prefix in MUST_NOT_FIRE.get(workload, ()):
        errors += [f"zero-fire: {name} fired on {workload}"
                   for name in sorted(fired) if name.startswith(prefix)]
    errors += [f"zero-fire: counter {name} stayed 0 on {workload}"
               for name in MUST_COUNT[workload] if not counters.get(name)]
    return errors


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve-warm", "mutate-stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("error: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    from workloads import MutateStream, ServeWarm

    outdir = os.path.join(root, ".perfbench",
                          f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    workload = {"serve-warm": ServeWarm,
                "mutate-stream": MutateStream}[args.workload](args.seed)
    loop_start = reference_loop()

    meters = []
    errors: list[str] = []
    raw: dict = {}
    gauge = host.HostGauge(root, log_path=os.path.join(outdir, "gauge.log"))
    try:
        if args.trace == 0:
            meter, setups, rss = measure(
                workload, root, args.seconds, gauge=gauge, outdir=outdir,
                setups=SETUPS)
            meters.append(meter)
            try:
                metrics = e2e_metrics(meter, setups, rss)
                raw = e2e_metrics(meter, setups, rss, normalize=False)
            except TooFewSamples as exc:
                print(f"error: {exc}; run longer", file=sys.stderr)
                return 1
        else:
            half = args.seconds / 2
            plain, _, _ = measure(workload, root, half, gauge=gauge,
                                  outdir=outdir, setups=1)
            trace_dir = os.path.join(outdir, "trace")
            traced, _, _ = measure(workload, root, half, gauge=gauge,
                                   outdir=outdir, setups=1, trace_dir=trace_dir)
            meters += [plain, traced]
            overhead = throughput(traced) / throughput(plain)
            metrics, agg, counters = layer_metrics(traced, trace_dir, overhead)
            errors += zero_fire_errors(args.workload, agg, counters)
    finally:
        gauge.stop()
    loop_end = reference_loop()

    attempted: dict[str, int] = {}
    failed: dict[str, int] = {}
    for meter in meters:
        for op, n in meter.attempted.items():
            attempted[op] = attempted.get(op, 0) + n
        for op, n in meter.failed.items():
            failed[op] = failed.get(op, 0) + n
        errors += meter.errors
    with open(os.path.join(outdir, "samples.json"), "w") as fh:
        json.dump([[{"samples": w.samples, "gauge_s": w.gauge_s,
                     "wall_s": w.wall_s, "completed": w.completed}
                    for w in m.windows] for m in meters], fh)

    for name, (value, unit, samples) in metrics.items():
        print(f"metric {name:<34} {value:>14.6g} {unit:<6} samples={samples}")
    for op in attempted:
        print(f"op {op:<12} attempted={attempted[op]} failed={failed.get(op, 0)}")
    stcut = [s for m in meters for s in m.samples["stcut"]]
    try:
        p99 = f"{percentile(stcut, 99):.6g}s"
    except TooFewSamples:
        p99 = f"n/a ({len(stcut)} samples)"
    for name, (value, unit, _) in raw.items():
        print(f"diag raw {name:<30} {value:>14.6g} {unit}")
    for i, meter in enumerate(meters):
        factors = sorted(w.factor() for w in meter.windows)
        print(f"diag host_gauge phase={i} windows={len(factors)} "
              f"factor min={factors[0]:.4f} median={statistics.median(factors):.4f} "
              f"max={factors[-1]:.4f}")
    print(f"diag reference_loop_s start={loop_start:.4f} end={loop_end:.4f}")
    print(f"diag stcut_p99_s {p99}; raw samples in {os.path.relpath(outdir, root)}")
    for error in errors[:20]:
        print(f"error {error}")
    result = {
        "correct": not errors,
        "attempted": sum(attempted.values()),
        "failed": sum(failed.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
