"""Command-line interface.

Subcommands mirroring what a downstream user does first:

* ``mincut``  — minimum cut of a graph file: the paper's Algorithm 1 by
  default, or ``--algorithm matula|karger-stein|exact`` for the
  baselines, with round/memory accounting and optional exact
  verification;
* ``kcut``    — (4+eps)-approximate Min k-Cut (Algorithm 4);
* ``decompose`` — generalized low-depth decomposition of a tree file,
  printing the labeling and the splitting process;
* ``kernelize`` — inspect the exact kernelization pipeline
  (:mod:`repro.preprocess`): reduction steps, shrink ratios, recorded
  candidate cuts, optionally writing the kernel graph out;
* ``sparsify`` — Nagamochi–Ibaraki min-cut-preserving certificate;
* ``convert`` — translate between edge-list, DIMACS and METIS;
* ``experiments`` — regenerate EXPERIMENTS.md from live runs;
* ``serve``   — start the long-lived JSON-over-HTTP cut-query engine
  (:mod:`repro.service`): graphs registered once, boosting trials fanned
  over a process pool, s–t queries amortised through a Gomory–Hu cache;
* ``query``   — client for a running ``serve`` instance;
* ``mutate``  — apply edge deltas (add/remove/reweight) to a graph
  resident in a running ``serve`` instance, in place — the dynamic-
  workload path (``POST /mutate``; see ``docs/HTTP_API.md``);
* ``loadgen`` — open-loop load generator against a running ``serve``
  instance: fixed arrival rate, bounded in-flight window, mixed
  upload/query/mutate/batch traffic, per-op p50/p95/p99 latency and
  optional SLO gating (:mod:`repro.obs.loadgen`;
  see ``docs/OBSERVABILITY.md``).

Graph files are loaded by extension: ``.dimacs``/``.col``/``.max`` as
DIMACS, ``.metis``/``.chaco`` as METIS, anything else as the native
edge list (:mod:`repro.graph.io`).  Install exposes ``repro-cut`` via
the console-script entry point; ``python -m repro.cli`` works from a
checkout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .baselines import exact_min_cut_weight
from .core import ampc_min_cut_boosted, apx_split_kcut
from .graph import (
    Graph,
    load_any as _load_any,
    save_any as _save_any,
    sparsify_preserving_min_cut,
)
from .trees import decomposition_forest_sequence, low_depth_decomposition


def _kernel_line(stats: dict) -> str:
    """One-line kernelization summary printed under ``--preprocess``."""
    solved = " (solved outright)" if stats["solved"] else ""
    return (
        f"kernel[{stats['level']}]: "
        f"{stats['original_vertices']}->{stats['kernel_vertices']} vertices, "
        f"{stats['original_edges']}->{stats['kernel_edges']} edges "
        f"({stats['vertex_shrink']:.2f}x / {stats['edge_shrink']:.2f}x)"
        f"{solved}"
    )


def _cmd_mincut(args: argparse.Namespace) -> int:
    graph = _load_any(args.graph)
    rounds: int | None = None
    kernel_stats: dict | None = None
    if args.algorithm == "ampc":
        result = ampc_min_cut_boosted(
            graph,
            eps=args.eps,
            trials=args.trials,
            seed=args.seed,
            backend=args.ampc_backend,
            preprocess=args.preprocess,
        )
        weight, side, rounds = result.weight, result.cut.side, result.ledger.rounds
        ledger_report = result.ledger.report() if args.ledger else None
        kernel_stats = result.kernel_stats
    else:
        if args.algorithm == "matula":
            from .baselines import matula_min_cut

            def solver(g):
                return matula_min_cut(g, eps=args.eps)

        elif args.algorithm == "karger-stein":
            from .baselines import karger_stein_boosted

            def solver(g):
                return karger_stein_boosted(g, seed=args.seed)

        elif args.algorithm == "exact":
            from .baselines import stoer_wagner_min_cut

            solver = stoer_wagner_min_cut
        else:  # pragma: no cover - argparse choices guard this
            raise ValueError(args.algorithm)
        if args.preprocess != "off":
            from .preprocess import kernelize

            kernel = kernelize(graph, level=args.preprocess)
            cut = kernel.solve(solver)
            kernel_stats = kernel.stats()
        else:
            res = solver(graph)
            cut = res if not hasattr(res, "cut") else res.cut
        weight, side, ledger_report = cut.weight, cut.side, None

    print(f"n={graph.num_vertices} m={graph.num_edges}")
    if kernel_stats is not None:
        print(_kernel_line(kernel_stats))
    print(f"cut weight: {weight}")
    small = min((side, frozenset(graph.vertices()) - side), key=len)
    print(f"cut side ({len(small)} vertices): {sorted(map(str, small))[:20]}")
    if rounds is not None:
        print(f"AMPC rounds: {rounds}")
    if args.timeline and args.algorithm == "ampc":
        from .ampc import render_phase_table, render_timeline

        print(render_timeline(result.ledger, max_entries=24))
        print(render_phase_table(result.ledger))
    if args.verify:
        # A disconnected input (reachable only via --preprocess, which
        # solves it at weight 0) has min cut 0 by definition —
        # Stoer–Wagner itself requires a connected graph.
        if len(graph.components()) > 1:
            exact = 0.0
        else:
            exact = exact_min_cut_weight(graph)
        ratio = weight / exact if exact else (1.0 if weight == exact else float("inf"))
        print(f"exact (Stoer-Wagner): {exact}  ratio: {ratio:.4f}")
    if ledger_report:
        print(ledger_report)
    return 0


def _cmd_kcut(args: argparse.Namespace) -> int:
    graph = _load_any(args.graph)
    result = apx_split_kcut(
        graph, args.k, eps=args.eps, seed=args.seed, backend=args.ampc_backend,
        preprocess=args.preprocess,
    )
    print(f"n={graph.num_vertices} m={graph.num_edges} k={args.k}")
    if result.kernel_stats is not None:
        s = result.kernel_stats
        if s["candidate_weight"] is None:
            print(f"kernel[{s['level']}]: no applicable k-cut reduction")
        else:
            print(
                f"kernel[{s['level']}]: "
                f"{s['original_vertices']}->{s['kernel_vertices']} vertices "
                f"({s['contracted']} contracted above the candidate k-cut "
                f"bound {s['candidate_weight']})"
            )
    print(f"k-cut weight: {result.weight}")
    for i, part in enumerate(sorted(result.kcut.parts, key=len, reverse=True)):
        members = sorted(map(str, part))
        shown = members if len(members) <= 12 else members[:12] + ["..."]
        print(f"  part {i}: {len(part)} vertices: {shown}")
    print(f"iterations: {result.iterations}  AMPC rounds: {result.ledger.rounds}")
    if args.metrics:
        from .analysis.metrics import partition_summary

        print(partition_summary(graph, list(result.kcut.parts)).render())
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    graph = _load_any(args.graph)
    if graph.num_edges != graph.num_vertices - 1:
        print("error: input must be a tree (m == n-1)", file=sys.stderr)
        return 2
    edges = [(u, v) for u, v, _ in graph.edges()]
    decomp = low_depth_decomposition(graph.vertices(), edges)
    print(f"n={graph.num_vertices}  height={decomp.height} "
          f"(envelope {decomp.height_bound()})")
    levels = decomp.levels()
    for level in sorted(levels):
        members = sorted(map(str, levels[level]))
        shown = members if len(members) <= 16 else members[:16] + ["..."]
        print(f"  level {level}: {shown}")
    if args.process:
        print("splitting process:")
        for i, comps in enumerate(decomposition_forest_sequence(decomp), start=1):
            sizes = sorted((len(c) for c in comps), reverse=True)
            print(f"  T_{i}: {len(comps)} components, sizes {sizes[:12]}")
    return 0


def _cmd_kernelize(args: argparse.Namespace) -> int:
    import json

    from .preprocess import kernelize

    graph = _load_any(args.graph)
    kernel = kernelize(graph, level=args.level)
    stats = kernel.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        print(f"n={graph.num_vertices} m={graph.num_edges}")
        print(_kernel_line(stats))
        for step in stats["steps"]:
            print(
                f"  - {step['name']}: -{step['vertices_removed']}v "
                f"-{step['edges_removed']}e "
                f"(+{step['candidates_recorded']} candidates) "
                f"{step['detail']}"
            )
        if stats["solved"]:
            print(f"solved outright: min cut weight {stats['solved_weight']}")
        elif stats["best_candidate_weight"] is not None:
            print(
                "best candidate cut recorded: "
                f"{stats['best_candidate_weight']} (upper bound on the min cut)"
            )
    if args.output is not None:
        _save_any(kernel.graph, args.output)
        print(f"wrote kernel to {args.output}", file=sys.stderr)
    return 0


def _cmd_sparsify(args: argparse.Namespace) -> int:
    graph = _load_any(args.graph)
    cert = sparsify_preserving_min_cut(graph, slack=args.slack)
    _save_any(cert, args.output)
    print(
        f"{graph.num_edges} edges "
        f"(total weight {graph.total_weight():.1f}) -> "
        f"{cert.num_edges} edges "
        f"(total weight {cert.total_weight():.1f})"
    )
    print(f"wrote {args.output}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    graph = _load_any(args.input)
    _save_any(graph, args.output)
    print(
        f"converted {args.input} -> {args.output} "
        f"(n={graph.num_vertices}, m={graph.num_edges})"
    )
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .analysis.writer import generate

    generate(args.output, fast=args.fast)
    print(f"wrote {args.output}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .obs import Tracer
    from .service import CutService, make_frontend, serve

    service_kwargs = dict(
        workers=args.workers,
        store_capacity=args.store_capacity,
        result_cache_capacity=args.result_cache,
        ampc_backend=args.ampc_backend,
        preprocess=args.preprocess,
    )
    tracer = Tracer(capacity=args.trace_capacity, enabled=not args.no_trace)
    frontend_kwargs = dict(
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        queue_timeout_s=args.queue_timeout,
        retry_after_s=args.retry_after,
        coalesce=not args.no_coalesce,
        tracer=tracer,
    )
    if args.shards > 1:
        # Sharded: one CutService process per shard behind a
        # consistent-hash ring; graphs preload through the frontend so
        # each lands on the shard owning its fingerprint.
        frontend = make_frontend(
            shards=args.shards,
            service_kwargs=service_kwargs,
            **frontend_kwargs,
        )
        register = lambda name, path: frontend.backend.dispatch(  # noqa: E731
            "graphs", {"name": name, "path": str(path)}, tracer
        )
    else:
        service = CutService(tracer=tracer, **service_kwargs)
        frontend = make_frontend(service, **frontend_kwargs)
        register = lambda name, path: (  # noqa: E731
            (200, service.register_file(name, Path(path)))
        )
    for spec in args.graph or []:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            print(f"error: --graph wants NAME=PATH, got {spec!r}", file=sys.stderr)
            frontend.close()
            return 2
        status, entry = register(name, Path(path))
        if status != 200:
            print(
                f"error: preload {name} failed: {entry.get('error')}",
                file=sys.stderr,
            )
            frontend.close()
            return 2
        print(
            f"registered {name}: n={entry['num_vertices']} "
            f"m={entry['num_edges']} fingerprint={entry['fingerprint'][:12]}"
        )
    try:
        serve(frontend=frontend, host=args.host, port=args.port)
    finally:
        if args.trace_out is not None:
            count = frontend.tracer.export_jsonl(str(args.trace_out))
            print(f"wrote {count} spans to {args.trace_out}", file=sys.stderr)
        frontend.close()
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from .obs import LoadGen, LoadGenConfig, check_slos
    from .obs.loadgen import write_report

    mix = None
    if args.mix:
        mix = {}
        for spec in args.mix:
            op, sep, weight = spec.partition("=")
            if not sep:
                print(f"error: --mix wants OP=WEIGHT, got {spec!r}",
                      file=sys.stderr)
                return 2
            try:
                mix[op] = float(weight)
            except ValueError:
                print(f"error: --mix weight must be a number, got {weight!r}",
                      file=sys.stderr)
                return 2
    kwargs = {} if mix is None else {"mix": mix}
    try:
        config = LoadGenConfig(
            url=args.url,
            rate=args.rate,
            duration_s=args.duration,
            max_inflight=args.max_inflight,
            graphs=args.graphs,
            graph_n=args.graph_n,
            corpus=args.corpus,
            seed=args.seed,
            probe_s=args.probe,
            decrease_fraction=args.decrease_fraction,
            **kwargs,
        )
        report = LoadGen(config).run()
    except (ValueError, ConnectionError, RuntimeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output is not None:
        write_report(report, args.output)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    floors = {}
    if args.slo:
        for spec in args.slo:
            key, sep, bound = spec.partition("=")
            if not sep:
                print(f"error: --slo wants KEY=BOUND, got {spec!r}",
                      file=sys.stderr)
                return 2
            try:
                floors[key] = float(bound)
            except ValueError:
                print(f"error: --slo bound must be a number, got {bound!r}",
                      file=sys.stderr)
                return 2
    if floors:
        try:
            violations = check_slos(report, floors)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if violations:
            for line in violations:
                print(f"SLO violation: {line}", file=sys.stderr)
            return 1
        print(f"all {len(floors)} SLOs hold", file=sys.stderr)
    return 0


def _query_ops() -> dict:
    """Served ops ``repro-cut query`` covers: those whose params are all
    scalars (``mutate`` has its own subcommand)."""
    from .service.ops import OPS

    return {n: s for n, s in OPS.items()
            if all(p.kind != "list" for p in s.params)}


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    from .service import request_json
    from .service.ops import REQUIRED

    def need(value, flag: str):
        if value is None:
            print(f"error: {args.op} requires {flag}", file=sys.stderr)
            raise SystemExit(2)
        return value

    ops = _query_ops()
    spec = ops.get(args.op)
    taken = {p.name for p in spec.params} if spec is not None else set()
    for name in {p.name for s in ops.values() for p in s.params} - taken:
        if getattr(args, name, None) is not None:
            print(f"error: {args.op} does not take --{name}", file=sys.stderr)
            return 2
    path, payload = f"/{args.op}", None  # graphs / stats: a GET
    if spec is not None:
        # unset flags stay out of the body, so the server's defaults apply
        payload = {"graph": need(args.name, "--name")}
        for param in spec.params[1:]:
            value = getattr(args, param.name)
            if value is not None or param.default is REQUIRED:
                payload[param.name] = need(value, f"--{param.name}")
    elif args.op == "register":
        graph = _load_any(need(args.file, "--file"))
        path, payload = "/graphs", {
            "name": need(args.name, "--name"),
            "vertices": [_json_vertex(v) for v in graph.vertices()],
            "edges": [
                [_json_vertex(u), _json_vertex(v), w] for u, v, w in graph.edges()
            ],
        }
    try:
        resp = request_json(args.url, path, payload)
    except (ConnectionError, RuntimeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(resp, indent=2, sort_keys=True))
    return 1 if isinstance(resp, dict) and "error" in resp else 0


def _parse_delta_edge(
    spec: str, *, weighted: bool, verb: str, optional_weight: bool = False
):
    """Parse ``U,V[,W]`` CLI specs into wire rows (ints where possible).

    ``optional_weight`` is ``--add``'s defaulting-to-1 shape only;
    ``--reweight`` must name its weight (caught here, not as a remote
    400).
    """
    parts = spec.split(",")
    want = 3 if weighted else 2
    if len(parts) != want and not (optional_weight and len(parts) == 2):
        shape = "U,V[,W]" if optional_weight else (
            "U,V,W" if weighted else "U,V"
        )
        raise SystemExit(f"error: --{verb} wants {shape}, got {spec!r}")
    def vertex(tok: str):
        tok = tok.strip()
        try:
            return int(tok)
        except ValueError:
            return tok
    row = [vertex(parts[0]), vertex(parts[1])]
    if weighted and len(parts) == 3:
        try:
            row.append(float(parts[2]))
        except ValueError:
            raise SystemExit(
                f"error: --{verb} weight must be a number, got {parts[2]!r}"
            ) from None
    return row


def _cmd_mutate(args: argparse.Namespace) -> int:
    import json

    from .service import request_json

    payload: dict = {"graph": args.name}
    if args.deltas_json is not None:
        body = json.loads(Path(args.deltas_json).read_text())
        if isinstance(body, list):
            payload["deltas"] = body
        elif isinstance(body, dict):
            payload.update(
                {
                    k: body[k]
                    for k in ("adds", "removes", "reweights", "deltas")
                    if k in body
                }
            )
        else:
            print("error: --deltas-json wants a JSON object or list",
                  file=sys.stderr)
            return 2
    if args.add:
        payload["adds"] = [
            _parse_delta_edge(s, weighted=True, verb="add",
                              optional_weight=True)
            for s in args.add
        ]
    if args.remove:
        payload["removes"] = [
            _parse_delta_edge(s, weighted=False, verb="remove")
            for s in args.remove
        ]
    if args.reweight:
        payload["reweights"] = [
            _parse_delta_edge(s, weighted=True, verb="reweight")
            for s in args.reweight
        ]
    if args.expect_fingerprint:
        payload["expected_fingerprint"] = args.expect_fingerprint
    if not any(k in payload for k in ("adds", "removes", "reweights", "deltas")):
        print("error: nothing to apply (use --add/--remove/--reweight or "
              "--deltas-json)", file=sys.stderr)
        return 2
    try:
        resp = request_json(args.url, "/mutate", payload)
    except (ConnectionError, RuntimeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(resp, indent=2, sort_keys=True))
    return 1 if isinstance(resp, dict) and "error" in resp else 0


def _json_vertex(v):
    """Vertices as JSON scalars (ints stay ints; the rest go to str)."""
    return v if isinstance(v, (int, str)) else str(v)


def _backend_spec(value: str) -> str:
    from .ampc.backends import parse_backend_spec

    try:
        parse_backend_spec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return value


def _add_preprocess_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--preprocess",
        choices=["off", "safe", "aggressive"],
        default="off",
        help="exact kernelization before solving (repro.preprocess); "
        "never changes the reported cut weight",
    )


def _add_ampc_backend_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--ampc-backend",
        type=_backend_spec,
        default=None,
        metavar="{serial,thread,process,shm}[:WORKERS]",
        help="round-execution backend for AMPC rounds (default: "
        "$AMPC_BACKEND or serial; never changes results; shm runs "
        "columnar rounds on a persistent shared-memory worker pool)",
    )


def _add_query_flags(p: argparse.ArgumentParser, query_ops: dict) -> None:
    """One ``--PARAM`` flag per served-op param (``graph`` is ``--name``).

    Flags default to unset; each help line names the verbs taking it.
    """
    from .preprocess import LEVELS

    params: dict[str, object] = {}
    verbs: dict[str, list] = {}
    for spec in query_ops.values():
        for param in spec.params[1:]:
            params.setdefault(param.name, param)
            verbs.setdefault(param.name, []).append(spec.name)
    for name, param in params.items():
        kwargs = {"help": f"{param.help} ({', '.join(verbs[name])})"}
        if param.kind == "bool":
            kwargs.update(action="store_true", default=None)
        elif param.kind == "level":
            kwargs["choices"] = LEVELS
        else:  # vertex ids travel as strings; the server resolves "7"
            kwargs["type"] = {"int": int, "float": float}.get(param.kind, str)
        p.add_argument(f"--{name}", **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cut",
        description="AMPC cut algorithms (SPAA 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mincut", help="minimum cut (approximate or exact)")
    p.add_argument("graph", type=Path, help="graph file (edge list/DIMACS/METIS)")
    p.add_argument(
        "--algorithm",
        choices=["ampc", "matula", "karger-stein", "exact"],
        default="ampc",
        help="ampc = paper Algorithm 1 (default)",
    )
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=None, help="boosting trials")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify", action="store_true", help="compare with exact")
    _add_preprocess_flag(p)
    _add_ampc_backend_flag(p)
    p.add_argument("--ledger", action="store_true", help="print round ledger")
    p.add_argument("--timeline", action="store_true",
                   help="print the round timeline + per-phase table (ampc only)")
    p.set_defaults(func=_cmd_mincut)

    p = sub.add_parser("kcut", help="(4+eps)-approximate Min k-Cut")
    p.add_argument("graph", type=Path)
    p.add_argument("k", type=int)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    _add_preprocess_flag(p)
    _add_ampc_backend_flag(p)
    p.add_argument("--metrics", action="store_true",
                   help="print partition quality metrics")
    p.set_defaults(func=_cmd_kcut)

    p = sub.add_parser(
        "kernelize",
        help="inspect the exact kernelization of a graph (repro.preprocess)",
    )
    p.add_argument("graph", type=Path)
    p.add_argument("--level", choices=["safe", "aggressive"], default="safe")
    p.add_argument("--output", type=Path, default=None,
                   help="also write the kernel graph to a file")
    p.add_argument("--json", action="store_true",
                   help="print the full stats record as JSON")
    p.set_defaults(func=_cmd_kernelize)

    p = sub.add_parser("decompose", help="low-depth decomposition of a tree")
    p.add_argument("graph", type=Path)
    p.add_argument("--process", action="store_true",
                   help="print the T_i splitting process")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("sparsify", help="NI min-cut-preserving certificate")
    p.add_argument("graph", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--slack", type=float, default=1.0,
                   help="certificate level = slack * min degree (>= 1)")
    p.set_defaults(func=_cmd_sparsify)

    p = sub.add_parser("convert", help="translate between graph formats")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("experiments", help="regenerate EXPERIMENTS.md")
    p.add_argument("--output", type=Path, default=Path("EXPERIMENTS.md"))
    p.add_argument("--fast", action="store_true", help="smaller instances")
    p.set_defaults(func=_cmd_experiments)

    p = sub.add_parser("serve", help="start the cut-query HTTP service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8008,
                   help="TCP port (0 = ephemeral; bound URL is printed)")
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool size for boosting trials")
    _add_preprocess_flag(p)
    _add_ampc_backend_flag(p)
    p.add_argument("--store-capacity", type=int, default=None,
                   help="max resident graphs (LRU eviction; default unbounded)")
    p.add_argument("--result-cache", type=int, default=256,
                   help="LRU capacity of the query-result cache")
    p.add_argument("--graph", action="append", metavar="NAME=PATH",
                   help="preload a graph file (repeatable)")
    p.add_argument("--shards", type=int, default=1,
                   help="partition the graph store across this many "
                        "worker processes by fingerprint (consistent "
                        "hashing; 1 = single-process)")
    p.add_argument("--max-inflight", type=int, default=64,
                   help="bounded in-flight request window; requests "
                        "beyond it queue, then shed with 429")
    p.add_argument("--max-queue", type=int, default=256,
                   help="bounded admission wait queue; a full queue "
                        "sheds immediately with 429 + Retry-After")
    p.add_argument("--queue-timeout", type=float, default=2.0,
                   help="seconds a request may wait for an in-flight "
                        "slot before being shed")
    p.add_argument("--retry-after", type=float, default=1.0,
                   help="Retry-After hint (seconds) sent with 429s")
    p.add_argument("--no-coalesce", action="store_true",
                   help="disable coalescing of identical in-flight "
                        "read queries")
    p.add_argument("--no-trace", action="store_true",
                   help="disable request tracing (GET /trace serves an "
                        "empty buffer; error bodies carry trace_id=null)")
    p.add_argument("--trace-capacity", type=int, default=4096,
                   help="span ring-buffer size (oldest spans drop first)")
    p.add_argument("--trace-out", type=Path, default=None,
                   help="on shutdown, write buffered spans to this JSONL file")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("loadgen",
                       help="open-loop load generator against a running "
                            "serve instance")
    p.add_argument("--url", default="http://127.0.0.1:8008")
    p.add_argument("--rate", type=float, default=50.0,
                   help="target arrival rate, requests/second")
    p.add_argument("--duration", type=float, default=5.0,
                   help="seconds of scheduled arrivals")
    p.add_argument("--max-inflight", type=int, default=16,
                   help="bounded concurrency window (worker threads)")
    p.add_argument("--mix", action="append", metavar="OP=WEIGHT",
                   help="traffic mix weight, e.g. --mix mincut=4 "
                        "(ops: mincut stcut gomoryhu sparsestcut mutate "
                        "batch upload; repeatable; gomoryhu/sparsestcut "
                        "default to 0)")
    p.add_argument("--graphs", type=int, default=2,
                   help="graphs registered as the query corpus")
    p.add_argument("--graph-n", type=int, default=48,
                   help="vertices per corpus graph")
    p.add_argument("--corpus", choices=["planted", "viecut"],
                   default="planted",
                   help="corpus family: planted-cut instances or the "
                        "VieCut literature shapes (clustered community / "
                        "near-regular expander / unbalanced planted)")
    p.add_argument("--seed", type=int, default=0,
                   help="schedule + payload RNG seed (same seed, same run)")
    p.add_argument("--probe", type=float, default=0.0,
                   help="seconds of closed-loop saturation probe after the "
                        "open-loop phase (0 = skip)")
    p.add_argument("--decrease-fraction", type=float, default=0.25,
                   help="fraction of mutate ops that decrease an edge "
                        "weight (exercises localized Gomory-Hu repair; "
                        "0 = increase-only)")
    p.add_argument("--output", type=Path, default=None,
                   help="write the JSON report here instead of stdout")
    p.add_argument("--slo", action="append", metavar="KEY=BOUND",
                   help="SLO gate, e.g. --slo mincut_p99_s=0.5 "
                        "--slo min_rps=20 (exit 1 on violation; keys: "
                        "<op>_p99_s min_rps max_error_rate "
                        "min_saturation_rps)")
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser("mutate",
                       help="apply edge deltas to a graph on a running "
                            "serve instance (in place)")
    p.add_argument("--url", default="http://127.0.0.1:8008")
    p.add_argument("--name", required=True, help="graph name on the server")
    p.add_argument("--add", action="append", metavar="U,V[,W]",
                   help="add (or reinforce) an edge, weight defaults to 1 "
                        "(repeatable)")
    p.add_argument("--remove", action="append", metavar="U,V",
                   help="remove an edge (must exist; repeatable)")
    p.add_argument("--reweight", action="append", metavar="U,V,W",
                   help="set an edge's weight outright; W=0 drops the edge "
                        "(repeatable)")
    p.add_argument("--deltas-json", type=Path, default=None,
                   help="JSON file with a delta object or a batched list "
                        "of deltas")
    p.add_argument("--expect-fingerprint", default=None,
                   help="apply only if the resident fingerprint matches "
                        "(optimistic concurrency; mismatch = HTTP 409)")
    p.set_defaults(func=_cmd_mutate)

    p = sub.add_parser("query", help="query a running serve instance")
    query_ops = _query_ops()
    p.add_argument("op", choices=["register", *query_ops, "graphs", "stats"])
    p.add_argument("--url", default="http://127.0.0.1:8008")
    p.add_argument("--name", help="graph name on the server")
    p.add_argument("--file", type=Path, help="graph file (register)")
    _add_query_flags(p, query_ops)
    p.set_defaults(func=_cmd_query)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
