"""The kernelization pipeline: exact, composable, liftable reductions.

Every reduction below preserves the minimum cut *weight* of the input
exactly, provided candidate cuts recorded along the way are folded back
in at lift time (:meth:`CutKernel.lift` always folds).  The catalogue,
with the safety argument for each rule:

R1 — **parallel-edge canonicalization** (ingestion).  A bundle of
    parallel edges crosses a cut exactly as its total weight, so
    :class:`~repro.graph.graph.Graph` merges parallel edges by weight
    sum at ``add_edge`` time and rejects self-loops (they never cross a
    cut).  All file readers (:mod:`repro.graph.io`,
    :mod:`repro.graph.formats`) canonicalize identically — duplicate
    lines merge by sum, self-loops and zero-weight edges are dropped —
    so the kernel pipeline always starts from a canonical simple graph.

R2 — **connected-component split** (cheapest-component shortcut).  A
    disconnected graph has minimum cut 0: any single component against
    the rest crosses nothing.  The kernel marks itself *solved* with
    the smallest component as the witness side; no solver runs at all.
    (Isolated-vertex removal is the special case of a singleton
    component.)

R3 — **degree-one contraction**.  A vertex ``v`` whose kernel block
    meets the rest of the graph through a single neighbour ``u`` (edge
    weight ``w``) admits exactly one class of cuts separating it from
    ``u``, all of weight >= ``w``; the singleton ``{v}`` achieves ``w``
    and is recorded as a candidate.  Contracting ``v`` into ``u`` then
    loses only cuts dominated by that candidate — exact.

R4 — **heavy-edge contraction** (VieCut rule).  Let ``lambda_hat`` be
    the weight of the best *recorded candidate* cut (initialised and
    refreshed from the minimum-weighted-degree singleton — the
    Matula/NI estimate).  Any cut separating the endpoints of an edge
    of weight ``w >= lambda_hat`` weighs at least ``w >= lambda_hat``,
    which the candidate already matches, so contracting the edge
    preserves ``min(candidates, mincut(kernel)) = mincut(original)``.

R5 — **NI connectivity contraction** (aggressive).  The scan-first
    search of :func:`repro.graph.sparsify.ni_edge_starts` certifies
    endpoint connectivity ``lambda(u, v) >= r(e) + w(e)``; every cut
    separating ``u`` from ``v`` weighs at least that, so edges with
    ``r(e) + w(e) >= lambda_hat`` contract by the same argument as R4
    — strictly more powerful, at the cost of one scan per round.

R6 — **NI certificate** (aggressive, final).  Replace the kernel by
    its Nagamochi–Ibaraki certificate at ``k = min weighted degree``
    (:func:`repro.graph.sparsify.sparsify_preserving_min_cut`): every
    minimum cut survives with exact weight while total capacity drops
    to at most ``k (n - 1)``.  This pass *reweights* edges, so it runs
    last — the contraction rules above reason about original weights
    and would be unsound downstream of a reweighting.

Float caveat (same one :meth:`repro.graph.Graph.fingerprint` makes):
reductions compare weight *sums*, so on weights that are not exactly
representable in binary the preserved minimum can drift by an ulp.
Reported results are nonetheless always honest — ``lift`` re-evaluates
the returned partition against the *original* graph, so the reported
weight equals the recomputed ``delta(S)`` of the reported side by
construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

import numpy as np

from ..graph import Cut, Graph, KCut, compose_blocks, lift_cut
from ..graph.dsu import contract_in_order
from ..graph.sparsify import ni_edge_starts, sparsify_preserving_min_cut

Vertex = Hashable

#: the three pipeline levels ``repro-cut --preprocess`` exposes
LEVELS = ("off", "safe", "aggressive")


def validate_level(level: str) -> str:
    """Normalise/validate a preprocessing level name.

    >>> validate_level(" Safe ")
    'safe'
    >>> validate_level(None)
    'off'
    >>> validate_level("turbo")
    Traceback (most recent call last):
        ...
    ValueError: unknown preprocess level 'turbo'; expected one of ('off', 'safe', 'aggressive')
    """
    if level is None:
        return "off"
    name = str(level).strip().lower()
    if name not in LEVELS:
        raise ValueError(
            f"unknown preprocess level {level!r}; expected one of {LEVELS}"
        )
    return name


@dataclass(frozen=True)
class ReductionStep:
    """Accounting record for one reduction pass.

    ``certificate`` records the local fact the pass relied on (e.g.
    ``("disconnected", k)`` for the component split, the contracted
    ``(leaf, neighbour)`` pairs for degree-one pruning, the
    ``lambda_hat`` threshold for certified contraction) so the
    mutation path (:func:`repro.preprocess.dynamic.refresh_kernel`)
    can judge which reductions a delta invalidates.  It is
    deliberately excluded from :meth:`as_dict`: response payloads stay
    byte-stable whether a kernel was built cold or refreshed.
    """

    name: str
    vertices_removed: int
    edges_removed: int
    candidates_recorded: int
    detail: str = ""
    certificate: tuple = ()

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "vertices_removed": self.vertices_removed,
            "edges_removed": self.edges_removed,
            "candidates_recorded": self.candidates_recorded,
            "detail": self.detail,
        }


class CutKernel:
    """A reduced graph plus the bookkeeping to lift cuts back.

    ``graph`` is the kernel; ``blocks`` maps each kernel vertex to the
    original vertices contracted into it (a partition of the original
    vertex set).  ``solved`` is set when the reductions alone determine
    the minimum cut (disconnected input, or a kernel collapsing below
    two vertices).  Candidate cuts recorded during reduction are always
    evaluated against the *original* graph and folded in by
    :meth:`lift`, which is what makes every rule exact.
    """

    def __init__(self, original: Graph, level: str):
        self.original = original
        self.level = level
        self.graph: Graph = original.copy()
        self.blocks: dict[Vertex, list[Vertex]] = {
            v: [v] for v in original.vertices()
        }
        self.steps: list[ReductionStep] = []
        self.solved: Cut | None = None
        self.candidates_recorded = 0
        self._best_candidate: Cut | None = None

    # ------------------------------------------------------------------
    # Candidates
    # ------------------------------------------------------------------
    def _record_candidate(self, side: Iterable[Vertex]) -> Cut:
        """Record a candidate cut of the *original* graph (exact eval)."""
        cut = Cut.of(self.original, side)
        self.candidates_recorded += 1
        if self._best_candidate is None or cut.weight < self._best_candidate.weight:
            self._best_candidate = cut
        return cut

    @property
    def best_candidate(self) -> Cut | None:
        """Lightest candidate cut recorded by the reductions, if any."""
        return self._best_candidate

    @property
    def is_solved(self) -> bool:
        """True when no solver needs to run on the kernel at all."""
        return self.solved is not None or self.graph.num_vertices < 2

    # ------------------------------------------------------------------
    # Lifting
    # ------------------------------------------------------------------
    def lift_side(self, side: Iterable[Vertex]) -> frozenset:
        """Pure side expansion: kernel vertices -> original vertices."""
        out: set = set()
        for rep in side:
            try:
                out.update(self.blocks[rep])
            except KeyError:
                raise KeyError(f"vertex {rep!r} is not a kernel vertex") from None
        return frozenset(out)

    def lift(self, side: Iterable[Vertex]) -> Cut:
        """Lift a kernel cut to an exact cut of the original graph.

        Expands the side through the contraction map, re-evaluates its
        weight on the original graph, and folds in the best recorded
        candidate — the folding is load-bearing: when the minimum cut
        was consumed by a reduction (e.g. the min-degree singleton when
        ``delta = lambda``), the candidate *is* the minimum cut.
        """
        lifted = Cut.of(self.original, self.lift_side(side))
        best = self._best_candidate
        if best is not None and best.weight < lifted.weight:
            return best
        return lifted

    def trivial_cut(self) -> Cut:
        """The answer when :attr:`is_solved` — raises if undefined."""
        if self.solved is not None:
            return self.solved
        if self._best_candidate is not None:
            return self._best_candidate
        raise ValueError("min cut needs n >= 2")

    def solve(self, solver: Callable[[Graph], object]) -> Cut:
        """Run ``solver`` on the kernel and lift its cut to the original.

        ``solver`` takes a connected graph with ``n >= 2`` and returns
        either a :class:`~repro.graph.Cut` or an object with a ``cut``
        attribute (every result type in this library).  Solved kernels
        (disconnected input, fully collapsed kernel) never invoke it.
        """
        if self.is_solved:
            return self.trivial_cut()
        res = solver(self.graph)
        cut = res if isinstance(res, Cut) else res.cut
        return self.lift(cut.side)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-able summary (kernel line of query responses / CLI)."""
        n0, m0 = self.original.num_vertices, self.original.num_edges
        nk, mk = self.graph.num_vertices, self.graph.num_edges
        return {
            "level": self.level,
            "original_vertices": n0,
            "original_edges": m0,
            "kernel_vertices": nk,
            "kernel_edges": mk,
            "vertex_shrink": n0 / max(1, nk),
            "edge_shrink": m0 / max(1, mk),
            "solved": self.is_solved,
            "solved_weight": self.solved.weight if self.solved is not None else None,
            "candidates_recorded": self.candidates_recorded,
            "best_candidate_weight": (
                self._best_candidate.weight
                if self._best_candidate is not None
                else None
            ),
            "steps": [s.as_dict() for s in self.steps],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CutKernel(level={self.level!r}, "
            f"{self.original.num_vertices}->{self.graph.num_vertices} vertices, "
            f"{self.original.num_edges}->{self.graph.num_edges} edges, "
            f"solved={self.is_solved})"
        )


# ----------------------------------------------------------------------
# The pipeline driver
# ----------------------------------------------------------------------
def kernelize(graph: Graph, *, level: str = "safe") -> CutKernel:
    """Reduce ``graph`` for minimum-cut solving at the given level.

    ``off`` returns an identity kernel (uniform code path); ``safe``
    runs R2–R4; ``aggressive`` adds the NI contraction rule R5 and the
    final NI certificate R6.  Exact at every level — see the module
    docstring for the per-rule argument.

    >>> from repro.graph import Graph
    >>> g = Graph(edges=[(0, 1, 2.0), (1, 2, 2.0), (2, 0, 2.0),
    ...                  (2, 3, 1.0)])          # triangle + pendant 3
    >>> kernel = kernelize(g, level="safe")
    >>> kernel.graph.num_vertices                # pendant contracted away
    2
    >>> kernel.best_candidate.weight             # the {3} singleton cut
    1.0
    >>> kernel.lift([kernel.graph.vertices()[0]]).weight
    1.0
    """
    level = validate_level(level)
    kernel = CutKernel(graph, level)
    if level == "off" or graph.num_vertices < 2:
        return kernel

    _split_components(kernel)
    if kernel.solved is not None:
        return kernel

    # Alternate structural passes to a fixpoint: contraction exposes
    # new degree-one vertices and lowers the candidate bound, which in
    # turn certifies more contractions.  Each round strictly shrinks
    # the kernel, so the loop runs at most n times.
    while kernel.graph.num_vertices > 2:
        changed = _prune_degree_one(kernel)
        changed += _contract_certified_edges(
            kernel, use_ni=(level == "aggressive")
        )
        if not changed:
            break

    if level == "aggressive":
        _ni_certificate_pass(kernel)
    return kernel


def solve_min_cut(
    graph: Graph,
    solver: Callable[[Graph], object],
    *,
    level: str = "safe",
) -> Cut:
    """Kernelize, solve on the kernel, lift — the shared solver wrapper.

    The one-liner behind ``repro-cut mincut --preprocess`` for the
    serial baselines: exact solvers stay exact (the reductions preserve
    the minimum-cut weight and ``lift`` folds the candidates back in),
    approximate solvers keep their guarantee while running on a smaller
    graph.

    >>> from repro.baselines import stoer_wagner_min_cut
    >>> from repro.graph import Graph
    >>> g = Graph(edges=[(0, 1, 3.0), (1, 2, 1.0), (2, 3, 3.0), (3, 0, 3.0)])
    >>> solve_min_cut(g, stoer_wagner_min_cut, level="safe").weight
    4.0
    """
    return kernelize(graph, level=level).solve(solver)


# ----------------------------------------------------------------------
# R2 — connected components (cheapest-component shortcut)
# ----------------------------------------------------------------------
def _split_components(kernel: CutKernel) -> None:
    comps = kernel.graph.components()
    if len(comps) < 2:
        return
    # All components give cut weight 0; the smallest is the cheapest
    # witness to materialise (ties broken by the deterministic
    # min-internal-index order Graph.components() yields).
    cheapest = min(comps, key=len)
    kernel.solved = Cut.of(kernel.original, kernel.lift_side(cheapest))
    kernel.steps.append(
        ReductionStep(
            name="component-split",
            vertices_removed=0,
            edges_removed=0,
            candidates_recorded=0,
            detail=(
                f"{len(comps)} components: min cut is 0, witnessed by the "
                f"smallest component ({len(cheapest)} vertices)"
            ),
            certificate=("disconnected", len(comps)),
        )
    )


# ----------------------------------------------------------------------
# R3 — degree-one contraction
# ----------------------------------------------------------------------
def _prune_degree_one(kernel: CutKernel) -> int:
    """Contract degree-one kernel vertices into their neighbours."""
    g = kernel.graph
    # Vectorized emptiness precheck: edge rows are canonical unique
    # pairs, so a vertex's incident-row count equals its neighbour
    # count — no count of 1 means no degree-one vertex and the O(n + m)
    # python adjacency build below can be skipped entirely.  This is
    # what keeps a no-op kernelization pass (and the mutation path's
    # "no-reduction" refresh rule) genuinely cheap.
    n = g.num_vertices
    if n == 0:
        return 0
    us, vs, _ws = g.edge_arrays()
    counts = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)
    if not np.any(counts == 1):
        return 0
    adj = {v: dict(nbrs) for v, nbrs in g.adjacency().items()}
    blocks = kernel.blocks
    queue = deque(v for v in adj if len(adj[v]) == 1)
    removed = 0
    candidates = 0
    contracted: list[tuple[Vertex, Vertex]] = []
    while queue and len(adj) > 2:
        v = queue.popleft()
        if v not in adj or len(adj[v]) != 1:
            continue
        ((u, _w),) = adj[v].items()
        # Candidate: the block of v as a cut of the original — the only
        # cuts the contraction loses are those separating v from u, all
        # of weight >= w = this candidate's weight.
        kernel._record_candidate(blocks[v])
        candidates += 1
        blocks[u].extend(blocks.pop(v))
        del adj[v]
        del adj[u][v]
        removed += 1
        contracted.append((v, u))
        if len(adj[u]) == 1:
            queue.append(u)
    if not removed:
        return 0
    old_edges = g.num_edges
    # Surviving vertices keep their relative order, so the masked
    # column slice equals the old rebuild-by-add_edge graph exactly.
    kernel.graph = g.induced_subgraph(adj)
    kernel.steps.append(
        ReductionStep(
            name="degree-one",
            vertices_removed=removed,
            edges_removed=old_edges - kernel.graph.num_edges,
            candidates_recorded=candidates,
            detail=f"contracted {removed} degree-one vertices",
            certificate=("degree-one", tuple(contracted)),
        )
    )
    return removed


# ----------------------------------------------------------------------
# R4 / R5 — certified-edge contraction rounds
# ----------------------------------------------------------------------
def _min_degree_vertex(g: Graph) -> Vertex:
    """Deterministic argmin of weighted degree (first index wins ties)."""
    return g.vertices()[int(np.argmin(g.degree_vector()))]


def _contract_certified_edges(kernel: CutKernel, *, use_ni: bool) -> int:
    """One round of R4 (+R5): contract edges certified >= lambda_hat.

    ``lambda_hat`` is the best candidate's weight *in the original
    graph*; since the kernel is a pure quotient at this point, kernel
    cut weights equal original lifted weights, so any cut destroyed by
    contracting a certified edge weighs at least ``lambda_hat`` — which
    the recorded candidate already achieves.
    """
    g = kernel.graph
    n = g.num_vertices
    if n <= 2:
        return 0
    # Refresh the estimate: the minimum weighted degree is itself a cut
    # of the original (singleton block), and contraction may have
    # produced a block whose boundary is lighter than anything seen.
    kernel._record_candidate(kernel.blocks[_min_degree_vertex(g)])
    lam = kernel._best_candidate.weight

    us, vs, ws = g.edge_arrays()
    certs = ws if not use_ni else ni_edge_starts(g).levels_for(g) + ws
    hit = np.flatnonzero(certs >= lam)
    if len(hit) == 0:
        return 0
    # Contract strongest certificates first (ties by endpoint index,
    # then edge row — the (-cert, u, eid) sort order), never below 2
    # vertices (the guard keeps the kernel a valid solver input;
    # stopping early is always allowed — contracting any subset of
    # certified edges is exact).
    hit = hit[np.lexsort((hit, us[hit], -certs[hit]))]

    contracted = contract_in_order(g, us[hit], vs[hit], floor=2)
    if contracted is None:
        return 0
    quotient, new_blocks, removed = contracted
    kernel.blocks = compose_blocks(kernel.blocks, new_blocks)
    kernel.graph = quotient
    kernel.steps.append(
        ReductionStep(
            name="ni-contraction" if use_ni else "heavy-edge",
            vertices_removed=removed,
            edges_removed=g.num_edges - quotient.num_edges,
            candidates_recorded=1,
            detail=(
                f"contracted {removed} vertices via edges certified "
                f">= lambda_hat={lam:g}"
            ),
            certificate=("lambda_hat", lam),
        )
    )
    return removed


# ----------------------------------------------------------------------
# R6 — final NI certificate (aggressive only)
# ----------------------------------------------------------------------
def _ni_certificate_pass(kernel: CutKernel) -> None:
    g = kernel.graph
    if g.num_vertices <= 2 or g.num_edges == 0:
        return
    cert = sparsify_preserving_min_cut(g)
    if cert.num_edges >= g.num_edges:
        return
    kernel.steps.append(
        ReductionStep(
            name="ni-certificate",
            vertices_removed=0,
            edges_removed=g.num_edges - cert.num_edges,
            candidates_recorded=0,
            detail=(
                f"NI certificate at k = min degree: {g.num_edges} -> "
                f"{cert.num_edges} edges (reweighted; every minimum cut "
                "preserved exactly)"
            ),
            certificate=("ni-sparsify", g.num_edges, cert.num_edges),
        )
    )
    kernel.graph = cert


# ======================================================================
# Min k-Cut kernelization (the k-cut-safe subset)
# ======================================================================
class KCutKernel:
    """Kernel for Min k-Cut: heavy-edge contraction above a known k-cut.

    The min-cut reductions are *not* k-cut safe (a degree-one vertex
    may be its own part in an optimal k-cut), so this kernel applies
    only the rule that is: contracting an edge of weight >= the weight
    of a *known* k-cut.  Any k-way partition separating the endpoints
    crosses that edge, so it weighs at least as much as the recorded
    candidate; partitions keeping them together survive contraction
    with exact weight.  Hence ``min(candidate, min-k-cut(kernel)) =
    min-k-cut(original)`` — the optimum weight is preserved exactly,
    though the (4+eps) greedy may legitimately walk a different path on
    the smaller graph.
    """

    def __init__(self, original: Graph, k: int, level: str):
        self.original = original
        self.k = k
        self.level = level
        self.graph: Graph = original
        self.blocks: dict[Vertex, list[Vertex]] = {
            v: [v] for v in original.vertices()
        }
        self.candidate: KCut | None = None
        self.contracted = 0

    @property
    def reduced(self) -> bool:
        return self.contracted > 0

    def lift(self, parts: Iterable[Iterable[Vertex]]) -> KCut:
        """Lift a kernel partition; folds the candidate if lighter."""
        lifted = KCut.of(
            self.original, [lift_cut(self.blocks, part) for part in parts]
        )
        if self.candidate is not None and self.candidate.weight < lifted.weight:
            return self.candidate
        return lifted

    def stats(self) -> dict:
        return {
            "level": self.level,
            "k": self.k,
            "original_vertices": self.original.num_vertices,
            "original_edges": self.original.num_edges,
            "kernel_vertices": self.graph.num_vertices,
            "kernel_edges": self.graph.num_edges,
            "contracted": self.contracted,
            "candidate_weight": (
                self.candidate.weight if self.candidate is not None else None
            ),
        }


def kernelize_for_kcut(
    graph: Graph, k: int, *, level: str = "safe"
) -> KCutKernel:
    """Contract edges no optimal k-cut can cross (weight >= candidate).

    The candidate k-cut cutting the ``k - 1`` lightest-degree vertices
    loose bounds the optimum from above; every edge at least that heavy
    is safe to contract (see :class:`KCutKernel`).  Contraction never
    drops the kernel below ``k`` vertices.  Both non-``off`` levels
    apply the same rule — there is no aggressive extra for k-cut.
    Like :func:`~repro.core.apx_split_kcut`, it needs ``1 <= k <= n``.
    """
    n = graph.num_vertices
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    level = validate_level(level)
    kernel = KCutKernel(graph, k, level)
    if level == "off" or not 2 <= k < n:
        return kernel

    # Candidate: k-1 lightest singletons against the rest.
    vertices = graph.vertices()
    deg = graph.degree_vector()
    by_degree = np.lexsort((np.arange(n), deg))  # (degree, index) order
    singles = [vertices[i] for i in by_degree[: k - 1].tolist()]
    single_set = set(singles)
    rest = [v for v in vertices if v not in single_set]
    kernel.candidate = KCut.of(graph, [[v] for v in singles] + [rest])
    bound = kernel.candidate.weight
    if bound <= 0:  # >= k components already: optimum is 0, nothing to do
        return kernel

    us, vs, ws = graph.edge_arrays()
    hit = np.flatnonzero(ws >= bound)
    if len(hit) == 0:
        return kernel
    # Heaviest first, ties by endpoint indices — the (-w, iu, iv) sort.
    hit = hit[np.lexsort((vs[hit], us[hit], -ws[hit]))]
    contracted = contract_in_order(graph, us[hit], vs[hit], floor=k)
    if contracted is not None:
        kernel.graph, kernel.blocks, kernel.contracted = contracted
    return kernel
