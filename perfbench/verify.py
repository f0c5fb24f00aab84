"""Answer checks for served payloads, computed outside the timed region.

Every check takes the decoded payload and the client's own copy of the
graph the answer was computed on, and returns an error string (``None``
when the answer is right).  References share no solver with the served
path: Stoer–Wagner for the global min cut; the push–relabel max-flow
engine (the server uses Dinic) for s–t values and, through a Gomory–Hu
tree built on it, for the all-pairs matrix, whose pair values are read
off the tree here rather than by the program's own sweep; and direct
recomputation of cut and sparsity values from returned sides.
"""

from __future__ import annotations

import math

from repro.baselines.stoer_wagner import stoer_wagner_min_cut
from repro.flow import gomory_hu_tree
from repro.flow.push_relabel import min_st_cut_push_relabel
from repro.graph import Graph

#: the (2+eps) guarantee of boosted Algorithm 1 at the served default
MINCUT_EPS = 0.5


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def build_graph(vertices, edges) -> Graph:
    """The client's copy of an uploaded ``{"vertices", "edges"}`` body."""
    graph = Graph(vertices=vertices)
    for u, v, w in edges:
        graph.add_edge(u, v, w)
    return graph


class Reference:
    """Lazily computed exact references for one graph state.

    ``pairs_from_tree`` fixes how s–t values are answered, once per
    graph state: from the Gomory–Hu tree (cheapest when a state sees
    many pairs) or by one max-flow per pair (cheapest when it sees a
    few).  Both use the push–relabel engine.
    """

    def __init__(self, graph: Graph, *, pairs_from_tree: bool = True):
        self.graph = graph
        self.pairs_from_tree = pairs_from_tree
        self._lambda = None
        self._pairs = None

    @property
    def min_cut(self) -> float:
        if self._lambda is None:
            self._lambda = stoer_wagner_min_cut(self.graph).weight
        return self._lambda

    @property
    def pairs(self) -> dict:
        """``{u: {v: min u–v cut}}`` from a push–relabel Gomory–Hu tree."""
        if self._pairs is None:
            self._pairs = tree_pairs(
                gomory_hu_tree(self.graph, engine="push_relabel"))
        return self._pairs

    def st_value(self, s, t) -> float:
        if self.pairs_from_tree:
            return self.pairs[s][t]
        return min_st_cut_push_relabel(self.graph, s, t).value


def tree_pairs(tree) -> dict:
    """Every pairwise path minimum of a Gomory–Hu tree, by a walk from
    each vertex (kept apart from ``GomoryHuTree.all_pairs_min_cuts``,
    which the served path uses)."""
    adjacent: dict = {}
    for e in tree.edges:
        adjacent.setdefault(e.child, []).append((e.parent, e.weight))
        adjacent.setdefault(e.parent, []).append((e.child, e.weight))
    pairs = {}
    for source in adjacent:
        row = pairs[source] = {source: math.inf}
        todo = [source]
        while todo:
            u = todo.pop()
            for v, w in adjacent[u]:
                if v not in row:
                    row[v] = min(row[u], w)
                    todo.append(v)
        del row[source]
    return pairs


def check_upload(payload: dict, graph: Graph,
                 fingerprint: str | None = None) -> str | None:
    if payload.get("num_vertices") != graph.num_vertices:
        return f"upload: n={payload.get('num_vertices')} != {graph.num_vertices}"
    if payload.get("num_edges") != graph.num_edges:
        return f"upload: m={payload.get('num_edges')} != {graph.num_edges}"
    if fingerprint is not None and payload.get("fingerprint") != fingerprint:
        return "upload: the same edge list got a different fingerprint"
    return None


def check_mutate(payload: dict, graph: Graph, generation: int) -> str | None:
    if payload.get("num_edges") != graph.num_edges:
        return f"mutate: m={payload.get('num_edges')} != {graph.num_edges}"
    if payload.get("generation") != generation:
        return f"mutate: generation {payload.get('generation')} != {generation}"
    return None


def check_mincut(payload: dict, ref: Reference) -> str | None:
    weight = payload["weight"]
    side = payload["side"]
    if not 0 < len(side) < ref.graph.num_vertices:
        return f"mincut: side of {len(side)} vertices is not a proper cut"
    if not close(ref.graph.cut_weight(side), weight):
        return f"mincut: side weighs {ref.graph.cut_weight(side)}, says {weight}"
    lam = ref.min_cut
    if weight < lam - 1e-9 or weight > (2 + MINCUT_EPS) * lam + 1e-9:
        return f"mincut: {weight} outside [{lam}, {(2 + MINCUT_EPS) * lam}]"
    return None


def check_kcut(payload: dict, graph: Graph, k: int) -> str | None:
    parts = payload["parts"]
    if len(parts) != k or any(not p for p in parts):
        return f"kcut: {len(parts)} parts, want {k} nonempty"
    covered = [v for p in parts for v in p]
    if sorted(covered) != sorted(graph.vertices()):
        return "kcut: parts do not partition the vertex set"
    if not close(graph.partition_cut_weight(parts), payload["weight"]):
        return (
            f"kcut: parts weigh {graph.partition_cut_weight(parts)}, "
            f"says {payload['weight']}"
        )
    return None


def check_stcut(payload: dict, ref: Reference, s, t) -> str | None:
    if (payload.get("s"), payload.get("t")) != (s, t):
        return f"stcut: answered ({payload.get('s')}, {payload.get('t')}) for ({s}, {t})"
    expected = ref.st_value(s, t)
    if not close(payload["weight"], expected):
        return f"stcut({s},{t}): {payload['weight']} != {expected}"
    return None


def check_gomoryhu(payload: dict, ref: Reference) -> str | None:
    pairs = ref.pairs
    vertices = payload["vertices"]
    matrix = payload["matrix"]
    if sorted(vertices) != sorted(ref.graph.vertices()):
        return "gomoryhu: vertex list differs from the graph"
    for i, u in enumerate(vertices):
        row = matrix[i]
        for j, v in enumerate(vertices):
            if i == j:
                continue
            if not close(row[j], pairs[u][v]):
                return f"gomoryhu[{u}][{v}]: {row[j]} != {pairs[u][v]}"
    tree = payload["tree"]
    if len(tree) != len(vertices) - 1:
        return f"gomoryhu: tree has {len(tree)} edges for n={len(vertices)}"
    return None


def check_sparsest(payload: dict, graph: Graph) -> str | None:
    side = payload["side"]
    n = graph.num_vertices
    if not 0 < len(side) < n:
        return f"sparsestcut: side of {len(side)} vertices is not a proper cut"
    weight = graph.cut_weight(side)
    sparsity = weight / (len(side) * (n - len(side)))
    if not close(sparsity, payload["sparsity"]):
        return f"sparsestcut: side has sparsity {sparsity}, says {payload['sparsity']}"
    # singletons are among the solver's candidates, so the answer can
    # never be worse than the best singleton cut
    best_singleton = min(graph.cut_weight([v]) for v in graph.vertices()) / (n - 1)
    if sparsity > best_singleton + 1e-9:
        return f"sparsestcut: {sparsity} worse than a singleton cut {best_singleton}"
    return None
