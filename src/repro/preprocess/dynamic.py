"""Incremental kernel maintenance for the serving layer's mutation path.

The serving layer treats its kernel cache as **bit-exact**: a kernel
served warm must equal ``kernelize(mutated_graph, level)`` in every bit
(edge rows included — they order the randomness downstream solvers
draw).  That rules out patching a cached kernel in place: quotient
weights are float sums in row order, so replaying a reduction on
slightly different inputs can differ in the last ulp from the cold
trajectory.  Instead, every refresh rule here ends by calling
:func:`repro.preprocess.kernelize` itself — the reference — so a
refreshed kernel is bit-identical *by construction*, and the recorded
reduction certificates (:class:`repro.preprocess.ReductionStep`'s
``certificate`` field) only decide **whether** an eager re-run is
cheap enough to beat dropping the cache entry and rekernelizing lazily
on the next query.

Rules, in order:

* ``"off"`` — the kernel is an identity wrapper; a fresh identity over
  the mutated graph *is* the full rebuild, for free.
* ``"component-split"`` — the mutated graph is disconnected, so a
  re-kernelization short-circuits at R2 (one vectorized components
  pass, cheapest-component witness) without ever reaching the
  contraction rounds.  This subsumes the historical
  "still-disconnected" certificate and extends it to deltas that *add*
  edges without reconnecting the graph.
* ``"no-reduction"`` — at the ``safe`` level, when the mutated graph
  has no degree-one vertex (vectorized incident-row count) and its
  heaviest edge weighs less than its minimum weighted degree, a
  re-kernelization records one candidate and contracts nothing — one
  vectorized pass per rule, so running it eagerly is cheap.  (The
  checks gate cost only; exactness never depends on them.)
* ``"rebuild"`` — anything else: the contraction trajectory (candidate
  argmins, ``lambda_hat``, certified-edge sets) is a global function
  of the weights, so no local certificate can prove a cheap replay;
  the caller drops the cache entry and the next query rekernelizes.

``refresh_kernel`` returns ``(refreshed_or_None, rule)``; the store
counts the reduction steps of eagerly refreshed kernels as
``reductions_replayed`` (surfaced in ``/stats`` and per-mutation
``invalidation`` blocks).
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph
from .kernel import CutKernel, kernelize

__all__ = ["refresh_kernel"]


def _no_reduction_applies(graph: Graph) -> bool:
    """True when a safe-level kernelization of ``graph`` is a no-op.

    Two vectorized checks mirror the reduction preconditions: R3 needs
    a vertex with exactly one incident edge row (rows are canonical
    unique pairs, so incident-row count equals neighbour count), and
    R4's first round certifies edges of weight ``>= lambda_hat`` where
    ``lambda_hat`` is the minimum weighted degree (the only candidate
    recorded before any contraction).  No degree-one vertex and every
    edge strictly below the minimum degree ⇒ both passes return empty
    and the kernel is the graph itself.
    """
    n = graph.num_vertices
    us, vs, ws = graph.edge_arrays()
    if len(ws) == 0 or n == 0:
        return False
    counts = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)
    if counts.min() < 2:
        return False
    return float(ws.max()) < float(graph.degree_vector().min())


def refresh_kernel(
    kernel: CutKernel, graph: Graph
) -> tuple[CutKernel | None, str]:
    """Refresh a cached kernel after an in-place mutation of ``graph``.

    Returns ``(refreshed, rule)`` where ``refreshed`` is a kernel
    bit-identical to ``kernelize(graph, level=kernel.level)`` when a
    cheap eager rule applies, or ``None`` (rule ``"rebuild"``) when
    the caller should drop the cache entry and rekernelize lazily.

    >>> from repro.graph import Graph
    >>> from repro.preprocess import kernelize
    >>> g = Graph(edges=[(0, 1, 1.0), (2, 3, 1.0)])   # two components
    >>> kernel = kernelize(g, level="safe")
    >>> g.set_edge_weight(0, 1, 4.0)                  # still disconnected
    1.0
    >>> fresh, rule = refresh_kernel(kernel, g)
    >>> rule, fresh.is_solved
    ('component-split', True)
    >>> g.add_edge(1, 2, 2.0)                          # reconnect: rebuild
    >>> refresh_kernel(kernel, g)
    (None, 'rebuild')
    >>> cycle = Graph(edges=[(0, 1, 1.0), (1, 2, 1.0),
    ...                      (2, 3, 1.0), (3, 0, 1.0)])
    >>> refresh_kernel(kernelize(cycle, level="safe"), cycle)[1]
    'no-reduction'
    """
    if kernel.level == "off":
        return CutKernel(graph, "off"), "off"
    if graph.num_vertices >= 2 and len(graph.components()) > 1:
        return kernelize(graph, level=kernel.level), "component-split"
    if (
        kernel.level == "safe"
        and graph.num_vertices >= 3
        and _no_reduction_applies(graph)
    ):
        return kernelize(graph, level=kernel.level), "no-reduction"
    return None, "rebuild"
