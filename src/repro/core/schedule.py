"""The Ghaffari–Nowicki branching schedule (Section 2's recurrence).

Algorithm 1 recursion bookkeeping.  At recursion level ``k`` (counting
from the input), instances have size ``n / t_k``; the level spawns
``x_k^(1 - eps/3)`` copies of each instance and contracts each copy by
a factor ``x_k``, where the space budget forces
``x_k <= t_k^((eps/3) / (1 - eps/3))``.  Unrolling:

    t_0 = t0,   x_k = t_k ** delta,   t_{k+1} = t_k * x_k
    with delta = (eps/3) / (1 - eps/3).

Contraction factors are *fractional* — the recurrence gives
``t_k = t_0 ** (1 + delta) ** k``, i.e. ``log t`` grows geometrically,
so a constant-size instance is reached after
``O(log log n / log(1 + delta)) = O(log log n / eps)`` levels — the
paper's depth bound with its 1/eps constant explicit.  (Flooring ``x``
to an integer would collapse the early levels to plain halving and
yield ``Theta(log n)`` depth — a subtle infidelity the depth tests
catch.)  :func:`schedule_for` materialises the whole schedule so tests
and the E1 benchmark can assert the depth envelope explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ScheduleLevel:
    """One recursion level of Algorithm 1."""

    index: int
    instance_size: int  # n / t_k (rounded)
    t: float  # cumulative contraction factor t_k
    x: float  # this level's (fractional) contraction factor x_k
    copies: int  # number of copies spawned per instance, ~x_k^(1-eps/3)


@dataclass(frozen=True)
class RecursionSchedule:
    """The full unrolled schedule for input size ``n``."""

    n: int
    eps: float
    base_size: int
    levels: tuple[ScheduleLevel, ...]

    @property
    def depth(self) -> int:
        return len(self.levels)

    def depth_envelope(self) -> int:
        """Explicit ``O(log log n + 1/eps)`` bound asserted by tests."""
        loglog = math.log2(max(2.0, math.log2(max(4, self.n))))
        return math.ceil(3 * loglog + 3 / self.delta() + 4)

    def delta(self) -> float:
        return (self.eps / 3.0) / (1.0 - self.eps / 3.0)


def schedule_for(
    n: int,
    *,
    eps: float = 0.5,
    base_size: int | None = None,
    t0: float = 2.0,
    max_copies: int = 8,
) -> RecursionSchedule:
    """Unroll the branching schedule for an ``n``-vertex input.

    ``base_size`` defaults to ``ceil(n ** eps)`` — Algorithm 1's
    "solve on a single machine once |G| <= n^eps" base case.
    ``max_copies`` caps the per-level branching for simulation
    tractability (the cap affects success probability, never
    correctness — every candidate cut returned is a real cut); a level
    branches into at least 2 copies, so the cap must be at least 2.
    """
    if n < 2:
        raise ValueError("schedule needs n >= 2")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if max_copies < 2:
        raise ValueError(f"max_copies must be >= 2, got {max_copies}")
    if base_size is not None and base_size < 1:
        raise ValueError(f"base_size must be >= 1, got {base_size}")
    if base_size is None:
        base_size = max(4, math.ceil(n**eps))
    delta = (eps / 3.0) / (1.0 - eps / 3.0)

    levels: list[ScheduleLevel] = []
    t = max(2.0, t0)
    size = n
    index = 0
    while size > base_size:
        # Fractional contraction factor per the space recurrence, with a
        # small floor guaranteeing progress on the first levels.
        x = max(t**delta, 1.0 + delta / 2.0)
        copies = max(2, min(max_copies, round(x ** (1.0 - eps / 3.0))))
        t = t * x
        new_size = max(base_size, math.ceil(n / t))
        levels.append(
            ScheduleLevel(
                index=index, instance_size=size, t=t, x=x, copies=copies
            )
        )
        if new_size >= size:  # guard: force progress on tiny inputs
            new_size = max(base_size, size - 1)
        size = new_size
        index += 1
        if index > 40 * (math.ceil(math.log2(n)) + 2):  # safety valve
            raise RuntimeError("schedule failed to converge")
    return RecursionSchedule(
        n=n, eps=eps, base_size=base_size, levels=tuple(levels)
    )
