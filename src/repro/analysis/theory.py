"""Predicted curves and envelopes from the paper's theorems.

Each function returns the theoretical quantity an experiment compares
its measurements against — with explicit constants, because "O(...)"
cannot be measured.  Constants are chosen once, documented here, and
asserted by the test suite; EXPERIMENTS.md reports measured/envelope
ratios so drift is visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def loglog_rounds_envelope(n: int, eps: float, *, per_level: int = 12) -> float:
    """Theorem 1 envelope: AMPC rounds <= per_level * (log log n + O(1/eps)).

    ``per_level`` bounds the constant number of rounds one recursion
    level costs (MST + decomposition + level tuples + bookkeeping, each
    ``ceil(1/eps)`` rounds plus small change).
    """
    loglog = math.log2(max(2.0, math.log2(max(4, n))))
    return per_level * (3 * loglog + 3.0 / eps + 4)


def mpc_rounds_prediction(n: int, *, level_constant: int = 2) -> float:
    """G&N MPC model: ~ level_constant * log n * log log n."""
    logn = math.log2(max(2, n))
    loglog = math.log2(max(2.0, logn))
    return level_constant * logn * (loglog + 2)


def decomposition_height_envelope(n: int) -> int:
    """Lemma 3 / Observation 6: height <= (floor(log2 n) + 1)^2."""
    log = math.floor(math.log2(max(2, n))) + 1
    return log * log


def karger_preservation_lower_bound(t: float) -> float:
    """Lemma 1: contracting to n/t preserves a fixed min cut w.p. >= ~1/t^2.

    The precise Karger bound for contracting an n-vertex graph down to
    n/t vertices is ``binom(n/t, 2) / binom(n, 2) ~ 1/t^2``; we return
    the asymptotic form (the experiments use n >> t so the difference
    is in the noise).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    return 1.0 / (t * t)


def singleton_aware_lower_bound(t: float, eps: float) -> float:
    """Lemma 2: singleton-aware success probability >= 1/t^(1 - eps/3)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    return 1.0 / (t ** (1.0 - eps / 3.0))


def mincut_approx_bound(eps: float) -> float:
    """Theorem 1 approximation factor."""
    return 2.0 + eps


def kcut_approx_bound(eps: float) -> float:
    """Theorem 2 approximation factor."""
    return 4.0 + eps


def sv_approx_bound(k: int) -> float:
    """Saran–Vazirani factor (2 - 2/k)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return 2.0 - 2.0 / k


def local_memory_envelope(
    n: int, eps: float, *, m: int | None = None, constant: int = 8
) -> int:
    """Fully-scalable local memory: constant * N^eps words (+ floor).

    ``N = n + m`` is the input size; ``m`` defaults to ``n`` matching
    :class:`~repro.ampc.config.AMPCConfig`.
    """
    big_n = n + (m if m is not None else n)
    return max(64, constant * math.ceil(big_n**eps))


def total_space_envelope(n: int, m: int, *, constant: int = 16) -> int:
    """Theorem 3 total space: constant * (n + m) * log^2 n words."""
    logn = max(1.0, math.log2(max(2, n)))
    return math.ceil(constant * (n + m) * logn * logn)


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of measurements against a model curve."""

    scale: float
    intercept: float
    residual: float

    def predict(self, x: float) -> float:
        return self.scale * x + self.intercept


def fit_against(xs: list[float], ys: list[float]) -> FitResult:
    """Fit ``y ~ a*x + b``; used to check measured-rounds *shape*.

    E.g. pass ``x = log log n`` and measured AMPC rounds: a good
    Theorem-1 reproduction gives a small residual and a modest ``a``.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need >= 2 paired points")
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("degenerate x values")
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    a = sxy / sxx
    b = my - a * mx
    residual = math.sqrt(
        sum((y - (a * x + b)) ** 2 for x, y in zip(xs, ys)) / n
    )
    return FitResult(scale=a, intercept=b, residual=residual)


def loglog(n: int) -> float:
    """Convenience: log2 log2 n (clamped)."""
    return math.log2(max(2.0, math.log2(max(4, n))))
