"""AMPC model configuration.

The model parameters follow Section 1.1 of the paper:

* the input has size ``N`` (for graph problems, ``N = n + m``);
* every machine has local memory ``O(n^eps)`` words for a constant
  ``0 < eps < 1`` (the *fully scalable* regime);
* there are ``P = Theta~(N^(1-eps))`` machines;
* total space across all distributed hash tables is ``O~(N)`` — the
  specific algorithms in the paper use up to ``O((n+m) log^2 n)``.

:class:`AMPCConfig` turns the asymptotic statement into concrete word
budgets via explicit constants, so the simulator can *enforce* them and
benchmarks can report measured/budget ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property


def _ceil_pow(n: int, exponent: float) -> int:
    """``ceil(n ** exponent)`` computed in floating point, min 1."""
    if n <= 1:
        return 1
    return max(1, math.ceil(n ** exponent))


@dataclass(frozen=True)
class AMPCConfig:
    """Concrete AMPC resource budgets for an input of size ``n_input``.

    Parameters
    ----------
    n_input:
        Problem-size parameter ``n`` the asymptotics are measured in.
        For the cut algorithms this is the number of vertices; budgets
        involving edges scale off :attr:`m_input`.
    eps:
        The fully-scalable memory exponent, ``0 < eps < 1``.  Local
        memory is ``local_constant * n ** eps`` words and most
        primitives finish in ``ceil(1/eps)`` rounds.
    m_input:
        Number of edges (defaults to ``n_input`` when unspecified).
    local_constant:
        Multiplier hidden in ``O(n^eps)``.  The default (8) is generous
        enough for the constant-factor bookkeeping all primitives need
        (e.g. sample sort pivot tables) while still forcing genuinely
        sublinear machines on every non-trivial input.
    total_log_power:
        Power of ``log2 n`` allowed in the total-space budget; the
        paper's Theorem 3 needs ``O((n+m) log^2 n)`` so the default
        is 2.
    total_constant:
        Multiplier hidden in the total-space ``O(.)``.
    """

    n_input: int
    eps: float = 0.5
    m_input: int | None = None
    local_constant: int = 8
    total_log_power: int = 2
    total_constant: int = 16

    def __post_init__(self) -> None:
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"eps must lie in (0,1), got {self.eps}")
        if self.n_input < 1:
            raise ValueError("n_input must be positive")
        if self.m_input is not None and self.m_input < 0:
            raise ValueError("m_input must be non-negative")

    # ------------------------------------------------------------------
    # Derived budgets
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Edge count used for total-space budgets."""
        return self.n_input if self.m_input is None else self.m_input

    @cached_property
    def local_memory_words(self) -> int:
        """Per-machine budget: ``local_constant * N^eps`` words (>= 64).

        ``N = n + m`` is the *input size* the fully-scalable regime is
        defined over (Section 1: "an input of size N ... local memory
        of size O(N^eps)"); for edge-heavy graphs budgeting off ``n``
        alone would under-provision the machines that stream edges.
        The floor of 64 words keeps toy unit-test inputs runnable; it
        is irrelevant asymptotically.
        """
        big_n = self.n_input + self.m
        return max(64, self.local_constant * _ceil_pow(big_n, self.eps))

    @property
    def num_machines(self) -> int:
        """``Theta(N^(1-eps))`` machines with ``N = n + m``."""
        big_n = self.n_input + self.m
        return max(1, _ceil_pow(big_n, 1.0 - self.eps))

    @property
    def total_space_words(self) -> int:
        """Total DHT budget ``total_constant * (n+m) * log2(n)^p`` words."""
        big_n = self.n_input + self.m
        logn = max(1.0, math.log2(max(2, self.n_input)))
        return max(
            1024,
            math.ceil(self.total_constant * big_n * logn**self.total_log_power),
        )

    @property
    def rounds_per_primitive(self) -> int:
        """The ``O(1/eps)`` constant: rounds a primitive may take."""
        return math.ceil(1.0 / self.eps)

    # ------------------------------------------------------------------
    def scaled(self, n_input: int, m_input: int | None = None) -> "AMPCConfig":
        """Budget for a sub-instance (e.g. a recursive contraction copy).

        Keeps ``eps`` and the constants, swaps the instance size.  Used by
        Algorithm 1's recursion so that every level is accounted against
        budgets derived from *its own* instance size, matching how the
        paper divides machines among parallel sub-instances.
        """
        return AMPCConfig(
            n_input=n_input,
            eps=self.eps,
            m_input=m_input,
            local_constant=self.local_constant,
            total_log_power=self.total_log_power,
            total_constant=self.total_constant,
        )


DEFAULT_EPS = 0.5
