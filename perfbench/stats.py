"""Order statistics with the benchmark's sample-count rule.

A latency is reported as a median, plus a higher percentile only when
at least ten samples lie beyond it (so p90 needs 100 samples and p99
needs 1000).  Percentiles use the nearest-rank definition on sorted
samples, so every reported value is a measured sample.
"""

from __future__ import annotations

import math
import statistics

#: samples that must lie strictly beyond a reported upper percentile
TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def min_samples(pct: float) -> int:
    """Smallest sample count with ``TAIL_SAMPLES`` beyond ``pct``.

    >>> min_samples(90), min_samples(99), min_samples(50)
    (100, 1000, 20)
    """
    return math.ceil(TAIL_SAMPLES * 100 / (100 - pct) - 1e-9)


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile of ``samples``; the median for ``pct=50``.

    Raises :class:`TooFewSamples` for an upper percentile (``pct > 50``)
    that fewer than ``TAIL_SAMPLES`` samples lie beyond, and for an
    empty sample.

    >>> percentile([3, 1, 2], 50)
    2
    >>> percentile(range(1, 101), 90)
    90
    """
    values = sorted(samples)
    if not values:
        raise TooFewSamples("no samples")
    if pct == 50:
        return statistics.median_low(values)
    if len(values) < min_samples(pct):
        raise TooFewSamples(
            f"p{pct:g} needs {min_samples(pct)} samples, got {len(values)}"
        )
    rank = math.ceil(pct / 100 * len(values))
    return values[rank - 1]
