"""Order statistics the benchmark reports.

Timings are reported as a median plus the highest percentile that still
has at least :data:`MIN_BEYOND` samples beyond it, always with the sample
count, so a tail figure is never read off a handful of requests.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A tail percentile is only reported where at least this many samples
#: lie beyond it.
MIN_BEYOND = 10


def tail(values: Sequence[float], want: float = 99.0) -> tuple[float, float]:
    """``(value, percentile)``: the ``want``-th percentile by the
    nearest-rank rule (the sample of rank ``ceil(want / 100 * n)``), or the
    highest lower percentile with at least :data:`MIN_BEYOND` samples
    beyond it.

    The sample of rank ``r`` has ``n - r`` samples beyond it, so ranks
    above ``n - MIN_BEYOND`` are never used.  Raises ``ValueError`` when
    ``n <= MIN_BEYOND`` (no tail is supported).
    """
    n = len(values)
    if n <= MIN_BEYOND:
        raise ValueError(
            f"{n} samples support no tail percentile "
            f"(need more than {MIN_BEYOND})"
        )
    rank = math.ceil(want / 100.0 * n)
    if rank <= n - MIN_BEYOND:
        return sorted(values)[rank - 1], want
    rank = n - MIN_BEYOND
    return sorted(values)[rank - 1], 100.0 * rank / n


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("no samples")
    return float(statistics.median(values))


def describe(values: Sequence[float], want: float = 99.0) -> str:
    """``p50 ... pNN ... (n=...)`` for the human-readable report."""
    text = f"p50 {median(values):.3f}"
    try:
        value, q = tail(values, want)
    except ValueError:
        q = 0.0
    text += f", p{q:.4g} {value:.3f}" if q >= 90 else ", no tail percentile"
    return f"{text} (n={len(values)})"
