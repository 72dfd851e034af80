"""Order statistics shared by the runner and ``compare.py``."""

from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0–100) by linear interpolation between ranks.

    ``q=100`` is the maximum and ``q=50`` the median.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summary(values) -> dict[str, float]:
    """Median, quartiles and the quartile spread as a share of the median.

    Quartiles are ``statistics.quantiles(values, n=4)``; with one value
    they collapse onto it.
    """
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values)}
