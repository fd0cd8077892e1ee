"""Rate intervals, goodness-of-fit distance and moment summaries."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

__all__ = [
    "wilson_interval",
    "binomial_se",
    "ks_distance_standard_normal",
    "sample_moments",
]

_Z95 = 1.959963984540054
# Coordinates per chunk of the KS evaluation after the sort.
_KS_CHUNK = 1 << 16


def wilson_interval(count: int, total: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial rate; well-behaved near 0 and 1."""
    if total <= 0:
        raise ValueError("total must be positive")
    if not (0 <= count <= total):
        raise ValueError(f"count {count} outside [0, {total}]")
    p = count / total
    z2 = z * z
    denom = 1.0 + z2 / total
    center = (p + z2 / (2.0 * total)) / denom
    half = z * math.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def binomial_se(p: float, total: int) -> float:
    """Standard error of a proportion at rate p over `total` draws."""
    p = min(1.0, max(0.0, p))
    return math.sqrt(p * (1.0 - p) / total)


def ks_distance_standard_normal(sample: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sample to the N(0,1) CDF.

    Sorts a copy, then evaluates the CDF and both step differences in
    chunks of _KS_CHUNK, so scratch memory beyond the sorted copy stays
    fixed; the maxima are order-free, so the result does not depend on
    the chunk size.
    """
    s = np.sort(np.ascontiguousarray(sample, dtype=np.float64))
    n = s.size
    if n == 0:
        raise ValueError("empty sample")
    d_plus = d_minus = -math.inf
    for lo in range(0, n, _KS_CHUNK):
        hi = min(lo + _KS_CHUNK, n)
        cdf = ndtr(s[lo:hi])
        steps = np.arange(lo + 1, hi + 1, dtype=np.float64) / n
        d_plus = max(d_plus, float(np.max(steps - cdf)))
        d_minus = max(d_minus, float(np.max(cdf - (steps - 1.0 / n))))
    return max(d_plus, d_minus)


def sample_moments(x: np.ndarray) -> tuple[float, float, float]:
    """Mean, population variance and skewness of a sample.

    The cube is formed as (c*c)*c in the buffer that held c*c: np.power
    is an order of magnitude slower, and one fewer pool-sized array is
    live.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    mean = float(x.mean())
    centered = x - mean
    sq = centered * centered
    var = float(np.mean(sq))
    if var == 0.0:
        return mean, var, 0.0
    sq *= centered
    skew = float(np.mean(sq)) / var**1.5
    return mean, var, skew
