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
# Coordinates per chunk of the central moments.  Each chunk's sums are
# combined with math.fsum, so changing this moves the last bits of the
# coupling runs' pool_var and pool_skew.
_MOMENT_CHUNK = 1 << 16


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


def ks_distance_standard_normal(sample: np.ndarray, overwrite_input: bool = False) -> float:
    """Kolmogorov-Smirnov distance of a sample to the N(0,1) CDF.

    Sorts a copy of the flattened sample, or, with overwrite_input, sorts
    a contiguous float64 sample in place and leaves it sorted (any other
    sample is still copied first).  The CDF and both step differences are
    then evaluated in chunks of _KS_CHUNK, so scratch memory beyond the
    sorted values stays fixed; the maxima are order-free, so the result
    does not depend on the chunk size.
    """
    s = np.ascontiguousarray(sample, dtype=np.float64).reshape(-1)
    if overwrite_input:
        s.sort()
    else:
        s = np.sort(s)
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

    The mean is numpy's float(x.mean()).  The second and third central
    moments are summed with np.sum over chunks of _MOMENT_CHUNK values,
    and the chunk sums are combined with math.fsum, which rounds their
    exact total once, so no array larger than a chunk is allocated.  The
    cube is formed as (c*c)*c in the buffer that held c*c: np.power is an
    order of magnitude slower.
    """
    x = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    mean = float(x.mean())
    c = np.empty(min(n, _MOMENT_CHUNK))
    sq = np.empty_like(c)
    sums2, sums3 = [], []
    for lo in range(0, n, _MOMENT_CHUNK):
        chunk = x[lo : lo + _MOMENT_CHUNK]
        cc, cs = c[: chunk.size], sq[: chunk.size]
        np.subtract(chunk, mean, out=cc)
        np.multiply(cc, cc, out=cs)
        sums2.append(float(np.sum(cs)))
        cs *= cc
        sums3.append(float(np.sum(cs)))
    var = math.fsum(sums2) / n
    if var == 0.0:
        return mean, var, 0.0
    skew = math.fsum(sums3) / n / var**1.5
    return mean, var, skew
