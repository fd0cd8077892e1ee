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
# Coordinates per chunk of the KS evaluation after the sort: the CDF is
# taken at every chunk's ends, then across the chunks that can hold the
# maximum.  512 leaves 2-3% of a 2e7 N(0,1) pool to scan in full.
_KS_CHUNK = 512
# Most values scanned by one CDF call: consecutive candidate chunks are
# scanned together, so a flat curve costs n / 2^14 calls, not one per
# chunk.  2^16 was no faster and its temporaries raised peak RSS by 2 MB.
_KS_SCAN = 1 << 14
# Slack added to each chunk's upper bound before it is compared with the
# attained maximum; ndtr's departures from monotonicity are ulp-sized.
_KS_MARGIN = 1e-9
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
    sample is still copied first).  A sample containing NaN raises
    ValueError; +-inf are valid.

    The sorted sample is split into chunks of _KS_CHUNK, and the CDF is
    first evaluated only at each chunk's two ends.  Both the steps
    (i+1)/n and the CDF rise along the sorted sample, so no value inside
    a chunk exceeds max(step_last - cdf_first, cdf_last - (step_first -
    1/n)), while the differences at the ends are attained and bound the
    maximum from below.  Only the chunks whose bound, plus a margin far
    above the CDF's rounding, reaches that lower bound are scanned in
    full, runs of consecutive ones in slices of up to _KS_SCAN values.
    They include the chunk holding the maximum, and every difference is
    the whole-sample formula's, so the result is the same float as a
    full scan and does not depend on the chunk size.
    """
    s = np.ascontiguousarray(sample, dtype=np.float64).reshape(-1)
    if overwrite_input:
        s.sort()
    else:
        s = np.sort(s)
    n = s.size
    if n == 0:
        raise ValueError("empty sample")
    if np.isnan(s[-1]):  # NaN sorts last
        raise ValueError("sample contains NaN")
    inv_n = 1.0 / n
    first = np.arange(0, n, _KS_CHUNK)
    cdf_first = ndtr(s[first])
    cdf_last = ndtr(s[np.minimum(first + (_KS_CHUNK - 1), n - 1)])
    step_first = (first + 1.0) / n
    step_last = np.minimum(first + float(_KS_CHUNK), n) / n
    best = max(float(np.max(step_first - cdf_first)), float(np.max(step_last - cdf_last)))
    step_first -= inv_n  # from here on, the step below each chunk's first value
    best = max(best, float(np.max(cdf_first - step_first)),
               float(np.max(cdf_last - (step_last - inv_n))))
    bound = np.maximum(step_last - cdf_first, cdf_last - step_first)
    slices: list[list[int]] = []
    for lo in first[bound + _KS_MARGIN >= best].tolist():
        hi = min(lo + _KS_CHUNK, n)
        if slices and slices[-1][1] == lo and hi - slices[-1][0] <= _KS_SCAN:
            slices[-1][1] = hi  # extends the slice that ends where this chunk starts
        else:
            slices.append([lo, hi])
    for lo, hi in slices:
        cdf = ndtr(s[lo:hi])
        steps = np.arange(lo + 1, hi + 1, dtype=np.float64) / n
        best = max(best, float(np.max(steps - cdf)), float(np.max(cdf - (steps - inv_n))))
    return best


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
