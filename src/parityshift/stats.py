"""Rate intervals, the standard normal CDF, goodness-of-fit distance and moment summaries."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "wilson_interval",
    "binomial_se",
    "normal_cdf",
    "ks_distance_standard_normal",
    "sample_moments",
]

_Z95 = 1.959963984540054
# Coordinates per chunk of the KS evaluation after the sort: the CDF is
# taken at every chunk's ends, then across the chunks that can hold the
# maximum.  At 128 the CDF sees 3-5% of a 1e6 N(0,1) pool and under 2%
# of a 2e7 pool (the chunk ends alone are 1.6%); at 512 it saw 50-100%
# and 2-5%.
_KS_CHUNK = 128
# Most values scanned by one CDF call: consecutive candidate chunks are
# scanned together, so a flat curve costs n / 2^14 calls, not one per
# chunk.  2^16 was no faster and its temporaries raised peak RSS by 2 MB.
_KS_SCAN = 1 << 14
# Slack added to each chunk's upper bound before it is compared with the
# attained maximum; normal_cdf's departures from monotonicity are ulp-sized.
_KS_MARGIN = 1e-9
# Coordinates per chunk of the central moments.  Each chunk's sums are
# combined with math.fsum, so changing this moves the last bits of the
# coupling runs' pool_var and pool_skew.
_MOMENT_CHUNK = 1 << 16


def wilson_interval(count: int, total: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial rate; its ends are exactly 0 at count 0 and
    1 at count = total, where center - half and center + half miss them by rounding."""
    if total <= 0:
        raise ValueError("total must be positive")
    if not (0 <= count <= total):
        raise ValueError(f"count {count} outside [0, {total}]")
    p = count / total
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / total
    center = (p + z2 / (2.0 * total)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total * total)) / denom
    return (0.0 if count == 0 else max(0.0, center - half),
            1.0 if count == total else min(1.0, center + half))


def binomial_se(p: float, total: int) -> float:
    """Standard error of a proportion at rate p over `total` draws."""
    p = min(1.0, max(0.0, p))
    return math.sqrt(p * (1.0 - p) / total)


def normal_cdf(x) -> np.ndarray:
    """Standard normal CDF of each value, as a new float64 array of x's shape.

    Phi(x) = 0.5 erfc(-x sqrt(1/2)), with erfc from the C library through
    math.erfc, one value at a time.  -inf gives 0.0, +inf 1.0 and NaN NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.fromiter(map(math.erfc, (x * -math.sqrt(0.5)).ravel().tolist()), np.float64, x.size)
    out *= 0.5
    return out.reshape(x.shape)


def ks_distance_standard_normal(sample: np.ndarray, overwrite_input: bool = False) -> float:
    """Kolmogorov-Smirnov distance of a sample to the N(0,1) CDF.

    Sorts a copy of the flattened sample, or, with overwrite_input, sorts
    a contiguous float64 sample in place and leaves it sorted (any other
    sample is still copied first).  A sample containing NaN raises
    ValueError; +-inf are valid.

    The sorted sample is split into chunks of _KS_CHUNK, and the CDF is
    first evaluated only at each chunk's two ends, _KS_SCAN chunks at a
    time, keeping only each chunk's upper bound.  Both the steps
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
    chunks = -(-n // _KS_CHUNK)
    bound = np.empty(chunks)
    best = -math.inf
    for lo in range(0, chunks, _KS_SCAN):
        first = np.arange(lo, min(lo + _KS_SCAN, chunks)) * _KS_CHUNK
        cdf_first = normal_cdf(s[first])
        cdf_last = normal_cdf(s[np.minimum(first + (_KS_CHUNK - 1), n - 1)])
        step_first = (first + 1.0) / n
        step_last = np.minimum(first + float(_KS_CHUNK), n) / n
        best = max(best, float(np.max(step_first - cdf_first)),
                   float(np.max(step_last - cdf_last)))
        step_first -= inv_n  # from here on, the step below each chunk's first value
        best = max(best, float(np.max(cdf_first - step_first)),
                   float(np.max(cdf_last - (step_last - inv_n))))
        np.maximum(step_last - cdf_first, cdf_last - step_first, out=bound[lo : lo + first.size])
    bound += _KS_MARGIN
    slices: list[list[int]] = []
    for lo in (np.flatnonzero(bound >= best) * _KS_CHUNK).tolist():
        hi = min(lo + _KS_CHUNK, n)
        if slices and slices[-1][1] == lo and hi - slices[-1][0] <= _KS_SCAN:
            slices[-1][1] = hi  # extends the slice that ends where this chunk starts
        else:
            slices.append([lo, hi])
    for lo, hi in slices:
        cdf = normal_cdf(s[lo:hi])
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
