"""Rate intervals, the standard normal CDF, goodness-of-fit distance and moment summaries."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "wilson_interval",
    "binomial_se",
    "normal_cdf",
    "ks_distance_standard_normal",
    "sample_moments",
]

_Z95 = 1.959963984540054
# normal_cdf's table: grid points per unit, and the reach past which x
# is clipped (Phi(-39) < 1e-330 rounds to 0.0 and Phi(39) to 1.0)
_CDF_STEPS = 64
_CDF_REACH = 39
# Taylor terms after Phi(t) at each grid point t.  |x - t| <= 1/128, so
# the first term left out, Phi^(8)(t) (x - t)^8 / 8!, is below 1e-20.
_CDF_TERMS = 7
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


@lru_cache(maxsize=1)
def _cdf_table() -> np.ndarray:
    """Taylor coefficients of Phi about t = i / _CDF_STEPS - _CDF_REACH.

    Row j holds the coefficient of d^(_CDF_TERMS - j), d = (x - t) *
    _CDF_STEPS, so the last row is Phi(t), from 0.5 erfc(-t / sqrt 2).
    Phi's k-th derivative is phi(t) (-1)^(k-1) He_(k-1)(t), with the
    probabilists' Hermite polynomials from He_k = t He_(k-1) - (k-1) He_(k-2).
    """
    t = np.arange(-_CDF_REACH * _CDF_STEPS, _CDF_REACH * _CDF_STEPS + 1) / _CDF_STEPS
    table = np.empty((_CDF_TERMS + 1, t.size))
    table[-1] = [0.5 * math.erfc(-v / math.sqrt(2.0)) for v in t.tolist()]
    pdf = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    he_prev, he = np.zeros_like(t), np.ones_like(t)
    for k in range(1, _CDF_TERMS + 1):
        table[-1 - k] = (-1) ** (k - 1) * pdf * he / (math.factorial(k) * float(_CDF_STEPS) ** k)
        he_prev, he = he, t * he - (k - 1) * he_prev
    table.flags.writeable = False  # one cached table serves every call
    return table


def normal_cdf(x) -> np.ndarray:
    """Standard normal CDF of each value, as a new float64 array.

    x is clipped to +-_CDF_REACH and rounded to the nearest point t of the
    table's grid, and Phi's Taylor polynomial about t is summed by Horner's
    rule.  The absolute error is about 1.1e-16, that of 0.5 erfc at the
    grid points.  -inf gives 0.0, +inf 1.0 and NaN NaN; a NaN is never
    used as a table index.
    """
    table = _cdf_table()
    d = np.clip(np.asarray(x, dtype=np.float64), -_CDF_REACH, _CDF_REACH)
    d *= _CDF_STEPS
    k = np.rint(d)
    d -= k  # in [-1/2, 1/2], NaN where x is NaN
    k += _CDF_REACH * _CDF_STEPS
    np.fmax(k, 0.0, out=k)  # a NaN becomes 0, an index its NaN d discards
    idx = k.astype(np.intp)
    out = table[0].take(idx)
    coef = np.empty_like(out)
    for row in table[1:]:
        out *= d
        # every index is in range; mode "raise" would copy through a buffer
        out += row.take(idx, out=coef, mode="clip")
    return out


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
    cdf_first = normal_cdf(s[first])
    cdf_last = normal_cdf(s[np.minimum(first + (_KS_CHUNK - 1), n - 1)])
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
