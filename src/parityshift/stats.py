"""Rate intervals, the standard normal CDF, goodness-of-fit distance and moment summaries."""

from __future__ import annotations

import math
import mmap

import numpy as np

from .forked import task_map

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


def ks_distance_standard_normal(sample: np.ndarray, overwrite_input: bool = False,
                                workers: int = 1) -> float:
    """Kolmogorov-Smirnov distance of a sample to the N(0,1) CDF.

    Sorts a copy of the flattened sample, or, with overwrite_input, sorts
    a contiguous float64 sample in place (any other sample is still
    copied first).  A sample containing NaN raises ValueError; +-inf are
    valid.

    The sample is cut into `workers` contiguous parts, each sorted in
    place by its own forked worker (``forked.task_map``), and then each
    part is scanned by its own worker, so an in-place sample is left
    sorted part by part.  This needs a sample whose memory the workers
    share with this process, so with workers > 1 the parts are forked
    only when overwrite_input is set and the sample lies in an
    ``mmap.mmap`` (``mmap.mmap(-1, size)`` maps shared memory, as
    coupling validation's pool does); otherwise, and at workers = 1, the
    sample is one part, sorted and scanned in this process.

    A value's rank in the whole sorted sample is its index in its part
    plus, for every other part, the number of that part's values that
    sort before it: np.searchsorted, with ties going to the lower part
    (side "right" into earlier parts, "left" into later ones).  Each part
    is split into chunks of _KS_CHUNK, and the CDF is first evaluated
    only at each chunk's two ends, _KS_SCAN chunks at a time, keeping
    only each chunk's upper bound.  Both the steps (r+1)/n and the CDF
    rise along a sorted part, so no value inside a chunk exceeds
    max(step_last - cdf_first, cdf_last - (step_first - 1/n)), while the
    differences at the ends are attained and bound the part's maximum
    from below.  Only the chunks whose bound, plus a margin far above
    the CDF's rounding, reaches that lower bound are scanned in full,
    runs of consecutive ones in slices of up to _KS_SCAN values, each
    slice ranked by searching only the window of every other part that
    its end values bound.  They include the chunk holding the part's
    maximum, and every difference is the whole-sample formula's,
    (r+1)/n - Phi(v) or Phi(v) - ((r+1)/n - 1/n), so the largest over the
    parts is the same float as a full scan of the sorted sample,
    whatever the chunk size and the number of parts.
    """
    s = np.ascontiguousarray(sample, dtype=np.float64).reshape(-1)
    n = s.size
    if n == 0:
        raise ValueError("empty sample")
    if not overwrite_input:
        s = s.copy()
    if not (overwrite_input and _in_mapping(s)):
        workers = 1
    parts = _cuts(n, workers, 1)

    def sort_part(part):
        s[part[0] : part[1]].sort()

    for _ in task_map(sort_part, parts, len(parts)):
        pass
    if any(np.isnan(s[hi - 1]) for _, hi in parts):  # NaN sorts last
        raise ValueError("sample contains NaN")
    return max(task_map(lambda p: _ks_part(s, parts, p), range(len(parts)), len(parts)))


def _ks_part(s: np.ndarray, parts: list[tuple[int, int]], p: int) -> float:
    """The largest KS difference at the values of part p of s, whose parts are each sorted."""
    n = s.size
    lo, hi = parts[p]
    part = s[lo:hi]
    # every other part, and the side a tie with it goes to: the lower part first
    others = [(s[a:b], "right" if q < p else "left")
              for q, (a, b) in enumerate(parts) if q != p]

    def rank(index: np.ndarray, values: np.ndarray) -> np.ndarray:
        # the whole-sample ranks of the sorted values part[index]
        for other, side in others:
            a, b = other.searchsorted(values[[0, -1]], side)
            index = index + a + other[a:b].searchsorted(values, side)
        return index

    inv_n = 1.0 / n
    m = part.size
    chunks = -(-m // _KS_CHUNK)
    bound = np.empty(chunks)
    best = -math.inf
    for c in range(0, chunks, _KS_SCAN):
        first = np.arange(c, min(c + _KS_SCAN, chunks)) * _KS_CHUNK
        last = np.minimum(first + (_KS_CHUNK - 1), m - 1)
        cdf_first = normal_cdf(part[first])
        cdf_last = normal_cdf(part[last])
        step_first = (rank(first, part[first]) + 1.0) / n
        step_last = (rank(last, part[last]) + 1.0) / n
        best = max(best, float(np.max(step_first - cdf_first)),
                   float(np.max(step_last - cdf_last)))
        step_first -= inv_n  # from here on, the step below each chunk's first value
        best = max(best, float(np.max(cdf_first - step_first)),
                   float(np.max(cdf_last - (step_last - inv_n))))
        np.maximum(step_last - cdf_first, cdf_last - step_first, out=bound[c : c + first.size])
    bound += _KS_MARGIN
    slices: list[list[int]] = []
    for a in (np.flatnonzero(bound >= best) * _KS_CHUNK).tolist():
        b = min(a + _KS_CHUNK, m)
        if slices and slices[-1][1] == a and b - slices[-1][0] <= _KS_SCAN:
            slices[-1][1] = b  # extends the slice that ends where this chunk starts
        else:
            slices.append([a, b])
    for a, b in slices:
        cdf = normal_cdf(part[a:b])
        steps = (rank(np.arange(a, b), part[a:b]) + 1.0) / n
        best = max(best, float(np.max(steps - cdf)), float(np.max(cdf - (steps - inv_n))))
    return best


def _in_mapping(a: np.ndarray) -> bool:
    """Whether a's memory lies in an ``mmap.mmap``, which a forked worker writes for this process."""
    while isinstance(a, np.ndarray):
        a = a.base
    return isinstance(getattr(a, "obj", a), mmap.mmap)


def _cuts(n: int, parts: int, unit: int) -> list[tuple[int, int]]:
    """range(n) cut into at most `parts` contiguous (lo, hi) parts, none empty, at
    multiples of unit, the parts' unit counts differing by at most one."""
    units = -(-n // unit)
    parts = max(1, min(parts, units))
    edges = [min(n, units * k // parts * unit) for k in range(parts + 1)]
    return list(zip(edges, edges[1:]))


def sample_moments(x: np.ndarray, workers: int = 1) -> tuple[float, float, float]:
    """Mean, population variance and skewness of a sample.

    The mean is numpy's float(x.mean()).  The second and third central
    moments are summed with np.sum over chunks of _MOMENT_CHUNK values,
    and the chunk sums are combined with math.fsum, which rounds their
    exact total once, so no array larger than a chunk is allocated.  The
    cube is formed as (c*c)*c in the buffer that held c*c: np.power is an
    order of magnitude slower.  With workers > 1 the chunks are cut into
    that many contiguous parts, each summed by its own forked worker
    (``forked.task_map``), and the chunk sums reach math.fsum in chunk
    order, the same list as in this process, so the result is the same.
    """
    x = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    mean = float(x.mean())

    def central_sums(part):
        c = np.empty(min(part[1] - part[0], _MOMENT_CHUNK))
        sq = np.empty_like(c)
        sums2, sums3 = [], []
        for lo in range(*part, _MOMENT_CHUNK):
            chunk = x[lo : min(lo + _MOMENT_CHUNK, part[1])]
            cc, cs = c[: chunk.size], sq[: chunk.size]
            np.subtract(chunk, mean, out=cc)
            np.multiply(cc, cc, out=cs)
            sums2.append(float(np.sum(cs)))
            cs *= cc
            sums3.append(float(np.sum(cs)))
        return sums2, sums3

    sums2, sums3 = [], []
    parts = _cuts(n, workers, _MOMENT_CHUNK)
    for part2, part3 in task_map(central_sums, parts, len(parts)):
        sums2 += part2
        sums3 += part3
    var = math.fsum(sums2) / n
    if var == 0.0:
        return mean, var, 0.0
    skew = math.fsum(sums3) / n / var**1.5
    return mean, var, skew
