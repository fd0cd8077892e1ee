"""The defense: the acceptance test on the bin-parity label sum.

The real line is split into half-open bins [ka - a/2, ka + a/2); each
sample gets the label +1 or -1 by the parity of its bin index
(``accel.parity_labels_and_sum``), and the statistic A is the mean
label.  Any +-a shift moves a point exactly one bin over and flips its
label, which is the exact lever the detection argument rests on.  A
test accepts exactly when the integer label sum s reaches its least
accepted sum: ``ZERO_TEST_MIN_SUM`` for Theorem 1's zero test (A > 0)
and ``min_accepted_sum(a, lam, n)`` for Theorem 2's thresholded test
sqrt(n) (A - G(a)) > -lambda.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .kernels import KernelParams, eval_big_g

__all__ = ["ZERO_TEST_MIN_SUM", "min_accepted_sum", "big_g_value"]

# The zero test accepts iff A > 0, that is iff s >= 1, whatever a, lambda and n.
ZERO_TEST_MIN_SUM = 1


@lru_cache(maxsize=128)
def big_g_value(a: float) -> float:
    """G(a) at rel_tol 1e-12, cached; the thresholded test's centering."""
    return eval_big_g(KernelParams(a, rel_tol=1e-12, max_terms=512)).value


def min_accepted_sum(a: float, lam: float, n: int) -> int:
    """Smallest integer label sum s the thresholded test accepts on n samples.

    The test accepts exactly when s >= min_accepted_sum(a, lam, n); the
    result is n + 1 when no sum in [-n, n] is accepted.  The float
    predicate sqrt(n) (s/n - G(a)) > -lambda is bisected over the
    integers; every IEEE operation in it is monotone in s, so the
    bisection returns the exact boundary of the per-sample float rule.
    A bad a raises through ``big_g_value``.
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"lambda must be positive and finite, got {lam!r}")
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    big_g, root_n = big_g_value(a), math.sqrt(n)
    lo, hi = -n, n + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if root_n * (mid / n - big_g) > -lam:
            hi = mid
        else:
            lo = mid + 1
    return lo
