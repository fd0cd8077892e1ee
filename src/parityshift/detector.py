"""The defense: the acceptance test on the bin-parity label sum.

The real line is split into half-open bins [ka - a/2, ka + a/2); each
sample gets the label +1 or -1 by the parity of its bin index
(``accel.parity_labels_and_sum``), and the statistic A is the mean
label.  Any +-a shift moves a point exactly one bin over and flips its
label, which is the exact lever the detection argument rests on.  The
test accepts exactly when the label sum reaches ``min_accepted_sum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .kernels import KernelParams, eval_big_g

__all__ = ["DetectorConfig", "min_accepted_sum", "big_g_value"]

_VARIANTS = ("thresholded", "zero")


@dataclass(frozen=True)
class DetectorConfig:
    """Bin width, threshold multiplier and test variant.

    thresholded: accept the null iff sqrt(n) (A - G(a)) > -lambda.
    zero:        accept the null iff A > 0.
    """

    a: float
    lam: float = 3.0
    variant: str = "thresholded"

    def __post_init__(self) -> None:
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError(f"a must be positive and finite, got {self.a!r}")
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lambda must be positive and finite, got {self.lam!r}")
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}, got {self.variant!r}")


@lru_cache(maxsize=128)
def big_g_value(a: float) -> float:
    """G(a) at rel_tol 1e-12, cached; the thresholded test's centering."""
    return eval_big_g(KernelParams(a, rel_tol=1e-12, max_terms=512)).value


def min_accepted_sum(config: DetectorConfig, n: int) -> int:
    """Smallest integer label sum s the test accepts on n samples.

    The test accepts exactly when s >= min_accepted_sum(config, n); the
    result is n + 1 when no sum in [-n, n] is accepted.  zero: A > 0
    means s >= 1.  thresholded: the float predicate
    sqrt(n) (s/n - G(a)) > -lambda is bisected over the integers; every
    IEEE operation in it is monotone in s, so the bisection returns the
    exact boundary of the per-sample float rule.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if config.variant == "zero":
        return 1
    big_g, lam, root_n = big_g_value(config.a), config.lam, math.sqrt(n)
    lo, hi = -n, n + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if root_n * (mid / n - big_g) > -lam:
            hi = mid
        else:
            lo = mid + 1
    return lo
