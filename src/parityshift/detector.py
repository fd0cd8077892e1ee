"""The defense: width-a bin partition, parity statistic, acceptance tests.

The real line is split into half-open bins [ka - a/2, ka + a/2); each
sample gets the label +1 or -1 by the parity of its bin index, and the
statistic A is the mean label.  Any +-a shift moves a point exactly one
bin over and flips its label, which is the exact lever the detection
argument rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import accel
from .attack import PerturbationVector
from .kernels import KernelParams, eval_big_g

__all__ = [
    "DetectorConfig",
    "DetectionResult",
    "bin_index",
    "parity_statistic",
    "bin_prob",
    "min_accepted_sum",
    "decide",
    "flip_identity_check",
    "big_g_value",
]

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


@dataclass(frozen=True)
class DetectionResult:
    statistic_a: float
    accept_h0: bool
    n: int


@lru_cache(maxsize=128)
def big_g_value(a: float) -> float:
    """G(a) at rel_tol 1e-12, cached; the thresholded test's centering."""
    return eval_big_g(KernelParams(a, rel_tol=1e-12, max_terms=512)).value


def bin_index(x: float, a: float) -> int:
    """Index k of the half-open bin [ka - a/2, ka + a/2) containing x."""
    if not (a > 0.0):
        raise ValueError(f"a must be positive, got {a!r}")
    return int(math.floor(x / a + 0.5))


def parity_statistic(x, a: float) -> float:
    """Mean of the +-1 bin-parity labels."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("parity statistic of an empty sample is undefined")
    _, s = accel.parity_labels_and_sum(x, a)
    return s / x.size


def bin_prob(k: int, a: float) -> float:
    """Standard normal mass of bin k: Phi(ka + a/2) - Phi(ka - a/2).

    Evaluated in whichever tail is further from the origin so the
    difference never cancels against saturated CDF values, with
    Phi(x) = 0.5 erfc(-x / sqrt 2).
    """
    if not (a > 0.0):
        raise ValueError(f"a must be positive, got {a!r}")
    lo = k * a - 0.5 * a
    hi = k * a + 0.5 * a
    if lo >= 0.0:
        return 0.5 * (math.erfc(lo / math.sqrt(2.0)) - math.erfc(hi / math.sqrt(2.0)))
    return 0.5 * (math.erfc(-hi / math.sqrt(2.0)) - math.erfc(-lo / math.sqrt(2.0)))


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


def decide(x, config: DetectorConfig) -> DetectionResult:
    """Run the configured acceptance test on a sample."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("cannot decide on an empty sample")
    n = x.size
    _, s = accel.parity_labels_and_sum(x, config.a)
    accept = s >= min_accepted_sum(config, n)
    return DetectionResult(statistic_a=s / n, accept_h0=accept, n=n)


def flip_identity_check(x, theta: PerturbationVector, a: float) -> float:
    """|A(x + theta) + A(x) - (2/n) sum of z over untouched coordinates|.

    Computed in integer arithmetic on the label sums; every +-a shift
    moves the bin index by exactly one, so the result must be exactly 0.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.size != theta.n:
        raise ValueError(f"dimension mismatch: {x.size} samples vs {theta.n} entries")
    z, s_pre = accel.parity_labels_and_sum(x, a)
    _, s_post = accel.parity_labels_and_sum(x + theta.signs * a, a)
    kept = accel.zero_signed_sum(z, theta.signs)
    return abs(s_post + s_pre - 2 * kept) / x.size
