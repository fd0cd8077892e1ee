"""Scalar references that only the tests use.

Each one restates, one sample or one coordinate at a time, something the
package computes on whole trial blocks: the bin of a point and the
normal mass of a bin, the parity statistic and the acceptance decision
on one sample, the flip identity, one roll of the three-sided die, and
the float view, run-length decoding and sparsity ratio of a
``PerturbationVector``.  The tests hold the array path to these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from parityshift import accel
from parityshift.attack import PerturbationVector
from parityshift.detector import ZERO_TEST_MIN_SUM, min_accepted_sum

_PROB_SLACK = 1e-9


class InvalidProbabilitiesError(ValueError):
    """Die probabilities are negative or sum beyond 1 + 1e-9."""


@dataclass(frozen=True)
class DetectionResult:
    statistic_a: float
    accept_h0: bool
    n: int


def bin_index(x: float, a: float) -> int:
    """Index k of the half-open bin [ka - a/2, ka + a/2) containing x."""
    if not (a > 0.0):
        raise ValueError(f"a must be positive, got {a!r}")
    return int(math.floor(x / a + 0.5))


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


def parity_statistic(x, a: float) -> float:
    """Mean of the +-1 bin-parity labels."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("parity statistic of an empty sample is undefined")
    _, s = accel.parity_labels_and_sum(x, a)
    return s / x.size


def decide(x, a: float, lam: float, zero: bool = False) -> DetectionResult:
    """Run the zero test (A > 0) on a sample if zero, else the thresholded test."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("cannot decide on an empty sample")
    n = x.size
    _, s = accel.parity_labels_and_sum(x, a)
    accept = s >= (ZERO_TEST_MIN_SUM if zero else min_accepted_sum(a, lam, n))
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
    kept = int(z[theta.signs == 0].sum())
    return abs(s_post + s_pre - 2 * kept) / x.size


def sample_die(p1: float, p2: float, a: float, u: float) -> float:
    """One three-sided die roll: +a on u < p1, 0 on p1 <= u < p1+p2, else -a.

    Tiny negative probabilities (>= -1e-9) are clamped to zero; anything
    worse, or p1 + p2 > 1 + 1e-9, raises InvalidProbabilitiesError.
    """
    if p1 < -_PROB_SLACK or p2 < -_PROB_SLACK:
        raise InvalidProbabilitiesError(f"negative die probabilities: p1={p1!r}, p2={p2!r}")
    if p1 + p2 > 1.0 + _PROB_SLACK:
        raise InvalidProbabilitiesError(f"die probabilities exceed 1: p1+p2={p1 + p2!r}")
    p1 = max(0.0, p1)
    p2 = max(0.0, p2)
    if u < p1:
        return a
    if u < min(p1 + p2, 1.0):
        return 0.0
    return -a


def perturbation_from_values(values, a: float) -> PerturbationVector:
    """The perturbation whose float entries are values, each exactly -a, 0 or +a."""
    values = np.asarray(values, dtype=np.float64)
    signs = np.zeros(values.shape, dtype=np.int8)
    signs[values == a] = 1
    signs[values == -a] = -1
    ok = (values == a) | (values == -a) | (values == 0.0)
    if not ok.all():
        raise ValueError("entries must be exactly -a, 0 or +a")
    return PerturbationVector(signs, a)


def perturbation_values(theta: PerturbationVector) -> np.ndarray:
    """The float entries of theta, signs * a."""
    return theta.signs * theta.a


def perturbation_from_rle(rle, a: float) -> PerturbationVector:
    """Decode ``PerturbationVector.to_rle``'s [sign, count] pairs."""
    parts = [np.full(int(count), int(sign), dtype=np.int8) for sign, count in rle]
    signs = np.concatenate(parts) if parts else np.empty(0, dtype=np.int8)
    return PerturbationVector(signs, a)


def sparsity_ratio(theta: PerturbationVector) -> float:
    """Fraction of untouched coordinates, #{i: theta_i = 0} / n.

    Membership in the budget-t family is the strict predicate
    sparsity_ratio < t.
    """
    if theta.n == 0:
        raise ValueError("sparsity ratio of an empty perturbation is undefined")
    return theta.zero_count / theta.n
