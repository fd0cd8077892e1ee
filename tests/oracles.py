"""Scalar references that only the tests use.

Each one restates, one sample or one coordinate at a time, something the
package computes on whole trial blocks: the bin of a point and the
normal mass of a bin, the parity statistic and the acceptance decision
on one sample, the flip identity, one roll of the three-sided die, and
the float view, run-length decoding and sparsity ratio of a
``PerturbationVector``.  The tests hold the array path to these.

The adaptive scalar series of g, gamma and phi, and the
density-preservation residual built from them (``eval_g``,
``eval_gamma``, ``eval_phi``, ``fp_residual``), are the independent
float64 reference for ``accel.phi_gamma`` and ``accel.kernel_columns``.
They assemble every exponent before exponentiating (no density ratios),
so no intermediate overflows for any a > 0, and check each raw
probability against [-10 rel_tol, 1 + 10 rel_tol] before clamping it.
``route(a)`` picks the series of g and gamma: primal from sqrt(pi) on,
dual below.

Every one of these series obeys one truncation rule, applied by
``_sum_series``.  Each series is a generator of ``(term count, value,
tail)`` steps, where tail bounds everything after the step.  Summing
stops at the first step whose tail is at most
``rel_tol * max(|value|, 1e-300)`` and reports that tail as
``est_error``; a step that would take the count past ``MAX_TERMS``
raises ``SeriesConvergenceError`` instead.

``big_g_oracle`` and ``phi_oracle`` are the arbitrary-precision
references that ``kernels.big_g`` and both evaluations of phi
(``eval_phi`` here, ``accel.phi_gamma``) are held to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from parityshift import accel
from parityshift.attack import PerturbationVector
from parityshift.detector import ZERO_TEST_MIN_SUM, min_accepted_sum
from parityshift.kernels import (MODE_CROSSOVER_A, SQRT_TWO_PI, KernelParams, KernelRangeError,
                                 _TINY)

_PROB_SLACK = 1e-9

#: Cap on the terms one scalar series may sum; the cap tests lower it to 8.
MAX_TERMS = 256


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


def big_g_oracle(a: float) -> float:
    """Central-bin mass G(a) as an alternating sum of normal bin masses.

    Integrating the translate sum of g term by term over [-a/2, a/2]
    gives G(a) = sum_k (-1)^k [Phi((k+1/2)a) - Phi((k-1/2)a)], the
    alternating mass of the bins of width a.  It is summed in mpmath
    arbitrary precision from upper-tail masses erfc((k+1/2) a / sqrt 2),
    with working digits scaled to resolve G(a) ~ exp(-pi^2/(2 a^2)) down
    to a -> 0, and rounded to a double once; no float64 series of
    ``kernels`` enters.

    The sum is 1 - G(a) = 2 (t0 - t1 + t2 - ...) with t_j the decreasing
    tails below, so 0 <= 1 - G(a) <= 2 t0, and t0 = erfc(a / (2 sqrt 2))
    <= exp(-a^2 / 8).  Once that bound is at most 2^-55, 1 - G(a) is at
    most 2^-54, half the gap below 1.0, and G(a) rounds to 1.0, which is
    returned without the sum (mpmath's erfc overflows beyond a ~ 1e155).
    """
    if a * a / 8.0 >= 55.0 * math.log(2.0):
        return 1.0
    dps = 25 + int(math.pi * math.pi / (2.0 * a * a) / math.log(10.0)) + 10
    with mpmath.workdps(dps):
        am = mpmath.mpf(a)
        # keep bins while their tail mass can exceed 10^-(dps+8); the
        # omitted remainder is below the last tail kept
        reach = mpmath.sqrt(2 * (dps + 8) * mpmath.log(10))
        kmax = int(mpmath.ceil((reach + am / 2) / am)) + 2
        scale = am / mpmath.sqrt(2)
        # tails[j] = 2 P(X > (j + 1/2) a), the mass outside the bins |k| <= j
        tails = [mpmath.erfc((j + mpmath.mpf(1) / 2) * scale) for j in range(kmax + 1)]
        total = 1 - tails[0]
        for k in range(1, kmax + 1):
            # bins k and -k together hold tails[k-1] - tails[k]
            bins = tails[k - 1] - tails[k]
            total += -bins if (k & 1) else bins
        return float(total)


def phi_oracle(x: float, a: float) -> float:
    """Up-shift probability phi(x) from its forward series, in mpmath.

    phi(x) = sum_{k>=1} (-1)^(k+1) [1 - gamma(x + k a)] exp(-k a x - k^2 a^2 / 2),
    the unrolled recurrence phi(x) p(x) = [1 - gamma(x+a) - phi(x+a)] p(x+a),
    with the stay probability gamma(y) = sum_{j in Z} (-1)^j
    exp(-j a y - j^2 a^2 / 2) on |y| < a/2 and 0 elsewhere.  Both series
    are summed at 50 digits at every x, the negative x where a float sum
    would cancel (``eval_phi`` takes the mirrored series there) included,
    until their terms fall below 10^-60 past their largest, and the sum is
    rounded to a double once; no float64 series enters.
    """
    with mpmath.workdps(50):
        xm, am = mpmath.mpf(x), mpmath.mpf(a)
        floor = -60 * mpmath.log(10)  # terms of smaller exponent are left out

        def gamma(y):
            if abs(y) >= am / 2:
                return mpmath.mpf(0)
            total, j = mpmath.mpf(1), 1
            # the pair of terms +-j decreases with j; its larger exponent is j a |y| - half
            while j * am * abs(y) - (half := j * j * am * am / 2) >= floor:
                pair = mpmath.exp(-j * am * y - half) + mpmath.exp(j * am * y - half)
                total += -pair if (j & 1) else pair
                j += 1
            return total

        total, k = mpmath.mpf(0), 1
        # the terms grow while k a < -x, then decrease
        while (exponent := -k * am * xm - k * k * am * am / 2) >= floor or k * am <= -xm:
            term = (1 - gamma(xm + k * am)) * mpmath.exp(exponent)
            total += term if (k & 1) else -term
            k += 1
        return float(total)


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


class SeriesConvergenceError(RuntimeError):
    """A series failed to meet its tolerance within the term cap."""


@dataclass(frozen=True)
class KernelEval:
    """A series value with its truncation certificate.

    est_error is a rigorous bound on the omitted tail and satisfies
    est_error <= rel_tol * max(|value|, 1e-300).
    """

    value: float
    terms_used: int
    mode: str
    est_error: float


def _sum_series(steps, params: KernelParams, scale: float, what: tuple) -> tuple:
    """Sum ``(term count, value, tail)`` steps under the one truncation rule.

    Returns ``(total, terms, tail)`` at the first step whose tail is at
    most ``rel_tol * max(scale * |total|, 1e-300)``; a series yields an
    infinite tail for a step that must not end it.  ``what`` is the
    series name, optionally followed by a coordinate's name and value,
    for the ``SeriesConvergenceError`` raised when the next step would
    take the term count past ``MAX_TERMS``.
    """
    rel_tol, max_terms = params.rel_tol, MAX_TERMS
    total = 0.0
    terms = 0
    for count, value, tail in steps:
        if terms + count > max_terms:
            name, *where = what
            at = f"{where[0]}={where[1]!r}, " if where else ""
            raise SeriesConvergenceError(
                f"{name}: no convergence within {max_terms} terms ({at}a={params.a!r})"
            )
        total += value
        terms += count
        if tail <= rel_tol * max(scale * abs(total), _TINY):
            return total, terms, tail


def route(a: float) -> str:
    """Series route of g and gamma: 'primal' for a >= sqrt(pi), 'dual' below."""
    return "primal" if a >= MODE_CROSSOVER_A else "dual"


def normal_pdf(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / SQRT_TWO_PI


def _g_primal(x: float, params: KernelParams) -> KernelEval:
    """Translate-sum route for g, summed in rings around the nearest translate.

    Ring magnitudes decay by at least exp(-a^2) per step once past the
    center, which gives the geometric tail certificate.
    """
    total, terms, tail = _sum_series(
        _g_primal_steps(x, params.a), params, 1.0, ("primal g series", "x", x))
    return KernelEval(total / SQRT_TWO_PI, terms, "primal", tail / SQRT_TWO_PI)


def _g_primal_steps(x: float, a: float):
    # Ring d holds translates k0 + d and k0 - d, of one parity; each ring's
    # magnitude is the previous ring's tail before the geometric factor.
    k0 = -round(x / a)
    geom = 1.0 / (1.0 - math.exp(-a * a)) if a * a < 700 else 1.0

    def translate(k: int) -> float:
        u = x + k * a
        return math.exp(-0.5 * u * u)

    # the nearest translate alone carries no tail bound
    yield 1, -translate(k0) if (k0 & 1) else translate(k0), math.inf
    d = 1
    ring = translate(k0 + 1) + translate(k0 - 1)
    while True:
        nxt = translate(k0 + d + 1) + translate(k0 - d - 1)
        yield 2, -ring if ((k0 + d) & 1) else ring, nxt * geom
        d += 1
        ring = nxt


def _g_dual(x: float, params: KernelParams) -> KernelEval:
    """Poisson-summed cosine route for g over odd frequencies."""
    scale = 2.0 / params.a
    total, terms, tail = _sum_series(
        _g_dual_steps(x, params.a, scale), params, scale, ("dual g series", "x", x))
    return KernelEval(scale * total, terms, "dual", tail)


def _g_dual_steps(x: float, a: float, scale: float):
    beta = math.pi * math.pi / (2.0 * a * a)
    # Successive odd-term magnitude ratios are <= exp(-8 beta).
    geom = 1.0 / (1.0 - math.exp(-8.0 * beta))
    m = 1
    weight = math.exp(-beta * m * m)
    while True:
        nxt = m + 2
        weight_nxt = math.exp(-beta * nxt * nxt)
        yield 1, weight * math.cos(m * math.pi * x / a), scale * weight_nxt * geom
        m, weight = nxt, weight_nxt


def eval_g(x: float, params: KernelParams, mode: str | None = None) -> KernelEval:
    """Evaluate the alternating wrapped Gaussian g at x.

    g(x) = (1/sqrt(2 pi)) sum_k (-1)^k exp(-(x + k a)^2 / 2)
         = (2/a) sum_{m odd >= 1} exp(-m^2 pi^2 / (2 a^2)) cos(m pi x / a)

    The route is picked by ``route(params.a)`` unless ``mode`` overrides
    it (used by the cross-representation tests).

    Raises SeriesConvergenceError if the term cap is hit.
    """
    mode = route(params.a) if mode is None else mode
    if mode == "primal":
        return _g_primal(x, params)
    if mode == "dual":
        return _g_dual(x, params)
    raise ValueError(f"unknown mode {mode!r}")


def _gamma_raw(x: float, params: KernelParams) -> float:
    """Stay probability before range clamping.

    Zero outside the open central bin.  Inside it, the primal route sums
    exp(-k a x - k^2 a^2 / 2) directly; the dual route (mandatory for
    small a, where the primal terms are O(1) and cancel catastrophically)
    divides the dual g by the normal density.
    """
    a = params.a
    if abs(x) >= 0.5 * a:
        return 0.0
    if route(a) == "dual":
        ge = _g_dual(x, params)
        return ge.value * SQRT_TWO_PI * math.exp(0.5 * x * x)
    return _sum_series(_gamma_primal_steps(x, a), params, 1.0,
                       ("primal gamma series", "x", x))[0]


def _gamma_primal_steps(x: float, a: float):
    geom = 1.0 / (1.0 - math.exp(-a * a)) if a * a < 700 else 1.0
    # the k = 0 term alone carries no tail bound
    yield 1, 1.0, math.inf
    k = 0
    while True:
        k += 1
        pair = math.exp(-k * a * x - 0.5 * k * k * a * a) + math.exp(
            k * a * x - 0.5 * k * k * a * a
        )
        kn = k + 1
        tail = (
            math.exp(-kn * a * x - 0.5 * kn * kn * a * a)
            + math.exp(kn * a * x - 0.5 * kn * kn * a * a)
        ) * geom
        yield 2, pair if (k % 2 == 0) else -pair, tail


def _check_range(raw: float, params: KernelParams, what: str, x: float) -> None:
    band = 10.0 * params.rel_tol
    if not (-band <= raw <= 1.0 + band):
        raise KernelRangeError(
            f"{what}({x!r}, a={params.a!r}) = {raw!r} outside [-10 rel_tol, 1 + 10 rel_tol]"
        )


def eval_gamma(x: float, params: KernelParams) -> float:
    """Stay probability gamma(x), clamped to [0, 1].

    gamma(x) = sum_k (-1)^k exp(-k a x - k^2 a^2 / 2) for |x| < a/2,
    zero otherwise; equals g(x)/p(x) on its support.  The raw value is
    verified to lie within 10 rel_tol of [0, 1] before clamping.
    """
    raw = _gamma_raw(x, params)
    _check_range(raw, params, "gamma", x)
    return min(1.0, max(0.0, raw))


def _phi_forward_raw(y: float, params: KernelParams) -> float:
    """Forward up-shift series at y >= 0.

    sum_{k>=1} (-1)^(k+1) [1 - gamma(y + k a)] exp(-k a y - k^2 a^2 / 2)

    For y >= 0 every argument y + k a lies past a/2, so the stay-probability
    factor is identically 1 and is left out; the terms decrease
    monotonically, and the alternating remainder is bounded by the first
    omitted term.
    """
    return _sum_series(_phi_forward_steps(y, params.a), params, 1.0,
                       ("up-shift series", "y", y))[0]


def _phi_forward_steps(y: float, a: float):
    k = 0
    sign = 1.0
    while True:
        k += 1
        kn = k + 1
        yield (1, sign * math.exp(-k * a * y - 0.5 * k * k * a * a),
               math.exp(-kn * a * y - 0.5 * kn * kn * a * a))
        sign = -sign


def _phi_raw(x: float, params: KernelParams) -> float:
    """Up-shift probability before range clamping.

    x >= 0 uses the forward series directly.  x < 0 would lose ~x^2/2
    nats to cancellation in the forward series, so the mirrored stable
    series psi(x) = sum_{k>=1} (-1)^(k+1) [1 - gamma(x - k a)]
    exp(k a x - k^2 a^2 / 2) is evaluated instead (term-for-term it is
    the forward series at -x, by evenness of gamma) and
    phi(x) = 1 - gamma(x) - psi(x).
    """
    if abs(x) > params.x_max:
        raise ValueError(
            f"|x| = {abs(x)!r} beyond the evaluation clamp x_max = {params.x_max!r}"
        )
    if x >= 0.0:
        return _phi_forward_raw(x, params)
    return 1.0 - _gamma_raw(x, params) - _phi_forward_raw(-x, params)


def eval_phi(x: float, params: KernelParams) -> float:
    """Up-shift probability phi(x), clamped to [0, 1].

    Raises ValueError beyond the domain clamp and KernelRangeError if the
    raw value escapes the certified range band.
    """
    raw = _phi_raw(x, params)
    _check_range(raw, params, "phi", x)
    return min(1.0, max(0.0, raw))


def fp_residual(x: float, params: KernelParams) -> float:
    """Residual of the density-preservation identity at x.

    phi(x-a) p(x-a) + gamma(x) p(x) + [1 - phi(x+a) - gamma(x+a)] p(x+a) - p(x)

    Exactly zero in exact arithmetic; the numerical value reflects series
    truncation and round-off only.
    """
    a = params.a
    if abs(x) > params.x_max - a:
        raise ValueError(
            f"|x| = {abs(x)!r} beyond x_max - a = {params.x_max - a!r}"
        )
    return (
        eval_phi(x - a, params) * normal_pdf(x - a)
        + eval_gamma(x, params) * normal_pdf(x)
        + (1.0 - eval_phi(x + a, params) - eval_gamma(x + a, params)) * normal_pdf(x + a)
        - normal_pdf(x)
    )
