"""Scalar evaluation of the wrapped alternating Gaussian kernel family.

Four related quantities are evaluated with certified truncation error:

* ``g`` -- alternating sum of standard-normal translates with step ``a``;
  anti-periodic, ``g(x + a) = -g(x)``, and even in ``x``.
* ``G(a)`` -- mass of ``g`` over the central bin ``[-a/2, a/2]``; smooth,
  strictly increasing, ``G(0+) = 0`` and ``G(inf) = 1``.
* ``gamma`` -- stay probability of the three-outcome resampling die;
  supported on ``(-a/2, a/2)`` where it equals ``g/p`` (``p`` the standard
  normal density).
* ``phi`` -- up-shift probability, the decaying solution of
  ``phi(x) p(x) = [1 - gamma(x+a) - phi(x+a)] p(x+a)``.

Each of ``g`` and ``gamma`` has two independent series representations:
translate sums over ``k`` ("primal", terms decay like ``exp(-k^2 a^2/2)``)
and Poisson-summed cosine series ("dual", terms decay like
``exp(-m^2 pi^2 / (2 a^2))``).  The decay rates coincide at
``a = sqrt(pi)``, which is the mode crossover.  ``big_g_oracle`` provides
a third route for ``G(a)`` -- the arbitrary-precision alternating sum of
normal bin masses -- used as the anti-drift reference for `eval_big_g`.

All exponents are assembled before exponentiation (no density ratios),
so no intermediate overflows for any ``a > 0``.

All five series (primal and dual g, G(a), primal gamma and phi's
forward series) obey one truncation rule, applied by ``_sum_series``.
Each series is a generator of ``(term count, value, tail)`` steps, where
tail bounds everything after the step.  Summing stops at the first step
whose tail is at most ``rel_tol * max(|value|, 1e-300)`` and reports that
tail as ``est_error``; a step that would take the count past
``max_terms`` raises ``SeriesConvergenceError`` instead.

Importing the package or its CLI loads numpy only.  mpmath loads on the
first call of ``big_g_oracle`` and ``scipy.optimize`` on the first call
of ``solve_a_for_g``; no CLI command calls either, so a run loads
neither package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "KernelParams",
    "KernelEval",
    "SeriesConvergenceError",
    "KernelRangeError",
    "MODE_CROSSOVER_A",
    "normal_pdf",
    "eval_g",
    "eval_big_g",
    "big_g_oracle",
    "eval_gamma",
    "eval_phi",
    "fp_residual",
    "solve_a_for_g",
]

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

#: Mode crossover: primal terms decay like exp(-k^2 a^2 / 2), dual terms
#: like exp(-m^2 pi^2 / (2 a^2)); the rates are equal at a = sqrt(pi).
MODE_CROSSOVER_A = math.sqrt(math.pi)

# Denormal floor used in relative stopping rules so that series whose true
# value is ~0 (e.g. g at a bin edge) still terminate via term underflow.
_TINY = 1e-300

_FOUR_OVER_PI = 4.0 / math.pi


class SeriesConvergenceError(RuntimeError):
    """A series failed to meet its tolerance within the term cap."""


class KernelRangeError(RuntimeError):
    """A probability series produced a value outside its certified range.

    Raised when the raw (pre-clamp) value of gamma or phi falls outside
    [-10 rel_tol, 1 + 10 rel_tol]; this signals a series bug rather than
    ordinary round-off.
    """


@dataclass(frozen=True)
class KernelParams:
    """Evaluation parameters: bin half-width pairing and truncation control.

    a : hypercube edge half-length / bin width, dimensionless, > 0.
    rel_tol : relative series tolerance, in (0, 1e-6].
    max_terms : cap on evaluated series terms, >= 8.
    """

    a: float
    rel_tol: float = 1e-12
    max_terms: int = 256

    def __post_init__(self) -> None:
        if not (isinstance(self.a, (int, float)) and math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"a must be a positive finite real, got {self.a!r}")
        if not (0.0 < self.rel_tol <= 1e-6):
            raise ValueError(f"rel_tol must lie in (0, 1e-6], got {self.rel_tol!r}")
        if not (isinstance(self.max_terms, int) and self.max_terms >= 8):
            raise ValueError(f"max_terms must be an integer >= 8, got {self.max_terms!r}")

    @property
    def mode(self) -> str:
        """Series route: 'primal' for a >= sqrt(pi), 'dual' below."""
        return "primal" if self.a >= MODE_CROSSOVER_A else "dual"

    @property
    def x_max(self) -> float:
        """Domain clamp for phi; |X| > 12 has N(0,1) probability < 1e-32."""
        return 12.0 + 4.0 * self.a


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


def normal_pdf(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / SQRT_TWO_PI


def _sum_series(steps, params: KernelParams, scale: float, what: tuple) -> tuple:
    """Sum ``(term count, value, tail)`` steps under the one truncation rule.

    Returns ``(total, terms, tail)`` at the first step whose tail is at
    most ``rel_tol * max(scale * |total|, 1e-300)``; a series yields an
    infinite tail for a step that must not end it.  ``what`` is the
    series name, optionally followed by a coordinate's name and value,
    for the ``SeriesConvergenceError`` raised when the next step would
    take the term count past ``max_terms``.
    """
    rel_tol, max_terms = params.rel_tol, params.max_terms
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

    The route is picked by ``params.mode`` unless ``mode`` overrides it
    (used by the cross-representation tests).

    Raises SeriesConvergenceError if the term cap is hit.
    """
    mode = params.mode if mode is None else mode
    if mode == "primal":
        return _g_primal(x, params)
    if mode == "dual":
        return _g_dual(x, params)
    raise ValueError(f"unknown mode {mode!r}")


def eval_big_g(params: KernelParams) -> KernelEval:
    """Central-bin mass G(a) via the Poisson-summed series.

    G(a) = (4/pi) sum_{k>=0} (-1)^k / (1+2k) * exp(-(1+2k)^2 pi^2 / (2 a^2))

    Alternating with strictly decreasing terms, so the remainder is
    bounded by the first omitted term.
    """
    total, terms, tail = _sum_series(
        _big_g_steps(params.a), params, _FOUR_OVER_PI, ("G(a) series",))
    return KernelEval(_FOUR_OVER_PI * total, terms, "dual", tail)


def _big_g_steps(a: float):
    beta = math.pi * math.pi / (2.0 * a * a)
    odd = 1
    sign = 1.0
    weight = math.exp(-beta * odd * odd)
    while True:
        nxt = odd + 2
        weight_nxt = math.exp(-beta * nxt * nxt)
        yield 1, sign * (weight / odd), _FOUR_OVER_PI * weight_nxt / nxt
        odd, sign, weight = nxt, -sign, weight_nxt


def big_g_oracle(params: KernelParams) -> float:
    """Independent route for G(a): an alternating sum of normal bin masses.

    Integrating the translate sum of g term by term over [-a/2, a/2]
    gives G(a) = sum_k (-1)^k [Phi((k+1/2)a) - Phi((k-1/2)a)], the
    alternating mass of the bins of width a.  It is summed in mpmath
    arbitrary precision from upper-tail masses erfc((k+1/2) a / sqrt 2),
    with working digits scaled to resolve G(a) ~ exp(-pi^2/(2 a^2)) down
    to a -> 0; the Poisson-summed series of eval_big_g never enters.
    Serves as the anti-drift reference for eval_big_g; absolute accuracy
    far exceeds 1e-12.
    """
    import mpmath

    a = params.a
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
    if params.mode == "dual":
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


def solve_a_for_g(target: float, rel_tol: float = 1e-9) -> float:
    """Invert G: find a with |G(a) - target| <= rel_tol.

    Valid for target in (1e-12, 1 - 1e-12); G is strictly increasing, so
    a bracketed root search on [0.2, 16] (where G spans far past both
    target bounds) converges unconditionally.
    """
    from scipy.optimize import brentq

    if not (1e-12 < target < 1.0 - 1e-12):
        raise ValueError(f"target must lie in (1e-12, 1 - 1e-12), got {target!r}")

    def objective(a: float) -> float:
        return eval_big_g(KernelParams(a, rel_tol=1e-13, max_terms=512)).value - target

    a = float(brentq(objective, 0.2, 16.0, xtol=1e-13, rtol=8.9e-16))
    achieved = objective(a)
    if abs(achieved) > rel_tol:
        raise SeriesConvergenceError(
            f"root search left |G(a) - target| = {abs(achieved)!r} > {rel_tol!r}"
        )
    return a
