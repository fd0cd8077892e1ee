"""Parameters, checks and the central-bin mass of the wrapped alternating Gaussian kernel.

The kernel family is:

* ``g`` -- alternating sum of standard-normal translates with step ``a``;
  anti-periodic, ``g(x + a) = -g(x)``, and even in ``x``.
* ``G(a)`` -- mass of ``g`` over the central bin ``[-a/2, a/2]``; smooth,
  strictly increasing, ``G(0+) = 0`` and ``G(inf) = 1``.
* ``gamma`` -- stay probability of the three-outcome resampling die;
  supported on ``(-a/2, a/2)`` where it equals ``g/p`` (``p`` the standard
  normal density).
* ``phi`` -- up-shift probability, the decaying solution of
  ``phi(x) p(x) = [1 - gamma(x+a) - phi(x+a)] p(x+a)``.

``g``, ``gamma`` and ``phi`` have one implementation, on arrays, in
``accel``; their adaptive scalar series are the tests' reference
(``tests/oracles.py``).  This module holds what both share: the bin
width and tolerance (``KernelParams``), a plan's term limit, the checks
of a real input, the errors, and ``G(a)`` (``big_g``).

Each of ``g`` and ``gamma`` has two series representations: translate
sums over ``k`` ("primal", terms decay like ``exp(-k^2 a^2/2)``) and
Poisson-summed cosine series ("dual", terms decay like
``exp(-m^2 pi^2 / (2 a^2))``).  The decay rates coincide at
``a = sqrt(pi)``, which is the mode crossover.  ``G(a)`` likewise has a
dual series and a primal one, the alternating sum of normal bin masses;
their rates coincide at ``a = sqrt(2 pi)``, ``BIG_G_CROSSOVER_A``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = [
    "ConfigError",
    "KernelParams",
    "KernelRangeError",
    "MAX_TERMS",
    "MODE_CROSSOVER_A",
    "BIG_G_CROSSOVER_A",
    "POSITIVE_FINITE",
    "check_real",
    "square_underflows",
    "big_g",
]

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

#: Mode crossover: primal terms decay like exp(-k^2 a^2 / 2), dual terms
#: like exp(-m^2 pi^2 / (2 a^2)); the rates are equal at a = sqrt(pi).
MODE_CROSSOVER_A = math.sqrt(math.pi)

#: G(a)'s route crossover: dual terms decay like exp(-(2k)^2 pi^2 / (2 a^2)),
#: bin-mass terms like exp(-j^2 a^2 / 2); the rates are equal at a = sqrt(2 pi).
BIG_G_CROSSOVER_A = math.sqrt(2.0 * math.pi)

#: Most terms of phi's series an ``accel`` plan may take: a >= 0.0326 at
#: rel_tol 1e-12.
MAX_TERMS = 256

# Denormal floor used in relative stopping rules so that series whose true
# value is ~0 (G at a tiny a, g at a bin edge) still terminate via term underflow.
_TINY = 1e-300

_FOUR_OVER_PI = 4.0 / math.pi


class ConfigError(ValueError):
    """Bad input, in every layer; the message starts with the field it names."""


class KernelRangeError(RuntimeError):
    """A probability series produced a value outside its certified range.

    Raised when the raw (pre-clamp) value of gamma or phi falls outside
    [-10 rel_tol, 1 + 10 rel_tol]; this signals a series bug rather than
    ordinary round-off.
    """


#: A positive real's domain, as ``check_real`` takes it: at most the
#: largest double, which rules out inf, NaN and integers too large to
#: convert to a double (a JSON config may hold one).
POSITIVE_FINITE = ("be positive and finite", lambda v: 0.0 < v <= sys.float_info.max)


def check_real(name: str, value, domain: tuple) -> None:
    """Raise ``ConfigError`` naming ``name`` unless value is a real number inside domain.

    domain is ``(text, inside)``: the message "name: must <text>, got
    value" and the predicate the value must pass.  A bool, a string,
    None or a list is not a real number, and is named as such first;
    an int is compared exactly, never converted.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name}: must be a real number, got {value!r}")
    text, inside = domain
    if not inside(value):
        raise ConfigError(f"{name}: must {text}, got {value!r}")


def square_underflows(a: float) -> bool:
    """Whether a * a falls below the smallest normal double.

    The dual series take pi^2 / (2 a^2), which divides by zero once a * a
    underflows to 0.  ``KernelParams`` rejects every such bin width (a
    below 1.4917e-154) before any series runs.
    """
    return a * a < sys.float_info.min


@dataclass(frozen=True)
class KernelParams:
    """Evaluation parameters: bin half-width pairing and truncation control.

    a : hypercube edge half-length / bin width, dimensionless, > 0.
    rel_tol : relative series tolerance, in [1e-300, 1e-6].
    """

    a: float
    rel_tol: float = 1e-12

    def __post_init__(self) -> None:
        # the one check of a and rel_tol: big_g, accel.plan_for, the harness's
        # ExperimentSpec and the kernels command build a KernelParams
        check_real("a", self.a, POSITIVE_FINITE)
        if square_underflows(self.a):
            raise ConfigError(f"a: {self.a!r} is too small, its square underflows")
        # accel.plan_for sums to rel_tol / 1000, which must not underflow to 0
        check_real("rel_tol", self.rel_tol,
                   ("lie in [1e-300, 1e-6]", lambda v: 1e-300 <= v <= 1e-6))

    @property
    def x_max(self) -> float:
        """Domain clamp for phi; |X| > 12 has N(0,1) probability < 1e-32."""
        return 12.0 + 4.0 * self.a


def big_g(a: float) -> float:
    """Central-bin mass G(a), from whichever of its two series decays faster.

    Below ``BIG_G_CROSSOVER_A`` the Poisson-summed series, summed until
    its tail is at most 1e-12 relative,

        G(a) = (4/pi) sum_{k>=0} (-1)^k / (1+2k) * exp(-(1+2k)^2 pi^2 / (2 a^2)),

    from it on the alternating sum of normal bin masses (the translate
    sum of g integrated over the bin), summed to half an ulp (2^-53),

        G(a) = 1 - 2 sum_{j>=0} (-1)^j erfc((j + 1/2) a / sqrt 2).

    Both alternate with decreasing terms, so each tail is bounded by the
    first omitted term.  Those terms shrink at least geometrically and
    underflow to 0, which meets the 1e-300 floor of the stopping rule,
    so each loop ends without a term cap.  At large a the dual series
    would leave [0, 1] (1 + 7e-13 at a = 38); the bin-mass one rounds to
    1 exactly from a ~ 17 on.  ``KernelParams`` checks a.
    """
    KernelParams(a)
    total = 0.0
    if a < BIG_G_CROSSOVER_A:
        beta = math.pi * math.pi / (2.0 * a * a)
        odd, sign, weight = 1, 1.0, math.exp(-beta)
        while True:
            total += sign * (weight / odd)
            nxt = odd + 2
            weight = math.exp(-beta * nxt * nxt)
            if _FOUR_OVER_PI * weight / nxt <= 1e-12 * max(_FOUR_OVER_PI * abs(total), _TINY):
                return _FOUR_OVER_PI * total
            odd, sign = nxt, -sign
    # term j adds -+2 erfc((j + 1/2) a / sqrt 2), twice the normal mass
    # outside the bins -j..j; term 0 also carries the 1
    h = a / math.sqrt(2.0)
    term, sign, j = 1.0 - 2.0 * math.erfc(0.5 * h), 2.0, 1
    while True:
        total += term
        nxt = math.erfc((j + 0.5) * h)
        if 2.0 * nxt <= 2.0**-53 * max(abs(total), _TINY):
            return total
        term, sign, j = sign * nxt, -sign, j + 1
