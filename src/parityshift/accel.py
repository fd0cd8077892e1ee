"""Array-path hot kernels, in numpy.

The Monte Carlo harness evaluates the stay/up-shift probabilities, die
outcomes and bin-parity labels across ~1e8 coordinates per experiment,
so these are the only routines worth vectorising.  Each kernel sums the
terms of a precomputed plan, truncated at 1e-12 relative, and agrees
with the adaptive scalar reference in ``kernels`` within 2e-12.  The
kernels are elementwise, so the harness calls each once per (m, n)
trial block; the label sums are then taken per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import MODE_CROSSOVER_A, SQRT_TWO_PI, KernelRangeError

__all__ = [
    "SeriesPlan",
    "plan_for",
    "phi_gamma",
    "die_outcomes",
    "parity_labels_and_sum",
    "zero_signed_sum",
]


@dataclass(frozen=True)
class SeriesPlan:
    """Fixed term counts and coefficients for array evaluation.

    Planned so every omitted tail is below rel_tol/1000 in absolute
    terms, which keeps the array path within round-off of the adaptive
    scalar reference for probabilities in [0, 1].
    """

    a: float
    rel_tol: float
    band: float                 # range-check slack, 10 * rel_tol
    use_dual: bool              # stay-probability route: dual if a < sqrt(pi), else primal
    phi_coef: np.ndarray        # exp(-k^2 a^2 / 2), k = 1..K_phi
    gamma_coef: np.ndarray      # primal: exp(-k(k-1) a^2 / 2), k = 1..K_gamma, each <= 1
    dual_coef: np.ndarray       # dual: (2/a) exp(-m^2 pi^2/(2 a^2)), odd m
    dual_freq: np.ndarray       # dual: m pi / a, odd m


@lru_cache(maxsize=64)
def plan_for(a: float, rel_tol: float = 1e-12) -> SeriesPlan:
    """Build (and cache) the term plan for bin width a."""
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError(f"a must be positive and finite, got {a!r}")
    if not (0.0 < rel_tol <= 1e-6):
        raise ValueError(f"rel_tol must lie in (0, 1e-6], got {rel_tol!r}")
    target = -math.log(rel_tol * 1e-3)

    k_phi = max(2, math.ceil(math.sqrt(2.0 * target) / a) + 1)
    ks = np.arange(1, k_phi + 1, dtype=np.float64)
    phi_coef = np.exp(-0.5 * (ks * a) ** 2)

    use_dual = a < MODE_CROSSOVER_A
    if use_dual:
        beta = math.pi * math.pi / (2.0 * a * a)
        m_min = math.sqrt(max(target + math.log(2.0 * SQRT_TWO_PI / a) + a * a / 8.0, 1.0) / beta)
        m_max = int(m_min) + 2
        if m_max % 2 == 0:
            m_max += 1
        ms = np.arange(1, m_max + 1, 2, dtype=np.float64)
        dual_coef = (2.0 / a) * np.exp(-beta * ms * ms)
        dual_freq = ms * math.pi / a
        gamma_coef = phi_coef[:1]
    else:
        disc = 1.0 + 8.0 * (target + math.log(2.0)) / (a * a)
        k_gamma = max(2, math.ceil(0.5 * (-1.0 + math.sqrt(disc))) + 1)
        kg = np.arange(1, k_gamma + 1, dtype=np.float64)
        gamma_coef = np.exp(-0.5 * kg * (kg - 1.0) * a * a)
        dual_coef = np.empty(0, dtype=np.float64)
        dual_freq = np.empty(0, dtype=np.float64)

    return SeriesPlan(
        a=float(a),
        rel_tol=float(rel_tol),
        band=10.0 * rel_tol,
        use_dual=use_dual,
        phi_coef=phi_coef,
        gamma_coef=gamma_coef,
        dual_coef=dual_coef,
        dual_freq=dual_freq,
    )


def _alt_horner_inplace(w: np.ndarray, coef: np.ndarray) -> np.ndarray:
    # H(w) = sum_{k>=1} (-1)^(k+1) coef[k-1] w^k, evaluated as the nested
    # form w*(C1 - w*(C2 - w*(...))); two in-place passes per term.
    acc = np.zeros_like(w)
    for k in range(coef.size - 1, -1, -1):
        np.multiply(acc, w, out=acc)
        np.subtract(coef[k], acc, out=acc)
    np.multiply(acc, w, out=acc)
    return acc


def phi_gamma(x: np.ndarray, plan: SeriesPlan) -> tuple[np.ndarray, np.ndarray]:
    """Clamped stay/up-shift probabilities for every coordinate of x.

    x may be a 1-d sample or a 2-d trial block; phi and gamma have its
    shape.  gamma is zero outside the open central bin |x| < a/2, so the
    stay series runs only on the central coordinates, which are gathered
    and scattered back by flat index (np.take and index assignment are
    several times cheaper per element than a boolean mask).  The stay
    series takes one of two routes: the dual cosine series when
    a < sqrt(pi), else the primal series, half of which is phi's own.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    a = plan.a
    w = np.exp(-a * np.abs(x))
    forward = _alt_horner_inplace(w, plan.phi_coef)

    gamma_raw = np.zeros_like(x)
    central = np.flatnonzero(np.abs(x) < 0.5 * a)
    if central.size:
        xc = x.reshape(-1).take(central)
        gamma_flat = gamma_raw.reshape(-1)
        if plan.use_dual:
            s = np.zeros_like(xc)
            for m in range(plan.dual_coef.size):
                s += plan.dual_coef[m] * np.cos(plan.dual_freq[m] * xc)
            s *= SQRT_TWO_PI * np.exp(0.5 * xc * xc)
            gamma_flat[central] = s
        else:
            # gamma = 1 - sum_k (-1)^(k+1) e^{-k^2 a^2/2} (e^{-k a|x|} + e^{k a|x|}).
            # The e^{-k a|x|} half is phi's forward series; the other half
            # is H(t) with t = e^{a|x| - a^2/2} <= 1 in the central bin and
            # coefficients e^{-k(k-1) a^2/2}, so no term overflows at any a.
            t = np.exp(a * np.abs(xc) - 0.5 * a * a)
            gamma_flat[central] = (
                1.0 - forward.reshape(-1).take(central) - _alt_horner_inplace(t, plan.gamma_coef)
            )

    phi_raw = np.where(x >= 0.0, forward, 1.0 - gamma_raw - forward)

    band = plan.band
    bad = int(np.count_nonzero((phi_raw < -band) | (phi_raw > 1.0 + band)))
    bad += int(np.count_nonzero((gamma_raw < -band) | (gamma_raw > 1.0 + band)))
    if bad:
        raise KernelRangeError(
            f"{bad} coordinate(s) outside [-10 rel_tol, 1 + 10 rel_tol] "
            f"(a={plan.a!r}); series inconsistency"
        )
    np.clip(phi_raw, 0.0, 1.0, out=phi_raw)
    np.clip(gamma_raw, 0.0, 1.0, out=gamma_raw)
    return phi_raw, gamma_raw


def die_outcomes(phi: np.ndarray, gamma: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Three-sided die outcomes as int8 signs: +1 (up), 0 (stay), -1 (down).

    Interval order is fixed: up wins on u < phi, stay on u < phi + gamma.
    Built as up + (up or stay) - 1 on int8 views of the two masks, which
    avoids the int64 temporaries of a nested where.
    """
    up = u < phi
    up_or_stay = up | (u < phi + gamma)
    return up.view(np.int8) + up_or_stay.view(np.int8) - 1


def parity_labels_and_sum(x: np.ndarray, a: float) -> tuple[np.ndarray, int | np.ndarray]:
    """Bin-parity labels z_i = +-1 and their integer sum.

    For a 2-d trial block (one trial per row) the sum is taken per row
    and returned as an int64 array.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    k = np.floor(x / a + 0.5).astype(np.int64)
    odd = (k & 1).astype(np.int8)
    z = (1 - 2 * odd).astype(np.int8)
    if x.ndim == 1:
        return z, int(x.size - 2 * int(odd.sum()))
    return z, x.shape[-1] - 2 * odd.sum(axis=-1, dtype=np.int64)


def zero_signed_sum(z: np.ndarray, signs: np.ndarray) -> int | np.ndarray:
    """Sum of parity labels over untouched (sign == 0) coordinates.

    Per row, as an int64 array, for a 2-d trial block.
    """
    if z.ndim == 1:
        return int(z[signs == 0].sum())
    return np.where(signs == 0, z, 0).sum(axis=-1, dtype=np.int64)
