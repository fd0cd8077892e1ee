"""The adversary: distribution-preserving resampling and worst-case evasion.

Two attackers are implemented.  ``couple_perturb`` shifts each observed
coordinate by -a, 0 or +a using the three-sided die driven by the
stay/up-shift probabilities and the caller's uniforms, which leaves the
standard normal law of every coordinate intact.  ``optimal_parity_evasion``
is the worst-case sparsity-constrained adversary against the bin-parity
detector: given its budget, the most coordinates a sparsity ratio below
t allows (``sparsity_budget``), it keeps (leaves untouched) up to that
many +1-labelled coordinates and flips everything else.  Both take one
sample or a 2-d trial block (one trial per row) and validate a block once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import accel
from .kernels import KernelParams

__all__ = ["PerturbationVector", "couple_perturb", "sparsity_budget", "optimal_parity_evasion"]


@dataclass(frozen=True)
class PerturbationVector:
    """A perturbation with every entry exactly -a, 0 or +a.

    ``signs`` holds the entries in units of a (int8 in {-1, 0, +1}), so
    membership is exact by construction and the float entries are
    signs * a.  A 2-d ``signs`` is a trial block, one perturbation per
    row; ``n`` is the row length and ``zero_count`` an int64 array of
    per-row counts.
    """

    signs: np.ndarray
    a: float

    def __post_init__(self) -> None:
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError(f"a must be positive and finite, got {self.a!r}")
        signs = np.asarray(self.signs, dtype=np.int8)
        if signs.ndim not in (1, 2):
            raise ValueError("signs must be one-dimensional or a 2-d block of rows")
        if signs.size and not (signs.min() >= -1 and signs.max() <= 1):
            raise ValueError("every entry must be -a, 0 or +a")
        object.__setattr__(self, "signs", signs)

    @property
    def n(self) -> int:
        return int(self.signs.shape[-1])

    @property
    def zero_count(self) -> int | np.ndarray:
        counts = np.count_nonzero(self.signs == 0, axis=-1)
        return int(counts) if self.signs.ndim == 1 else counts

    def row(self, i: int) -> "PerturbationVector":
        """The perturbation of trial row i of a block."""
        return PerturbationVector(self.signs[i], self.a)

    def to_rle(self) -> list[list[int]]:
        """Run-length encoding as [sign, count] pairs (signs in units of a)."""
        if self.signs.ndim != 1:
            raise ValueError("run-length encode one row of a block at a time")
        if self.n == 0:
            return []
        s = self.signs
        breaks = np.flatnonzero(s[1:] != s[:-1]) + 1
        starts = np.concatenate(([0], breaks))
        ends = np.concatenate((breaks, [s.size]))
        return np.column_stack((s[starts], ends - starts)).tolist()


def couple_perturb(
    x, params: KernelParams, u: np.ndarray
) -> tuple[PerturbationVector, np.ndarray]:
    """Resample every coordinate by the coupling die.

    For each i: theta_i = die(phi(x_i), gamma(x_i)) and x'_i = x_i +
    theta_i.  Each x'_i is again standard normal, which is the whole
    point of the construction.  The die probabilities are nonnegative
    and sum to at most 1 by the kernel range guarantees.

    x is one sample or a 2-d trial block, and u holds the die's uniforms
    in [0, 1), shaped like x; a block's caller draws each row's uniforms
    from that trial's own stream.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.size == 0:
        raise ValueError("x must be a nonempty 1-d sample or 2-d trial block")
    if np.shape(u) != x.shape:
        raise ValueError(f"u must be shaped like x {x.shape}, got {np.shape(u)}")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    worst = float(np.max(np.abs(x)))
    if worst > params.x_max:
        raise ValueError(f"max|x| = {worst!r} beyond the clamp x_max = {params.x_max!r}")

    plan = accel.plan_for(params.a, params.rel_tol)
    phi, gamma = accel.phi_gamma(x, plan)
    signs = accel.die_outcomes(phi, gamma, u)
    theta = PerturbationVector(signs, params.a)
    return theta, x + signs * params.a


def sparsity_budget(t: float, n: int) -> int:
    """The largest m with m / n < t, or -1 if there is none.

    ceil(t n) - 1 is one too many where t n rounds up onto an integer
    (0.28 * 25 = 7.000000000000001, yet 7 / 25 is not < 0.28).  t must
    lie in [0, 1], which keeps m within 0..n and the search at one or
    two steps.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    m = math.ceil(t * n)
    while m >= 0 and m / n >= t:
        m -= 1
    return m


def optimal_parity_evasion(z, a: float, budget: int) -> PerturbationVector:
    """Best evasion against the parity statistic under a sparsity budget.

    With z the pre-attack parity labels, the attacked statistic is
    A' = -A + (2/n) * sum of z over untouched coordinates, so the optimum
    keeps up to budget coordinates (the most a sparsity ratio below t
    allows, ``sparsity_budget(t, n)``) chosen among those with z = +1
    (fewer if fewer exist, lowest index first) and shifts every other
    coordinate by +a (parity is sign-blind; +a by convention).  At budget
    0 it is Theorem 1's full cube.  A 2-d z is a trial block: each row is
    attacked on its own and the result is a block perturbation.
    """
    z = np.asarray(z, dtype=np.int8)
    if z.ndim not in (1, 2) or z.shape[-1] == 0:
        raise ValueError("z must be a nonempty 1-d array or a block of such rows")
    if not ((z == 1) | (z == -1)).all():
        raise ValueError("z entries must be +-1")
    if budget < 0:
        raise ValueError(f"budget {budget!r} is negative; the constrained family is empty")
    plus = z == 1
    keep = plus & (np.cumsum(plus, axis=-1) <= budget)
    return PerturbationVector((~keep).view(np.int8), a)
