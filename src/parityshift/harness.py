"""Seeded Monte Carlo experiments reproducing both theorem directions.

Every experiment consumes an ExperimentSpec and returns an
ExperimentSummary holding empirical rates (with Wilson 95% intervals),
the analytic bounds evaluated at the spec, machine-checked premises, and
named pass/fail checks.  Trials use counter-based Philox substreams
keyed by (master_seed, trial_index), are reduced in trial order, and the
whole summary is bit-reproducible for a given seed.  An
optional ``on_trial`` callback receives each trial's TrialRecord as the
trial finishes, in trial order; no record is held by the run.

Attacked statistics are derived by the exact integer-shift construction
(a +-a shift moves the bin index by exactly one) and, in the theorem
runs, re-verified per trial by direct binning of x + theta; both sides
are integer label sums, so the flip identity is asserted with zero
tolerance.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from . import accel
from .attack import CouplingPolicy, PerturbationVector, couple_perturb, optimal_parity_evasion
from .detector import DetectorConfig, big_g_value, min_accepted_sum
from .kernels import KernelParams
from .stats import binomial_se, ks_distance_standard_normal, sample_moments, wilson_interval

__all__ = [
    "ExperimentSpec",
    "TrialRecord",
    "ExperimentSummary",
    "SpecValidationError",
    "trial_rng",
    "run_coupling_validation",
    "run_thm1_undetectable",
    "run_thm1_detectable",
    "run_thm2_undetectable",
    "run_thm2_detectable",
    "sweep_phase_transition",
]

_REGIMES = ("fixed_a", "cube_scaling")
_MASK64 = (1 << 64) - 1


class SpecValidationError(ValueError):
    """An experiment spec violates a hard precondition."""


def _is_int(value) -> bool:
    # bool is a subclass of int, but True is not a trial count
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentSpec:
    """Parameter set for one experiment.

    fixed_a supplies the bin width a directly; cube_scaling supplies c
    and derives a = c / sqrt(ln n).  The sparsity threshold t defaults to
    G(a) + epsilon or G(a) - epsilon depending on the operation; an
    explicit t overrides the default (used for sharpness demos).
    """

    regime: str
    n: int
    trials: int
    master_seed: int
    a: float | None = None
    c: float | None = None
    t: float | None = None
    epsilon: float = 0.05
    lam: float = 3.0
    alpha: float | None = None
    rel_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.regime not in _REGIMES:
            raise SpecValidationError(f"regime must be one of {_REGIMES}, got {self.regime!r}")
        if not (_is_int(self.n) and self.n >= 1):
            raise SpecValidationError(f"n must be a positive integer, got {self.n!r}")
        if not (_is_int(self.trials) and self.trials >= 1):
            raise SpecValidationError(f"trials must be a positive integer, got {self.trials!r}")
        if not _is_int(self.master_seed):
            raise SpecValidationError(f"master_seed must be an integer, got {self.master_seed!r}")
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise SpecValidationError(f"epsilon must be positive, got {self.epsilon!r}")
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise SpecValidationError(f"lambda must be positive, got {self.lam!r}")
        if self.alpha is not None and not (0.0 < self.alpha < 1.0):
            raise SpecValidationError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if self.t is not None and not (0.0 <= self.t <= 1.0):
            raise SpecValidationError(f"t must lie in [0, 1], got {self.t!r}")
        if not (0.0 < self.rel_tol <= 1e-6):
            raise SpecValidationError(f"rel_tol must lie in (0, 1e-6], got {self.rel_tol!r}")
        if self.regime == "fixed_a":
            if self.a is None or not (self.a > 0.0 and math.isfinite(self.a)):
                raise SpecValidationError("fixed_a regime requires a positive a")
            if self.c is not None:
                raise SpecValidationError("fixed_a regime must not set c")
            big_g = big_g_value(self.a)
            if not (0.0 < big_g - self.epsilon and big_g + self.epsilon < 1.0):
                raise SpecValidationError(
                    f"epsilon window violated: need 0 < G(a) - eps and G(a) + eps < 1, "
                    f"got G({self.a}) = {big_g!r}, eps = {self.epsilon!r}"
                )
        else:
            if self.c is None or not (self.c > 0.0 and math.isfinite(self.c)):
                raise SpecValidationError("cube_scaling regime requires a positive c")
            if self.a is not None:
                raise SpecValidationError("cube_scaling regime must not set a")
            if self.n < 3:
                raise SpecValidationError("cube_scaling regime requires n >= 3")

    @property
    def effective_a(self) -> float:
        if self.regime == "fixed_a":
            return float(self.a)
        return float(self.c) / math.sqrt(math.log(self.n))

    @property
    def seed64(self) -> int:
        return self.master_seed & _MASK64


@dataclass(frozen=True)
class TrialRecord:
    """One Monte Carlo trial, serializable to a JSONL row."""

    trial_index: int
    statistic_pre: float
    statistic_post: float
    sr: float
    accepted_pre: bool
    accepted_post: bool
    zero_count: int
    theta_rle: list | None = None


OnTrial = Callable[[TrialRecord], None]


@dataclass
class ExperimentSummary:
    """Aggregated rates, bounds, premises and pass/fail checks."""

    operation: str
    spec: dict
    rates: dict[str, dict] = field(default_factory=dict)
    bounds: dict[str, float] = field(default_factory=dict)
    premises: dict[str, bool] = field(default_factory=dict)
    checks: dict[str, dict] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    passed: bool = True

    def finalize(self) -> "ExperimentSummary":
        self.passed = all(c["passed"] for c in self.checks.values())
        return self

    def to_dict(self) -> dict[str, Any]:
        return {
            "operation": self.operation,
            "spec": self.spec,
            "rates": self.rates,
            "bounds": self.bounds,
            "premises": self.premises,
            "checks": self.checks,
            "counts": self.counts,
            "passed": self.passed,
        }


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Counter-based substream: a pure function of (master_seed, trial_index)."""
    key = np.array([master_seed & _MASK64, trial_index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _f(x) -> float:
    return float(x)


def _check(passed, observed, limit, note: str = "") -> dict:
    return {"passed": bool(passed), "observed": _f(observed), "limit": _f(limit), "note": note}


def _rate(count: int, total: int) -> dict:
    lo, hi = wilson_interval(int(count), int(total))
    return {"rate": count / total, "lo": lo, "hi": hi, "count": int(count), "total": int(total)}


def _spec_dict(spec: ExperimentSpec) -> dict:
    return asdict(spec)


def _summary(operation: str, spec: ExperimentSpec) -> ExperimentSummary:
    return ExperimentSummary(operation=operation, spec=_spec_dict(spec))


def _require_regime(spec: ExperimentSpec, regime: str, operation: str) -> None:
    if spec.regime != regime:
        raise SpecValidationError(f"{operation} requires the {regime} regime, got {spec.regime!r}")


def _note_alpha_target(out: ExperimentSummary, spec: ExperimentSpec) -> None:
    # alpha is the false-alarm budget; lambda meets it when e^{-lam^2/2} <= alpha
    if spec.alpha is None:
        return
    out.bounds["alpha"] = spec.alpha
    out.premises["lambda_meets_alpha"] = math.exp(-0.5 * spec.lam * spec.lam) <= spec.alpha


# ---------------------------------------------------------------------------
# coupling validation


def run_coupling_validation(
    spec: ExperimentSpec, on_trial: OnTrial | None = None
) -> ExperimentSummary:
    """Distributional checks of the coupling attack at fixed a.

    Pools x' across trials and reports the KS distance to the normal CDF,
    the pooled zero-fraction against G(a), and the per-trial Hoeffding
    tail frequency P(sr >= G + eps) against exp(-2 n eps^2).
    """
    _require_regime(spec, "fixed_a", "run_coupling_validation")
    a, n, trials = spec.effective_a, spec.n, spec.trials
    big_g = big_g_value(a)
    params = KernelParams(a, rel_tol=spec.rel_tol)
    total = trials * n

    pool = np.empty(total, dtype=np.float64)
    zero_total = 0
    tail_count = 0
    for i in range(trials):
        rng = trial_rng(spec.seed64, i)
        x = rng.standard_normal(n)
        theta, x_post = couple_perturb(x, CouplingPolicy(params, rng))
        pool[i * n : (i + 1) * n] = x_post
        zc = theta.zero_count
        zero_total += zc
        sr = zc / n
        if sr >= big_g + spec.epsilon:
            tail_count += 1
        if on_trial is not None:
            _, s_pre = accel.parity_labels_and_sum(x, a)
            _, s_post = accel.parity_labels_and_sum(x_post, a)
            on_trial(
                TrialRecord(
                    trial_index=i,
                    statistic_pre=s_pre / n,
                    statistic_post=s_post / n,
                    sr=sr,
                    accepted_pre=True,
                    accepted_post=True,
                    zero_count=zc,
                    theta_rle=theta.to_rle(),
                )
            )

    ks = ks_distance_standard_normal(pool)
    mean, var, skew = sample_moments(pool)
    hoeffding_bound = math.exp(-2.0 * n * spec.epsilon * spec.epsilon)
    zero_frac = zero_total / total
    zero_tol = 4.0 * binomial_se(big_g, total)

    out = _summary("coupling_validation", spec)
    out.rates["zero_fraction"] = _rate(zero_total, total)
    out.rates["hoeffding_tail"] = _rate(tail_count, trials)
    out.bounds.update(
        {
            "big_g": big_g,
            "ks_critical": 1.95 / math.sqrt(total),
            "hoeffding_tail_bound": hoeffding_bound,
            "ks_distance": ks,
            "pool_mean": mean,
            "pool_var": var,
            "pool_skew": skew,
        }
    )
    out.checks["ks_within_critical"] = _check(
        ks <= 1.95 / math.sqrt(total), ks, 1.95 / math.sqrt(total),
        "KS distance of pooled x' to the standard normal CDF",
    )
    out.checks["zero_fraction_4se"] = _check(
        abs(zero_frac - big_g) <= zero_tol, abs(zero_frac - big_g), zero_tol,
        "pooled stay fraction vs G(a), 4 binomial SE",
    )
    tail_limit = hoeffding_bound + 3.0 * math.sqrt(hoeffding_bound / trials)
    out.checks["hoeffding_tail"] = _check(
        tail_count / trials <= tail_limit, tail_count / trials, tail_limit,
        "P(sr >= G + eps) vs exp(-2 n eps^2) plus MC slack",
    )
    out.checks["pool_mean_4se"] = _check(
        abs(mean) <= 4.0 / math.sqrt(total), abs(mean), 4.0 / math.sqrt(total), "x' mean"
    )
    out.checks["pool_var_4se"] = _check(
        abs(var - 1.0) <= 4.0 * math.sqrt(2.0 / total), abs(var - 1.0),
        4.0 * math.sqrt(2.0 / total), "x' variance",
    )
    out.checks["pool_skew_4se"] = _check(
        abs(skew) <= 4.0 * math.sqrt(6.0 / total), abs(skew), 4.0 * math.sqrt(6.0 / total),
        "x' skewness",
    )
    out.counts.update({"zero_total": zero_total, "tail_count": tail_count, "pooled": total})
    return out.finalize()


# ---------------------------------------------------------------------------
# Theorem 1, undetectable direction (c below pi/sqrt 2)


def run_thm1_undetectable(
    spec: ExperimentSpec, on_trial: OnTrial | None = None
) -> ExperimentSummary:
    """Cube regime, small c: the coupling leaves no coordinate unmoved.

    Computes the exact no-stay probability (1 - G(a))^n, the analytic
    chain bound (1 - (4/pi) n^(-pi^2/(2 c^2)))^n, and a Monte Carlo
    estimate whose Wilson interval must contain the exact value.
    """
    _require_regime(spec, "cube_scaling", "run_thm1_undetectable")
    c, n, trials = float(spec.c), spec.n, spec.trials
    a = spec.effective_a
    c_crit = math.pi / math.sqrt(2.0)
    premise_c = c < c_crit
    if not premise_c:
        warnings.warn(
            f"c = {c} is not below pi/sqrt(2) ~ {c_crit:.6f}; theorem hypothesis violated, "
            "running anyway",
            stacklevel=2,
        )

    big_g = big_g_value(a)
    exact = (1.0 - big_g) ** n
    chain_base = 1.0 - (4.0 / math.pi) * n ** (-math.pi**2 / (2.0 * c * c))
    chain_bound = chain_base**n if chain_base > 0.0 else 0.0

    params = KernelParams(a, rel_tol=spec.rel_tol)
    plan = accel.plan_for(a, spec.rel_tol)
    half = 0.5 * a
    zero_free = 0
    for i in range(trials):
        rng = trial_rng(spec.seed64, i)
        if on_trial is not None:
            x = rng.standard_normal(n)
            theta, x_post = couple_perturb(x, CouplingPolicy(params, rng))
            zc = theta.zero_count
            _, s_pre = accel.parity_labels_and_sum(x, a)
            _, s_post = accel.parity_labels_and_sum(x_post, a)
            on_trial(
                TrialRecord(
                    trial_index=i,
                    statistic_pre=s_pre / n,
                    statistic_post=s_post / n,
                    sr=zc / n,
                    accepted_pre=True,
                    accepted_post=True,
                    zero_count=zc,
                    theta_rle=theta.to_rle(),
                )
            )
        else:
            # Only coordinates inside the central bin can stay (the stay
            # probability vanishes elsewhere), so the die interval test
            # runs on that subset alone; same draws, same outcomes.  The
            # fraction of work is P(|X| < a/2), about 0.19 at the
            # preset's a ~ 0.494.
            x = rng.standard_normal(n)
            u = rng.random(n)
            mask = np.abs(x) < half
            if mask.any():
                phi_c, gamma_c = accel.phi_gamma(x[mask], plan)
                uc = u[mask]
                zc = int(np.count_nonzero((uc >= phi_c) & (uc < phi_c + gamma_c)))
            else:
                zc = 0
        if zc == 0:
            zero_free += 1

    lo, hi = wilson_interval(zero_free, trials)
    out = _summary("thm1_undetectable", spec)
    out.premises["c_below_pi_over_sqrt2"] = premise_c
    out.rates["no_stay_trials"] = _rate(zero_free, trials)
    out.bounds.update(
        {
            "a": a,
            "big_g": big_g,
            "exact_no_stay": exact,
            "chain_base": chain_base,
            "chain_bound": chain_bound,
            "deficit": (4.0 / math.pi) * n ** (1.0 - math.pi**2 / (2.0 * c * c)),
        }
    )
    out.checks["exact_ge_chain_bound"] = _check(
        exact >= chain_bound, exact, chain_bound,
        "(1 - G)^n against the first-term chain bound",
    )
    out.checks["wilson_contains_exact"] = _check(
        lo <= exact <= hi, exact, hi, f"MC Wilson interval [{lo!r}, {hi!r}] must contain exact"
    )
    out.counts["zero_free_trials"] = zero_free
    return out.finalize()


# ---------------------------------------------------------------------------
# Theorem 1, detectable direction (c above pi)


def run_thm1_detectable(
    spec: ExperimentSpec, on_trial: OnTrial | None = None
) -> ExperimentSummary:
    """Cube regime, large c: the zero test beats the full hypercube attack.

    Premises (recorded, not enforced): c > pi, G(a) > n^(-pi^2/(2 c^2)),
    n^(1 - pi^2/c^2) > lambda^2.  Each accepted sample receives the
    all-coordinates +a attack; the attacked parity sum must equal the
    exact negation, so no attacked sample is ever accepted.
    """
    _require_regime(spec, "cube_scaling", "run_thm1_detectable")
    c, n, trials, lam = float(spec.c), spec.n, spec.trials, spec.lam
    a = spec.effective_a
    big_g = big_g_value(a)

    n1_lhs, n1_rhs = big_g, n ** (-math.pi**2 / (2.0 * c * c))
    n2_lhs, n2_rhs = n ** (1.0 - math.pi**2 / (c * c)), lam * lam
    premises = {
        "c_above_pi": c > math.pi,
        "cube_n1": n1_lhs > n1_rhs,
        "cube_n2": n2_lhs > n2_rhs,
        "sqrt_n_G_above_lambda": math.sqrt(n) * big_g > lam,
    }
    if not all(premises.values()):
        warnings.warn(f"theorem premises not all met: {premises}; running anyway", stacklevel=2)

    s_min = min_accepted_sum(DetectorConfig(a, lam, "zero"), n)
    accept_pre_count = 0
    overlap = 0
    flip_violations = 0
    attacked = 0
    for i in range(trials):
        rng = trial_rng(spec.seed64, i)
        x = rng.standard_normal(n)
        _, s_pre = accel.parity_labels_and_sum(x, a)
        accept_pre = s_pre >= s_min
        accept_post = accept_pre
        s_post = s_pre
        if accept_pre:
            accept_pre_count += 1
            attacked += 1
            # full hypercube attack: every coordinate shifted by +a
            # (parity is sign-blind, so one sign pattern suffices)
            _, s_post = accel.parity_labels_and_sum(x + a, a)
            if s_post != -s_pre:
                flip_violations += 1
            accept_post = s_post >= s_min
            if accept_post:
                overlap += 1
        if on_trial is not None:
            on_trial(
                TrialRecord(
                    trial_index=i,
                    statistic_pre=s_pre / n,
                    statistic_post=s_post / n,
                    sr=0.0,
                    accepted_pre=accept_pre,
                    accepted_post=accept_post,
                    zero_count=0,
                    theta_rle=[[1, n]] if accept_pre else None,
                )
            )

    alarm_bound = math.exp(-0.5 * lam * lam)
    floor = 1.0 - alarm_bound - 3.0 * binomial_se(alarm_bound, trials)
    out = _summary("thm1_detectable", spec)
    _note_alpha_target(out, spec)
    out.premises.update(premises)
    out.rates["null_accept"] = _rate(accept_pre_count, trials)
    out.rates["overlap"] = _rate(overlap, trials)
    out.bounds.update(
        {
            "a": a,
            "big_g": big_g,
            "cube_n1_lhs": n1_lhs,
            "cube_n1_rhs": n1_rhs,
            "cube_n2_lhs": n2_lhs,
            "cube_n2_rhs": n2_rhs,
            "null_accept_floor": floor,
        }
    )
    out.checks["overlap_zero"] = _check(overlap == 0, overlap, 0, "exact integer assertion")
    out.checks["flip_identity_zero"] = _check(
        flip_violations == 0, flip_violations, 0, "direct binning of x + a vs negated labels"
    )
    out.checks["null_accept_floor"] = _check(
        accept_pre_count / trials >= floor, accept_pre_count / trials, floor,
        "P(A > 0) under the null vs 1 - exp(-lambda^2/2) - 3 SE",
    )
    out.counts.update({"attacked": attacked, "overlap_count": overlap, "flip_violations": flip_violations})
    return out.finalize()


# ---------------------------------------------------------------------------
# Theorem 2, undetectable direction (t = G + eps)


def run_thm2_undetectable(
    spec: ExperimentSpec, on_trial: OnTrial | None = None
) -> ExperimentSummary:
    """Fixed a, generous budget: the coupling evades any test.

    Confirms the attack lands inside the sparsity budget with frequency
    >= 1 - exp(-2 n eps^2) and that the attacked acceptance rate trails
    the null acceptance rate by at most that bound plus MC slack.
    """
    _require_regime(spec, "fixed_a", "run_thm2_undetectable")
    a, n, trials, lam = spec.effective_a, spec.n, spec.trials, spec.lam
    big_g = big_g_value(a)
    t = spec.t if spec.t is not None else big_g + spec.epsilon
    params = KernelParams(a, rel_tol=spec.rel_tol)
    s_min = min_accepted_sum(DetectorConfig(a, lam), n)

    accept_pre_count = 0
    success_count = 0
    in_family_count = 0
    flip_violations = 0
    for i in range(trials):
        rng = trial_rng(spec.seed64, i)
        x = rng.standard_normal(n)
        theta, x_post = couple_perturb(x, CouplingPolicy(params, rng))
        zc = theta.zero_count
        sr = zc / n
        in_family = sr < t

        z, s_pre = accel.parity_labels_and_sum(x, a)
        _, s_post = accel.parity_labels_and_sum(x_post, a)
        kept = accel.zero_signed_sum(z, theta.signs)
        if s_post != 2 * kept - s_pre:
            flip_violations += 1

        accept_pre = s_pre >= s_min
        accept_post = s_post >= s_min
        accept_pre_count += accept_pre
        success = accept_post and in_family
        success_count += success
        in_family_count += in_family
        if on_trial is not None:
            on_trial(
                TrialRecord(
                    trial_index=i,
                    statistic_pre=s_pre / n,
                    statistic_post=s_post / n,
                    sr=sr,
                    accepted_pre=accept_pre,
                    accepted_post=accept_post,
                    zero_count=zc,
                    theta_rle=theta.to_rle(),
                )
            )

    bound = math.exp(-2.0 * n * spec.epsilon * spec.epsilon)
    null_rate = accept_pre_count / trials
    success_rate = success_count / trials
    gap = null_rate - success_rate
    gap_se = math.sqrt(
        (binomial_se(null_rate, trials) ** 2 + binomial_se(success_rate, trials) ** 2)
    )
    gap_limit = bound + 3.0 * gap_se
    family_floor = 1.0 - bound - 3.0 * math.sqrt(bound / trials)

    out = _summary("thm2_undetectable", spec)
    _note_alpha_target(out, spec)
    out.rates["null_accept"] = _rate(accept_pre_count, trials)
    out.rates["attacked_success"] = _rate(success_count, trials)
    out.rates["in_family"] = _rate(in_family_count, trials)
    out.bounds.update(
        {
            "big_g": big_g,
            "t": t,
            "hoeffding_bound": bound,
            "acceptance_gap": gap,
            "gap_limit": gap_limit,
        }
    )
    out.checks["gap_within_bound"] = _check(
        gap <= gap_limit, gap, gap_limit,
        "null acceptance minus attacked-and-in-budget acceptance",
    )
    out.checks["in_family_floor"] = _check(
        in_family_count / trials >= family_floor, in_family_count / trials, family_floor,
        "attack frequency inside the sparsity budget",
    )
    out.checks["flip_identity_zero"] = _check(
        flip_violations == 0, flip_violations, 0, "direct binning vs integer-shift labels"
    )
    out.counts.update({"flip_violations": flip_violations})
    return out.finalize()


# ---------------------------------------------------------------------------
# Theorem 2, detectable direction (t = G - eps)


def _min_admissible_n(lam: float, eps: float) -> tuple[int, float]:
    # n must exceed lambda^2/eps^2.  CLI inputs are decimal, so a
    # threshold within 1e-9 of an integer is treated as that integer
    # (float(9/0.0025) lands just below 3600 otherwise).
    threshold = (lam * lam) / (eps * eps)
    snapped = round(threshold)
    if abs(threshold - snapped) <= 1e-9 * max(1.0, abs(snapped)):
        threshold = float(snapped)
    return int(math.floor(threshold)) + 1, threshold


def run_thm2_detectable(
    spec: ExperimentSpec, on_trial: OnTrial | None = None
) -> ExperimentSummary:
    """Fixed a, tight budget: the thresholded test beats optimal evasion.

    Requires n > lambda^2 / eps^2 (hard error naming the minimal
    admissible n).  Every trial is attacked by optimal_parity_evasion;
    whenever the clean sample is accepted, the attacked one must be
    rejected -- an exact implication, checked with zero tolerance.
    """
    _require_regime(spec, "fixed_a", "run_thm2_detectable")
    a, n, trials, lam, eps = spec.effective_a, spec.n, spec.trials, spec.lam, spec.epsilon
    min_n, threshold = _min_admissible_n(lam, eps)
    if n < min_n:
        raise SpecValidationError(
            f"n = {n} violates n > lambda^2/eps^2 = {threshold:g}; "
            f"minimal admissible n is {min_n}"
        )
    big_g = big_g_value(a)
    t = spec.t if spec.t is not None else big_g - eps
    premise_t = t <= big_g - eps + 1e-12
    budget = math.ceil(t * n) - 1
    if budget < 0:
        raise SpecValidationError(f"t = {t!r} leaves no admissible perturbation")
    s_min = min_accepted_sum(DetectorConfig(a, lam), n)

    accept_pre_count = 0
    accept_post_count = 0
    overlap = 0
    flip_violations = 0
    for i in range(trials):
        rng = trial_rng(spec.seed64, i)
        x = rng.standard_normal(n)
        z, s_pre = accel.parity_labels_and_sum(x, a)
        theta = optimal_parity_evasion(z, a, t, n)
        kept = budget if (n + s_pre) // 2 >= budget else (n + s_pre) // 2
        s_post = 2 * kept - s_pre

        _, s_direct = accel.parity_labels_and_sum(x + theta.signs * a, a)
        if s_direct != s_post:
            flip_violations += 1

        accept_pre = s_pre >= s_min
        accept_post = s_post >= s_min
        accept_pre_count += accept_pre
        accept_post_count += accept_post
        if accept_pre and accept_post:
            overlap += 1
        if on_trial is not None:
            on_trial(
                TrialRecord(
                    trial_index=i,
                    statistic_pre=s_pre / n,
                    statistic_post=s_post / n,
                    sr=theta.zero_count / n,
                    accepted_pre=accept_pre,
                    accepted_post=accept_post,
                    zero_count=theta.zero_count,
                    theta_rle=theta.to_rle(),
                )
            )

    alarm_bound = math.exp(-0.5 * lam * lam)
    alarm_rate = 1.0 - accept_pre_count / trials
    alarm_limit = alarm_bound + 3.0 * binomial_se(alarm_bound, trials)

    out = _summary("thm2_detectable", spec)
    _note_alpha_target(out, spec)
    out.premises["t_at_most_G_minus_eps"] = bool(premise_t)
    out.premises["n_above_lambda2_over_eps2"] = True
    out.rates["null_accept"] = _rate(accept_pre_count, trials)
    out.rates["attacked_accept"] = _rate(accept_post_count, trials)
    out.rates["overlap"] = _rate(overlap, trials)
    out.bounds.update(
        {
            "big_g": big_g,
            "t": t,
            "budget": budget,
            "false_alarm_bound": alarm_bound,
            "min_admissible_n": min_n,
        }
    )
    out.checks["overlap_zero"] = _check(
        overlap == 0 if premise_t else True, overlap, 0,
        "exact when t <= G - eps and n > lambda^2/eps^2" if premise_t
        else "t out of theorem range: overlap expected, not asserted",
    )
    out.checks["flip_identity_zero"] = _check(
        flip_violations == 0, flip_violations, 0, "direct binning vs integer-shift labels"
    )
    out.checks["null_false_alarm"] = _check(
        alarm_rate <= alarm_limit, alarm_rate, alarm_limit,
        "null rejection rate vs exp(-lambda^2/2) + 3 SE",
    )
    out.counts.update({"overlap_count": overlap, "flip_violations": flip_violations})
    return out.finalize()


# ---------------------------------------------------------------------------
# phase-transition sweep


def sweep_phase_transition(
    spec: ExperimentSpec,
    t_offsets: list[float] | None = None,
    c_values: list[float] | None = None,
) -> list[dict]:
    """Attacker-success rates across the sparsity or cube-scaling grid.

    fixed_a: sweeps t = G(a) + offset over the given offsets (default
    -0.15..0.15 step 0.025) against the optimal evasion adversary; all
    cells share trial substreams, so the success rate is exactly
    monotone in t.  cube_scaling: sweeps c (default 1..4 in 13 steps)
    with the coupling attack against the zero-variant test.

    Returns one row dict per cell, in grid order.
    """
    rows: list[dict] = []
    if spec.regime == "fixed_a":
        a, n, trials, lam = spec.effective_a, spec.n, spec.trials, spec.lam
        big_g = big_g_value(a)
        if t_offsets is None:
            t_offsets = [round(-0.15 + 0.025 * j, 6) for j in range(13)]
        ts = [big_g + off for off in t_offsets]
        budgets = []
        for t in ts:
            if not (0.0 <= t <= 1.0):
                raise SpecValidationError(f"t = {t!r} outside [0, 1]; shrink the offset grid")
            budgets.append(math.ceil(t * n) - 1)
        s_min = min_accepted_sum(DetectorConfig(a, lam), n)
        success = [0] * len(ts)
        pre_accepts = 0
        overlaps = [0] * len(ts)
        for i in range(trials):
            rng = trial_rng(spec.seed64, i)
            x = rng.standard_normal(n)
            _, s_pre = accel.parity_labels_and_sum(x, a)
            n_plus = (n + s_pre) // 2
            accept_pre = s_pre >= s_min
            pre_accepts += accept_pre
            for j, budget in enumerate(budgets):
                kept = budget if n_plus >= budget else n_plus
                s_post = 2 * kept - s_pre
                accept_post = s_post >= s_min
                success[j] += accept_post
                if accept_pre and accept_post:
                    overlaps[j] += 1
        for j, (off, t) in enumerate(zip(t_offsets, ts)):
            row = {
                "kind": "t",
                "t_offset": off,
                "t": t,
                "budget": budgets[j],
                "big_g": big_g,
                "null_accept_rate": pre_accepts / trials,
                "attacker_success": _rate(success[j], trials),
                "overlap_rate": overlaps[j] / trials,
            }
            rows.append(row)
        return rows

    # cube regime: coupling attack against the zero test, per cell
    n, trials = spec.n, spec.trials
    if c_values is None:
        c_values = [1.0 + 0.25 * j for j in range(13)]
    for c in c_values:
        cell = ExperimentSpec(
            regime="cube_scaling", n=n, trials=trials, master_seed=spec.master_seed,
            c=float(c), epsilon=spec.epsilon, lam=spec.lam, rel_tol=spec.rel_tol,
        )
        a = cell.effective_a
        big_g = big_g_value(a)
        params = KernelParams(a, rel_tol=spec.rel_tol)
        s_min = min_accepted_sum(DetectorConfig(a, spec.lam, "zero"), n)
        pre_accepts = 0
        post_accepts = 0
        overlap = 0
        zero_free = 0
        wins = 0
        for i in range(trials):
            rng = trial_rng(spec.seed64, i)
            x = rng.standard_normal(n)
            theta, x_post = couple_perturb(x, CouplingPolicy(params, rng))
            _, s_pre = accel.parity_labels_and_sum(x, a)
            _, s_post = accel.parity_labels_and_sum(x_post, a)
            accept_pre = s_pre >= s_min
            accept_post = s_post >= s_min
            pre_accepts += accept_pre
            post_accepts += accept_post
            overlap += accept_pre and accept_post
            zero_free += theta.zero_count == 0
            wins += accept_pre and not accept_post
        rows.append(
            {
                "kind": "c",
                "c": float(c),
                "a": a,
                "big_g": big_g,
                "exact_no_stay": (1.0 - big_g) ** n,
                "no_stay_rate": _rate(zero_free, trials),
                "null_accept_rate": pre_accepts / trials,
                "attacker_success": _rate(post_accepts, trials),
                "overlap_rate": overlap / trials,
                "detector_win_rate": wins / trials,
            }
        )
    return rows
