"""Seeded Monte Carlo experiments reproducing both theorem directions.

Every experiment consumes an ExperimentSpec and returns an
ExperimentSummary holding empirical rates (with Wilson 95% intervals),
the analytic bounds evaluated at the spec, machine-checked premises, and
named pass/fail checks.  Trials use counter-based Philox substreams
keyed by (master_seed, trial_index), and the whole summary is
bit-reproducible for a given seed.

Every run is a reducer over one trial-block engine: ``_blocks`` draws
consecutive trials into the rows of an (m, n) array, each row from its
own substream, so the kernels run once per block while every value stays
what a lone trial would give.  ``_tally`` is the one place blocks run.
It splits each run's blocks into tasks of contiguous blocks and runs the
same task function whatever the worker count: sharded across one forked
worker process per core this process may use (``os.sched_getaffinity``)
when the run is large enough, else in this process.  ``taskset -c 0``
thus runs everything on one core.  Every counter is an integer sum, so
no payload depends on the worker count.  An optional ``on_trial``
callback receives each trial's TrialRecord in trial order, from the
parent; no record is held by the run beyond the few tasks in flight.

Attacked statistics are derived by the exact integer-shift construction
(a +-a shift moves the bin index by exactly one) and, in the theorem
runs, re-verified per trial by direct binning of x + theta; both sides
are integer label sums, so the flip identity is asserted with zero
tolerance.  thm1-undetectable rolls the die on central-bin coordinates
only, the only ones that can stay, so its records carry no theta_rle and
take s_post from the flip identity: each stay keeps label +1.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import warnings
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from . import accel
from .attack import PerturbationVector, couple_perturb, optimal_parity_evasion
from .detector import DetectorConfig, big_g_value, min_accepted_sum
from .forked import forked_map, worker_count
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
# Coordinates per trial block: max(1, _BLOCK_COORDS // n) trials a block.
_BLOCK_COORDS = 1 << 14
# Blocks per task, the unit _tally runs and hands on, in a worker or in-process.
_TASK_BLOCKS = 8
# Blocks each worker must get before a run is sharded.  Forking two
# workers, their first result and reaping them cost 30-40 ms on a 2-core
# machine, the time of about 64 of the cheapest (parity-only) blocks.
_MIN_WORKER_BLOCKS = 64


class SpecValidationError(ValueError):
    """An experiment spec violates a hard precondition."""


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
        # bool is a subclass of int, but True is not a count, a seed or a real number
        for name in ("a", "c", "t", "epsilon", "lam", "alpha", "rel_tol"):
            if isinstance(value := getattr(self, name), bool):
                raise SpecValidationError(f"{name} must be a real number, got {value!r}")
        if self.regime not in _REGIMES:
            raise SpecValidationError(f"regime must be one of {_REGIMES}, got {self.regime!r}")
        if not (type(self.n) is int and self.n >= 1):
            raise SpecValidationError(f"n must be a positive integer, got {self.n!r}")
        if not (type(self.trials) is int and self.trials >= 1):
            raise SpecValidationError(f"trials must be a positive integer, got {self.trials!r}")
        if type(self.master_seed) is not int:
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

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def trial_rng(
    master_seed: int, trial_index: int, bit_generator: np.random.Philox | None = None
) -> np.random.Generator:
    """Counter-based substream: a pure function of (master_seed, trial_index).

    Without bit_generator a fresh Philox is built for the key.  Given a
    Philox, its state is reset to that key with counter 0 and an empty
    buffer, which is the state a fresh one starts in and costs a fraction
    of building one; every generator built on that Philox, earlier ones
    included, then draws the new substream.
    """
    key = np.array([master_seed & _MASK64, trial_index & _MASK64], dtype=np.uint64)
    if bit_generator is None:
        return np.random.Generator(np.random.Philox(key=key))
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bit_generator)


@dataclass(frozen=True)
class _Job:
    """One run's trials: reduce_block(start, x, u) -> (counters, record rows or None)."""

    spec: ExperimentSpec
    reduce_block: Callable[..., tuple[dict, list | None]]
    uniforms: bool = False
    on_trial: OnTrial | None = None

    @property
    def rows_per_block(self) -> int:
        return min(self.spec.trials, max(1, _BLOCK_COORDS // self.spec.n))

    @property
    def block_count(self) -> int:
        return -(-self.spec.trials // self.rows_per_block)


def _blocks(
    spec: ExperimentSpec, first: int, stop: int, bit_generator: np.random.Philox,
    x: np.ndarray, u: np.ndarray | None,
) -> Iterator[tuple[int, np.ndarray, np.ndarray | None]]:
    """Yield (first trial index, x, u) for blocks first..stop-1 of a run's trials.

    Row r of the (m, n) array x holds trial start + r's normals, drawn
    from trial_rng(seed, start + r, bit_generator) as a lone trial draws
    them; u, when given, holds that trial's uniforms, drawn next from the
    same stream.  Every block is drawn into the same two arrays, so a
    block is valid only until the next one is requested.
    """
    m = len(x)
    # bit_generator is passed positionally because perfbench's tracer
    # wraps trial_rng as a positional-only lambda
    for start in range(first * m, min(spec.trials, stop * m), m):
        rows = min(m, spec.trials - start)
        for r in range(rows):
            rng = trial_rng(spec.seed64, start + r, bit_generator)
            rng.standard_normal(out=x[r])
            if u is not None:
                rng.random(out=u[r])
        yield start, x[:rows], None if u is None else u[:rows]


def _tally(*jobs: _Job) -> list[dict[str, Any]]:
    """Total each job's integer counters over its trial blocks.

    reduce_block(start, x, u) returns per-row counters (bool or integer
    arrays of shape (m,) or (m, cells)), each summed over rows and blocks
    and returned as a Python int, or a list of ints per cell, together
    with the block's record rows (``_record_rows``) or None.  Tasks of
    _TASK_BLOCKS blocks run in forked workers when every worker gets at
    least _MIN_WORKER_BLOCKS blocks, else in this process; either way
    their results are consumed in task order, so each job's on_trial
    sees its records in trial order.  A buffer that reduce_block fills
    for the caller must be a shared mapping made before the call, since
    a forked worker writes only its own copy of a private array.
    """
    # One Philox, re-keyed for every trial, and one pair of block arrays
    # serve every task in a process (forked workers write their own
    # copies), so the jobs must share one block shape, as a sweep's cells do.
    if len({(job.rows_per_block, job.spec.n, job.uniforms) for job in jobs}) != 1:
        raise ValueError("the jobs of one tally must share one block shape")
    bit_generator = np.random.Philox(0)
    x = np.empty((jobs[0].rows_per_block, jobs[0].spec.n))
    u = np.empty_like(x) if jobs[0].uniforms else None
    workers = min(worker_count(), sum(job.block_count for job in jobs) // _MIN_WORKER_BLOCKS)
    tasks = [(j, first, min(first + _TASK_BLOCKS, job.block_count))
             for j, job in enumerate(jobs) for first in range(0, job.block_count, _TASK_BLOCKS)]

    def run_task(task):
        # blocks first..stop-1 of job j: j, counters summed over rows, and record rows
        j, first, stop = task
        counts: dict[str, Any] = {}
        records: list = []
        for block in _blocks(jobs[j].spec, first, stop, bit_generator, x, u):
            counters, rows = jobs[j].reduce_block(*block)
            for name, per_row in counters.items():
                counts[name] = counts.get(name, 0) + per_row.sum(axis=0)
            records += rows or []
        return j, counts, records

    # one worker would add only a fork, and perfbench's tracer sees this process alone
    if workers > 1:
        results = forked_map(run_task, tasks, workers)
    else:
        results = (run_task(task) for task in tasks)
    totals: list[dict[str, Any]] = [{} for _ in jobs]
    with contextlib.closing(results):
        for j, counters, records in results:
            for name, total in counters.items():
                totals[j][name] = totals[j].get(name, 0) + total
            n, on_trial = jobs[j].spec.n, jobs[j].on_trial
            for index, sp, so, zc, ap, ao, theta in records:
                if isinstance(theta, PerturbationVector):
                    theta = theta.to_rle()
                on_trial(TrialRecord(
                    trial_index=index, statistic_pre=sp / n, statistic_post=so / n, sr=zc / n,
                    accepted_pre=ap, accepted_post=ao, zero_count=zc, theta_rle=theta,
                ))
    return [{name: total.tolist() for name, total in job_totals.items()} for job_totals in totals]


def _record_rows(start: int, s_pre, s_post, zero_count, accepted_pre, accepted_post,
                 theta: Callable[[int], PerturbationVector | list | None]) -> list[tuple]:
    """A block's record rows, one tuple per row, in trial order.

    A row is (trial index, s_pre, s_post, zero count, accepted_pre,
    accepted_post, theta).  Each per-row value passed in is an array with
    one entry per row or a scalar shared by every row.  theta(r) gives row r's theta_rle, or the
    PerturbationVector that ``_tally`` encodes into it just before handing
    on_trial the row's TrialRecord: a task's run-length lists are never
    alive together, so the cyclic collector does not rescan them.
    """
    m = len(s_pre)
    cols = [np.broadcast_to(v, (m,)).tolist()
            for v in (s_pre, s_post, zero_count, accepted_pre, accepted_post)]
    return [(start + r, *row, theta(r)) for r, row in enumerate(zip(*cols))]


def _check(passed, observed, limit, note: str = "") -> dict:
    return {"passed": bool(passed), "observed": float(observed), "limit": float(limit),
            "note": note}


def _at_most(observed, limit, note: str) -> dict:
    return _check(observed <= limit, observed, limit, note)


def _at_least(observed, limit, note: str) -> dict:
    return _check(observed >= limit, observed, limit, note)


def _rate(count: int, total: int) -> dict:
    lo, hi = wilson_interval(int(count), int(total))
    return {"rate": count / total, "lo": lo, "hi": hi, "count": int(count), "total": int(total)}


def _summary(operation: str, spec: ExperimentSpec, rates: dict[str, tuple[int, int]],
             bounds: dict[str, float], checks: dict[str, dict],
             premises: dict[str, bool] | None = None,
             counts: dict[str, int] | None = None) -> ExperimentSummary:
    """A run's summary: Wilson intervals for its (count, total) rates; passed if all checks are."""
    return ExperimentSummary(
        operation=operation, spec=asdict(spec),
        rates={name: _rate(count, total) for name, (count, total) in rates.items()},
        bounds=bounds, premises=premises or {}, checks=checks, counts=counts or {},
        passed=all(c["passed"] for c in checks.values()),
    )


def _require_regime(spec: ExperimentSpec, regime: str, operation: str) -> None:
    if spec.regime != regime:
        raise SpecValidationError(f"{operation} requires the {regime} regime, got {spec.regime!r}")


def _note_alpha_target(out: ExperimentSummary, spec: ExperimentSpec) -> ExperimentSummary:
    # alpha is the false-alarm budget; lambda meets it when e^{-lam^2/2} <= alpha
    if spec.alpha is not None:
        out.bounds["alpha"] = spec.alpha
        out.premises["lambda_meets_alpha"] = math.exp(-0.5 * spec.lam * spec.lam) <= spec.alpha
    return out


def _evaded_sum(s_pre, n: int, budget):
    # the label sum after optimal_parity_evasion, which keeps min(budget,
    # #{z = +1}) = min(budget, (n + s_pre) / 2) coordinates and flips the rest
    return 2 * np.minimum((n + s_pre) // 2, budget) - s_pre


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
    # rows written by forked workers land in this process's pool through
    # an anonymous shared mapping
    pool = np.frombuffer(mmap.mmap(-1, 8 * total), dtype=np.float64).reshape(trials, n)

    def reduce_block(start, x, u):
        theta, x_post = couple_perturb(x, params, u)
        pool[start : start + len(x)] = x_post
        zc = theta.zero_count
        rows = None
        if on_trial is not None:
            _, s_pre = accel.parity_labels_and_sum(x, a)
            _, s_post = accel.parity_labels_and_sum(x_post, a)
            rows = _record_rows(start, s_pre, s_post, zc, True, True, theta.row)
        return {"zero_total": zc, "tail_count": zc / n >= big_g + spec.epsilon}, rows

    (tally,) = _tally(_Job(spec, reduce_block, uniforms=True, on_trial=on_trial))
    zero_total, tail_count = tally["zero_total"], tally["tail_count"]
    mean, var, skew = sample_moments(pool.reshape(-1))
    ks = ks_distance_standard_normal(pool.reshape(-1), overwrite_input=True)
    hoeffding_bound = math.exp(-2.0 * n * spec.epsilon * spec.epsilon)
    ks_critical = 1.95 / math.sqrt(total)
    tail_limit = hoeffding_bound + 3.0 * math.sqrt(hoeffding_bound / trials)

    return _summary(
        "coupling_validation", spec,
        rates={"zero_fraction": (zero_total, total), "hoeffding_tail": (tail_count, trials)},
        bounds={"big_g": big_g, "ks_critical": ks_critical, "hoeffding_tail_bound": hoeffding_bound,
                "ks_distance": ks, "pool_mean": mean, "pool_var": var, "pool_skew": skew},
        checks={
            "ks_within_critical": _at_most(
                ks, ks_critical, "KS distance of pooled x' to the standard normal CDF"),
            "zero_fraction_4se": _at_most(
                abs(zero_total / total - big_g), 4.0 * binomial_se(big_g, total),
                "pooled stay fraction vs G(a), 4 binomial SE"),
            "hoeffding_tail": _at_most(tail_count / trials, tail_limit,
                                       "P(sr >= G + eps) vs exp(-2 n eps^2) plus MC slack"),
            "pool_mean_4se": _at_most(abs(mean), 4.0 / math.sqrt(total), "x' mean"),
            "pool_var_4se": _at_most(abs(var - 1.0), 4.0 * math.sqrt(2.0 / total), "x' variance"),
            "pool_skew_4se": _at_most(abs(skew), 4.0 * math.sqrt(6.0 / total), "x' skewness"),
        },
        counts={"zero_total": zero_total, "tail_count": tail_count, "pooled": total},
    )


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

    plan = accel.plan_for(a, spec.rel_tol)

    def reduce_block(start, x, u):
        # Only coordinates inside the central bin can stay (the stay
        # probability vanishes elsewhere), so the die runs on that
        # subset alone; same draws, same outcomes.  The fraction of
        # work is P(|X| < a/2), about 0.19 at the preset's a ~ 0.494.
        central = np.flatnonzero(np.abs(x) < 0.5 * a)
        phi_c, gamma_c = accel.phi_gamma(x.ravel()[central], plan)
        uc = u.ravel()[central]
        stays = central[accel.die_outcomes(phi_c, gamma_c, uc) == 0]
        zc = np.bincount(stays // n, minlength=len(x))
        rows = None
        if on_trial is not None:
            # every stay keeps the central bin's label +1 and every +-a
            # move flips a label, so s_post = zc - (s_pre - zc)
            _, s_pre = accel.parity_labels_and_sum(x, a)
            rows = _record_rows(start, s_pre, 2 * zc - s_pre, zc, True, True, lambda r: None)
        return {"zero_free": zc == 0}, rows

    (tally,) = _tally(_Job(spec, reduce_block, uniforms=True, on_trial=on_trial))
    zero_free = tally["zero_free"]
    lo, hi = wilson_interval(zero_free, trials)
    return _summary(
        "thm1_undetectable", spec,
        rates={"no_stay_trials": (zero_free, trials)},
        bounds={"a": a, "big_g": big_g, "exact_no_stay": exact, "chain_base": chain_base,
                "chain_bound": chain_bound,
                "deficit": (4.0 / math.pi) * n ** (1.0 - math.pi**2 / (2.0 * c * c))},
        checks={
            "exact_ge_chain_bound": _at_least(
                exact, chain_bound, "(1 - G)^n against the first-term chain bound"),
            "wilson_contains_exact": _check(
                lo <= exact <= hi, exact, hi,
                f"MC Wilson interval [{lo!r}, {hi!r}] must contain exact"),
        },
        premises={"c_below_pi_over_sqrt2": premise_c},
        counts={"zero_free_trials": zero_free},
    )


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

    def reduce_block(start, x, u):
        _, s_pre = accel.parity_labels_and_sum(x, a)
        accept_pre = s_pre >= s_min
        # only accepted samples are attacked; the rest keep s_post = s_pre
        s_post = s_pre.copy()
        if accept_pre.any():
            # full hypercube attack: every coordinate shifted by +a
            # (parity is sign-blind, so one sign pattern suffices)
            _, s_post[accept_pre] = accel.parity_labels_and_sum(x[accept_pre] + a, a)
        accept_post = s_post >= s_min
        rows = None
        if on_trial is not None:
            rows = _record_rows(start, s_pre, s_post, 0, accept_pre, accept_post,
                                lambda r: [[1, n]] if accept_pre[r] else None)
        return {"accept_pre": accept_pre, "overlap": accept_pre & accept_post,
                "flip_violations": accept_pre & (s_post != -s_pre)}, rows

    (tally,) = _tally(_Job(spec, reduce_block, on_trial=on_trial))
    accept_pre_count, overlap = tally["accept_pre"], tally["overlap"]
    flip_violations = tally["flip_violations"]

    alarm_bound = math.exp(-0.5 * lam * lam)
    floor = 1.0 - alarm_bound - 3.0 * binomial_se(alarm_bound, trials)
    return _note_alpha_target(_summary(
        "thm1_detectable", spec,
        rates={"null_accept": (accept_pre_count, trials), "overlap": (overlap, trials)},
        bounds={"a": a, "big_g": big_g, "cube_n1_lhs": n1_lhs, "cube_n1_rhs": n1_rhs,
                "cube_n2_lhs": n2_lhs, "cube_n2_rhs": n2_rhs, "null_accept_floor": floor},
        checks={
            "overlap_zero": _at_most(overlap, 0, "exact integer assertion"),
            "flip_identity_zero": _at_most(
                flip_violations, 0, "direct binning of x + a vs negated labels"),
            "null_accept_floor": _at_least(
                accept_pre_count / trials, floor,
                "P(A > 0) under the null vs 1 - exp(-lambda^2/2) - 3 SE"),
        },
        premises=premises,
        counts={"attacked": accept_pre_count, "overlap_count": overlap,
                "flip_violations": flip_violations},
    ), spec)


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

    def reduce_block(start, x, u):
        theta, x_post = couple_perturb(x, params, u)
        zc = theta.zero_count
        in_family = zc / n < t
        z, s_pre = accel.parity_labels_and_sum(x, a)
        _, s_post = accel.parity_labels_and_sum(x_post, a)
        kept = accel.zero_signed_sum(z, theta.signs)
        accept_pre = s_pre >= s_min
        accept_post = s_post >= s_min
        rows = None
        if on_trial is not None:
            rows = _record_rows(start, s_pre, s_post, zc, accept_pre, accept_post, theta.row)
        return {"accept_pre": accept_pre, "success": accept_post & in_family,
                "in_family": in_family, "flip_violations": s_post != 2 * kept - s_pre}, rows

    (tally,) = _tally(_Job(spec, reduce_block, uniforms=True, on_trial=on_trial))
    accept_pre_count, success_count = tally["accept_pre"], tally["success"]
    in_family_count, flip_violations = tally["in_family"], tally["flip_violations"]

    bound = math.exp(-2.0 * n * spec.epsilon * spec.epsilon)
    null_rate = accept_pre_count / trials
    success_rate = success_count / trials
    gap = null_rate - success_rate
    gap_se = math.sqrt(
        (binomial_se(null_rate, trials) ** 2 + binomial_se(success_rate, trials) ** 2)
    )
    gap_limit = bound + 3.0 * gap_se
    family_floor = 1.0 - bound - 3.0 * math.sqrt(bound / trials)

    return _note_alpha_target(_summary(
        "thm2_undetectable", spec,
        rates={"null_accept": (accept_pre_count, trials),
               "attacked_success": (success_count, trials),
               "in_family": (in_family_count, trials)},
        bounds={"big_g": big_g, "t": t, "hoeffding_bound": bound, "acceptance_gap": gap,
                "gap_limit": gap_limit},
        checks={
            "gap_within_bound": _at_most(
                gap, gap_limit, "null acceptance minus attacked-and-in-budget acceptance"),
            "in_family_floor": _at_least(in_family_count / trials, family_floor,
                                         "attack frequency inside the sparsity budget"),
            "flip_identity_zero": _at_most(
                flip_violations, 0, "direct binning vs integer-shift labels"),
        },
        counts={"flip_violations": flip_violations},
    ), spec)


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

    def reduce_block(start, x, u):
        z, s_pre = accel.parity_labels_and_sum(x, a)
        theta = optimal_parity_evasion(z, a, t, n)
        s_post = _evaded_sum(s_pre, n, budget)
        _, s_direct = accel.parity_labels_and_sum(x + theta.signs * a, a)
        accept_pre = s_pre >= s_min
        accept_post = s_post >= s_min
        rows = None
        if on_trial is not None:
            rows = _record_rows(start, s_pre, s_post, theta.zero_count, accept_pre, accept_post,
                                theta.row)
        return {"accept_pre": accept_pre, "accept_post": accept_post,
                "overlap": accept_pre & accept_post, "flip_violations": s_direct != s_post}, rows

    (tally,) = _tally(_Job(spec, reduce_block, on_trial=on_trial))
    accept_pre_count, accept_post_count = tally["accept_pre"], tally["accept_post"]
    overlap, flip_violations = tally["overlap"], tally["flip_violations"]

    alarm_bound = math.exp(-0.5 * lam * lam)
    alarm_rate = 1.0 - accept_pre_count / trials
    alarm_limit = alarm_bound + 3.0 * binomial_se(alarm_bound, trials)

    return _note_alpha_target(_summary(
        "thm2_detectable", spec,
        rates={"null_accept": (accept_pre_count, trials),
               "attacked_accept": (accept_post_count, trials),
               "overlap": (overlap, trials)},
        bounds={"big_g": big_g, "t": t, "budget": budget, "false_alarm_bound": alarm_bound,
                "min_admissible_n": min_n},
        checks={
            "overlap_zero": _check(
                overlap == 0 if premise_t else True, overlap, 0,
                "exact when t <= G - eps and n > lambda^2/eps^2" if premise_t
                else "t out of theorem range: overlap expected, not asserted"),
            "flip_identity_zero": _at_most(
                flip_violations, 0, "direct binning vs integer-shift labels"),
            "null_false_alarm": _at_most(
                alarm_rate, alarm_limit, "null rejection rate vs exp(-lambda^2/2) + 3 SE"),
        },
        premises={"t_at_most_G_minus_eps": bool(premise_t), "n_above_lambda2_over_eps2": True},
        counts={"overlap_count": overlap, "flip_violations": flip_violations},
    ), spec)


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
        for t in ts:
            if not (0.0 <= t <= 1.0):
                raise SpecValidationError(f"t = {t!r} outside [0, 1]; shrink the offset grid")
        budgets = [math.ceil(t * n) - 1 for t in ts]
        budget_row = np.array(budgets)
        s_min = min_accepted_sum(DetectorConfig(a, lam), n)

        def reduce_block(start, x, u):
            _, s_pre = accel.parity_labels_and_sum(x, a)
            s_post = _evaded_sum(s_pre[:, None], n, budget_row)  # one column per budget
            accept_pre = s_pre >= s_min
            accept_post = s_post >= s_min
            return {"pre_accepts": accept_pre, "success": accept_post,
                    "overlaps": accept_pre[:, None] & accept_post}, None

        (tally,) = _tally(_Job(spec, reduce_block))
        pre_accepts, success, overlaps = tally["pre_accepts"], tally["success"], tally["overlaps"]
        for j, (off, t) in enumerate(zip(t_offsets, ts)):
            rows.append({"kind": "t", "t_offset": off, "t": t, "budget": budgets[j], "big_g": big_g,
                         "null_accept_rate": pre_accepts / trials,
                         "attacker_success": _rate(success[j], trials),
                         "overlap_rate": overlaps[j] / trials})
        return rows

    # cube regime: coupling attack against the zero test, one job per
    # cell, all tallied together so that a sharded sweep forks once
    n, trials = spec.n, spec.trials
    if c_values is None:
        c_values = [1.0 + 0.25 * j for j in range(13)]

    def cell_job(cell: ExperimentSpec) -> _Job:
        a = cell.effective_a
        params = KernelParams(a, rel_tol=spec.rel_tol)
        s_min = min_accepted_sum(DetectorConfig(a, spec.lam, "zero"), n)

        def reduce_block(start, x, u):
            theta, x_post = couple_perturb(x, params, u)
            _, s_pre = accel.parity_labels_and_sum(x, a)
            _, s_post = accel.parity_labels_and_sum(x_post, a)
            accept_pre = s_pre >= s_min
            accept_post = s_post >= s_min
            return {"pre_accepts": accept_pre, "post_accepts": accept_post,
                    "overlap": accept_pre & accept_post, "zero_free": theta.zero_count == 0,
                    "wins": accept_pre & ~accept_post}, None

        return _Job(cell, reduce_block, uniforms=True)

    cells = [ExperimentSpec(
        regime="cube_scaling", n=n, trials=trials, master_seed=spec.master_seed,
        c=float(c), epsilon=spec.epsilon, lam=spec.lam, rel_tol=spec.rel_tol,
    ) for c in c_values]
    big_gs = [big_g_value(cell.effective_a) for cell in cells]
    tallies = _tally(*(cell_job(cell) for cell in cells))
    for cell, big_g, tally in zip(cells, big_gs, tallies):
        rows.append({"kind": "c", "c": cell.c, "a": cell.effective_a, "big_g": big_g,
                     "exact_no_stay": (1.0 - big_g) ** n,
                     "no_stay_rate": _rate(tally["zero_free"], trials),
                     "null_accept_rate": tally["pre_accepts"] / trials,
                     "attacker_success": _rate(tally["post_accepts"], trials),
                     "overlap_rate": tally["overlap"] / trials,
                     "detector_win_rate": tally["wins"] / trials})
    return rows
