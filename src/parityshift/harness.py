"""Seeded Monte Carlo experiments reproducing both theorem directions.

Every experiment, the phase-transition sweep included, consumes an
ExperimentSpec and returns an ExperimentSummary holding empirical rates
(with Wilson 95% intervals), the analytic bounds evaluated at the spec,
machine-checked premises, and named pass/fail checks; a sweep's summary
holds its grid cells in ``rows`` instead of rates and bounds.  Trials
use counter-based Philox substreams keyed by (master_seed, trial_index),
and the whole summary is bit-reproducible for a given seed.

Every run goes through one trial-block engine: ``_blocks`` draws
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
Before the first block, glibc's heap trim and mmap thresholds are set
once per process (``_keep_freed_heap``), so memory a block frees is
reused by the next block instead of being handed back to the kernel and
faulted in again.

Every attack leaves only +1-labelled coordinates unmoved and moves each
other one bin (+-a), flipping its label: coupling stays lie in the
central bin, the optimal evader keeps +1 labels, and Theorem 1's full
cube keeps none.  So a trial comes down to its clean label sum s_pre
and its kept (unmoved) count: the attacked sum is 2 * kept - s_pre, and
Theorem 2's family (sr < t) and the Hoeffding tail (sr >= G + eps) are
complementary events on kept.  Each run is an attack on a block that
returns kept, and ``_count_block`` derives every counter and trial
record from (s_pre, kept), binning x once per block and only for a test
or records.  The evader's attack (``_evasion_job``) serves
thm2-detectable, thm1-detectable (budget 0) and the t-sweep; the
coupling die's (``_coupling_job``) serves coupling validation, which
pools x', thm2-undetectable and the c-sweep.  thm1-undetectable's die
runs on central-bin coordinates only, so its records carry no
theta_rle.  Direct binning of the attacked sample appears only in the
flip_violations counters of thm1-detectable and the two thm2 runs, which
check the identity on every trial with zero tolerance.
"""

from __future__ import annotations

import bisect
import contextlib
import ctypes
import functools
import itertools
import math
import mmap
import sys
import warnings
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, field, replace
from typing import Any

import numpy as np
# numpy loads numpy.random on first use; importing it here keeps that
# import out of the first run's time
from numpy.random import Generator, Philox

from . import accel
from .attack import PerturbationVector, couple_perturb, optimal_parity_evasion, sparsity_budget
from .detector import ZERO_TEST_MIN_SUM, big_g_value, min_accepted_sum
from .forked import forked_map, worker_count
from .kernels import KernelParams, square_underflows
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
# A positive real field lies at or below it, which rules out inf, NaN and
# integers too large to convert to a double (a JSON config may hold one).
_DOUBLE_MAX = sys.float_info.max
# Coordinates per trial block: max(1, _BLOCK_COORDS // n) trials a block.
_BLOCK_COORDS = 1 << 14
# Blocks per task, the unit _tally runs and hands on, in a worker or in-process.
_TASK_BLOCKS = 8
# Blocks each worker must get before a run is sharded.  Forking two
# workers, their first result and reaping them took 5.5-7.1 ms on a
# 2-core machine (the first forked_map after importing parityshift.cli,
# 5 fresh interpreters), the time of 10-14 parity-only blocks of
# thm2-detectable (about 0.5 ms each).  The value 64 dates from a
# 30-40 ms fork under multiprocessing; below 32 it would also shard
# coupling-a1's 63 blocks.
_MIN_WORKER_BLOCKS = 64
# Run lengths whose [sign, count] text TrialRecord.json_line takes from a
# table.  Coupling runs are at most a few dozen coordinates long; a longer
# one, such as Theorem 1's full cube (one run of n) or the optimal
# evader's tail, is formatted directly.
_PAIR_TEXT_COUNTS = 256
# glibc's mallopt parameters.  At their 128 KiB defaults a block's
# temporaries (up to 128 KiB each) can come from the top of the heap,
# which glibc then hands back to the kernel after each block, and the
# next block faults it in again.  Setting either value stops glibc
# adjusting both, and a fixed 128 KiB mmap threshold would map and unmap
# every block array of 2^14 doubles, so both are set: 64 MiB and 32 MiB,
# the most glibc accepts on 64-bit.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


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
                raise SpecValidationError(f"{name}: must be a real number, got {value!r}")
        if self.regime not in _REGIMES:
            raise SpecValidationError(f"regime: must be one of {_REGIMES}, got {self.regime!r}")
        for name in ("n", "trials"):
            if not (type(value := getattr(self, name)) is int and value >= 1):
                raise SpecValidationError(f"{name}: must be a positive integer, got {value!r}")
            if value > _DOUBLE_MAX:
                raise SpecValidationError(
                    f"{name}: must not exceed the largest double, got {value!r}")
        if type(self.master_seed) is not int:
            raise SpecValidationError(f"master_seed: must be an integer, got {self.master_seed!r}")
        if not (0.0 < self.epsilon <= _DOUBLE_MAX):
            raise SpecValidationError(
                f"epsilon: must be positive and finite, got {self.epsilon!r}")
        # the bounds take eps^2 and lambda^2 (exp(-2 n eps^2), lambda^2 / eps^2)
        if square_underflows(float(self.epsilon)):
            raise SpecValidationError(
                f"epsilon: {self.epsilon!r} is too small, its square underflows")
        if not (0.0 < self.lam <= _DOUBLE_MAX):
            raise SpecValidationError(f"lam: must be positive and finite, got {self.lam!r}")
        if math.isinf(float(self.lam) * float(self.lam)):
            raise SpecValidationError(f"lam: {self.lam!r} is too large, its square overflows")
        if self.alpha is not None and not (0.0 < self.alpha < 1.0):
            raise SpecValidationError(f"alpha: must lie in (0, 1), got {self.alpha!r}")
        if self.t is not None and not (0.0 <= self.t <= 1.0):
            raise SpecValidationError(f"t: must lie in [0, 1], got {self.t!r}")
        if not (0.0 < self.rel_tol <= 1e-6):
            raise SpecValidationError(f"rel_tol: must lie in (0, 1e-6], got {self.rel_tol!r}")
        if self.regime == "fixed_a":
            if self.a is None or not (0.0 < self.a <= _DOUBLE_MAX):
                raise SpecValidationError(
                    f"a: the fixed_a regime requires a positive finite a, got {self.a!r}")
            if self.c is not None:
                raise SpecValidationError("c: the fixed_a regime must not set c")
            big_g = big_g_value(self.a)
            if not (0.0 < big_g - self.epsilon and big_g + self.epsilon < 1.0):
                raise SpecValidationError(
                    f"epsilon: window violated: need 0 < G(a) - eps and G(a) + eps < 1, "
                    f"got G({self.a}) = {big_g!r}, eps = {self.epsilon!r}"
                )
        else:
            if self.c is None or not (0.0 < self.c <= _DOUBLE_MAX):
                raise SpecValidationError(
                    f"c: the cube_scaling regime requires a positive finite c, got {self.c!r}")
            if self.a is not None:
                raise SpecValidationError("a: the cube_scaling regime must not set a")
            if self.n < 3:
                raise SpecValidationError(
                    f"n: the cube_scaling regime requires n >= 3, got {self.n!r}")
            try:
                accel.plan_for(self.effective_a, self.rel_tol)
            except ValueError as exc:
                raise SpecValidationError(f"c: {self.c!r} is too small at n = {self.n}, "
                                          f"a = c / sqrt(ln n) ({exc})") from None

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
    """One Monte Carlo trial, serializable to a JSONL row (``json_line``)."""

    trial_index: int
    statistic_pre: float
    statistic_post: float
    sr: float
    accepted_pre: bool
    accepted_post: bool
    zero_count: int
    theta_rle: list | None = None

    def json_line(self) -> str:
        """The record as one line of JSON text, newline included.

        The text is ``json.dumps(vars(self), sort_keys=True)`` + "\\n":
        keys sorted, ", " and ": " separators, floats by repr.  Each
        [sign, count] pair of theta_rle is looked up in ``_pair_texts``,
        or formatted directly if its count is past the table.
        """
        if self.theta_rle is None:
            rle = "null"
        else:
            texts = _pair_texts()
            rle = "[" + ", ".join([texts[s][c] if c < _PAIR_TEXT_COUNTS else f"[{s}, {c}]"
                                   for s, c in self.theta_rle]) + "]"
        # float.__repr__, as json does, also for a float subclass such as np.float64
        return (f'{{"accepted_post": {"true" if self.accepted_post else "false"}, '
                f'"accepted_pre": {"true" if self.accepted_pre else "false"}, '
                f'"sr": {float.__repr__(self.sr)}, '
                f'"statistic_post": {float.__repr__(self.statistic_post)}, '
                f'"statistic_pre": {float.__repr__(self.statistic_pre)}, "theta_rle": {rle}, '
                f'"trial_index": {self.trial_index!r}, "zero_count": {self.zero_count!r}}}\n')


@functools.cache
def _pair_texts() -> list[list[str]]:
    """The JSON text "[s, c]" of every pair whose count c is below _PAIR_TEXT_COUNTS.

    Indexed [s][c]: the rows are signs 0, +1 and -1, so s = -1 picks the
    last.  Built on the first record, so a run that writes none pays
    nothing.
    """
    return [[f"[{s}, {c}]" for c in range(_PAIR_TEXT_COUNTS)] for s in (0, 1, -1)]


OnTrial = Callable[[TrialRecord], None]


@dataclass
class ExperimentSummary:
    """Aggregated rates, bounds, premises and pass/fail checks, or a sweep's rows.

    ``to_dict`` leaves out the fields that are None.
    """

    operation: str
    spec: dict
    rates: dict[str, dict] | None = None
    bounds: dict[str, float] | None = None
    premises: dict[str, bool] | None = None
    checks: dict[str, dict] = field(default_factory=dict)
    counts: dict[str, int] | None = None
    passed: bool = True
    rows: list[dict] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {name: value for name, value in asdict(self).items() if value is not None}


def trial_rng(
    master_seed: int, trial_index: int, bit_generator: Philox | None = None
) -> Generator:
    """Counter-based substream: a pure function of (master_seed, trial_index).

    Without bit_generator a fresh Philox is built for the key.  Given a
    Philox, its state is reset to that key with counter 0 and an empty
    buffer, which is the state a fresh one starts in and costs a fraction
    of building one; every generator built on that Philox, earlier ones
    included, then draws the new substream.
    """
    key = np.array([master_seed & _MASK64, trial_index & _MASK64], dtype=np.uint64)
    if bit_generator is None:
        return Generator(Philox(key=key))
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return Generator(bit_generator)


@dataclass(frozen=True)
class _Job:
    """One run's trials: attack(start, x, u, z, s_pre) -> (kept, theta, x_post).

    s_min is the least label sum the run's test accepts and budget the
    most kept coordinates its sparsity family allows (None: no test, no
    family).  theta and x_post may be None.
    """

    spec: ExperimentSpec
    attack: Callable[..., tuple[Any, Any, np.ndarray | None]]
    uniforms: bool = False
    s_min: int | None = None
    budget: int | None = None
    on_trial: OnTrial | None = None

    @property
    def rows_per_block(self) -> int:
        return min(self.spec.trials, max(1, _BLOCK_COORDS // self.spec.n))

    @property
    def block_count(self) -> int:
        return -(-self.spec.trials // self.rows_per_block)


def _blocks(
    spec: ExperimentSpec, first: int, stop: int, bit_generator: Philox,
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


@functools.cache
def _keep_freed_heap() -> None:
    """Set glibc's heap trim and mmap thresholds, once per process.

    Forked workers inherit the setting.  Where mallopt is missing
    (macOS) or declines the values (musl), nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def _tally(*jobs: _Job) -> list[dict[str, Any]]:
    """Total each job's integer counters over its trial blocks.

    ``_count_block`` gives each block's per-row counters (bool or integer
    arrays of shape (m,) or (m, cells)), each summed over rows and blocks
    and returned as a Python int, or a list of ints per cell, and, when
    the job has on_trial, its record rows.  Tasks of _TASK_BLOCKS blocks
    run in forked workers when every worker gets at least
    _MIN_WORKER_BLOCKS blocks, else in this process; either way their
    results are consumed in task order, so each job's on_trial sees its
    records in trial order.  The tasks are a range of ids, each decoded
    into its job and blocks where it runs, so no list of them is built
    and a run of any size starts at once.  A buffer that an attack fills
    for the caller must be a shared mapping made before the call, since a
    forked worker writes only its own copy of a private array.
    """
    # One Philox, re-keyed for every trial, and one pair of block arrays
    # serve every task in a process (forked workers write their own
    # copies), so the jobs must share one block shape, as a sweep's cells do.
    if len({(job.rows_per_block, job.spec.n, job.uniforms) for job in jobs}) != 1:
        raise ValueError("the jobs of one tally must share one block shape")
    _keep_freed_heap()
    bit_generator = Philox(0)
    x = np.empty((jobs[0].rows_per_block, jobs[0].spec.n))
    u = np.empty_like(x) if jobs[0].uniforms else None
    workers = min(worker_count(), sum(job.block_count for job in jobs) // _MIN_WORKER_BLOCKS)
    # task ids offsets[j] .. offsets[j + 1] - 1 are job j's, in block order
    offsets = list(itertools.accumulate((-(-job.block_count // _TASK_BLOCKS) for job in jobs),
                                        initial=0))
    tasks = range(offsets[-1])

    def run_task(task):
        # the task's blocks first..stop-1 of job j: j, counters summed over rows, and record rows
        j = bisect.bisect_right(offsets, task) - 1
        first = (task - offsets[j]) * _TASK_BLOCKS
        stop = min(first + _TASK_BLOCKS, jobs[j].block_count)
        counts: dict[str, Any] = {}
        records: list = []
        for start, xb, ub in _blocks(jobs[j].spec, first, stop, bit_generator, x, u):
            counters, rows = _count_block(jobs[j], start, xb, ub)
            for name, per_row in counters.items():
                counts[name] = counts.get(name, 0) + per_row.sum(axis=0)
            records += rows
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


def _count_block(job: _Job, start: int, x: np.ndarray,
                 u: np.ndarray | None) -> tuple[dict[str, np.ndarray], list[tuple]]:
    """A block's per-row counters and, under on_trial, its record rows.

    x is binned once, and only for a test or records.  kept gives
    zero_free, zero_total and, with a budget, in_family (kept <= budget:
    sr < t); with s_pre it gives s_post = 2 * kept - s_pre, acceptance
    before the attack, after it and both (a run without a test accepts
    every sum, each being at least -n) and, with a budget, success.  kept
    is one count per row or one column per t-sweep budget.  An attack
    returns x' only in a run with a test, for flip_violations.  A record
    row is (trial index, s_pre, s_post, kept, accepted_pre, accepted_post,
    theta), theta being a block PerturbationVector whose row ``_tally``
    encodes into theta_rle just before on_trial gets it (so a task's
    run-length lists are never alive together and the cyclic collector
    does not rescan them), or one value all rows share.
    """
    a, budget = job.spec.effective_a, job.budget
    binned = job.s_min is not None or job.on_trial is not None
    z, s_pre = accel.parity_labels_and_sum(x, a) if binned else (None, None)
    kept, theta, x_post = job.attack(start, x, u, z, s_pre)
    counters = {"zero_free": kept == 0, "zero_total": kept}
    if budget is not None:
        counters["in_family"] = kept <= budget
    if not binned:
        return counters, []
    col = (slice(None),) + (None,) * (kept.ndim - 1)
    s_min = -job.spec.n if job.s_min is None else job.s_min
    s_post = 2 * kept - s_pre[col]
    accept_pre, accept_post = s_pre >= s_min, s_post >= s_min
    counters.update(accept_pre=accept_pre, accept_post=accept_post,
                    overlap=accept_pre[col] & accept_post)
    if budget is not None:
        counters["success"] = accept_post & counters["in_family"]
    if x_post is not None:
        counters["flip_violations"] = accel.parity_labels_and_sum(x_post, a)[1] != s_post
    if job.on_trial is None:
        return counters, []
    cols = [v.tolist() for v in (s_pre, s_post, kept, accept_pre, accept_post)]
    rows = theta.row if isinstance(theta, PerturbationVector) else lambda r: theta
    return counters, [(start + r, *row, rows(r)) for r, row in enumerate(zip(*cols))]


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


def _require(spec: ExperimentSpec, regime: str, operation: str, *unread: str) -> None:
    # the regime an operation runs in, and the optional fields it never reads
    if spec.regime != regime:
        raise SpecValidationError(
            f"regime: {operation} requires the {regime} regime, got {spec.regime!r}")
    for name in unread:
        if getattr(spec, name) is not None:
            raise SpecValidationError(f"{name}: {operation} does not take {name}")


def _budget(t: float, n: int, name: str = "t") -> int:
    # sparsity_budget(t, n) of a t that must admit a perturbation; name is the field t came from
    if not (0.0 <= t <= 1.0):
        raise SpecValidationError(f"{name}: t = {t!r} outside [0, 1]")
    budget = sparsity_budget(t, n)
    if budget < 0:
        raise SpecValidationError(f"{name}: t = {t!r} leaves no admissible perturbation")
    return budget


def _note_alpha_target(out: ExperimentSummary, spec: ExperimentSpec) -> ExperimentSummary:
    # alpha is the false-alarm budget; lambda meets it when e^{-lam^2/2} <= alpha
    if spec.alpha is not None:
        out.bounds["alpha"] = spec.alpha
        out.premises["lambda_meets_alpha"] = math.exp(-0.5 * spec.lam * spec.lam) <= spec.alpha
    return out


def _evasion_job(spec: ExperimentSpec, s_min: int, budget,
                 on_trial: OnTrial | None = None) -> _Job:
    """A job of the optimal evader, at one budget or a row of budgets.

    The evader keeps min(budget, #{z = +1}) = min(budget, (n + s_pre) / 2)
    coordinates and moves the rest; a row of budgets (the t-sweep) gives
    kept one column per budget.  At one budget the attack also returns x'
    for the flip check, optimal_parity_evasion's.  At budget 0 (Theorem
    1's full cube) the evader moves every coordinate by +a, so x' is
    x + a and every row shares theta [[1, n]], both built without it.
    """
    a, n, budget = spec.effective_a, spec.n, np.asarray(budget)

    def attack(start, x, u, z, s_pre):
        kept = np.minimum.outer((n + s_pre) // 2, budget)
        if budget.ndim:
            return kept, None, None
        if budget == 0:
            return kept, [[1, n]], x + a
        theta = optimal_parity_evasion(z, a, budget)
        return kept, theta, x + theta.signs * a

    return _Job(spec, attack, s_min=s_min, on_trial=on_trial)


def _coupling_job(spec: ExperimentSpec, s_min: int | None, budget: int | None = None,
                  on_trial: OnTrial | None = None, pool: np.ndarray | None = None) -> _Job:
    """A job of the coupling die, whose stays are the kept coordinates.

    Given a pool (coupling validation), the attack writes each trial's x'
    into its row.  Otherwise it returns x' for the flip check when there
    is a budget (Theorem 2's undetectable run); a c-sweep cell has none.
    """
    params = KernelParams(spec.effective_a, rel_tol=spec.rel_tol)

    def attack(start, x, u, z, s_pre):
        theta, x_post = couple_perturb(x, params, u)
        if pool is not None:
            pool[start : start + len(x)] = x_post
            return theta.zero_count, theta, None
        return theta.zero_count, theta, None if budget is None else x_post

    return _Job(spec, attack, uniforms=True, s_min=s_min, budget=budget, on_trial=on_trial)


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
    _require(spec, "fixed_a", "run_coupling_validation", "t", "alpha")
    a, n, trials = spec.effective_a, spec.n, spec.trials
    big_g = big_g_value(a)
    total = trials * n
    # rows written by forked workers land in this process's pool through
    # an anonymous shared mapping
    pool = np.frombuffer(mmap.mmap(-1, 8 * total), dtype=np.float64).reshape(trials, n)
    # the Hoeffding tail sr >= G + eps is the complement of the family sr < G + eps
    (tally,) = _tally(_coupling_job(spec, None, _budget(big_g + spec.epsilon, n), on_trial, pool))
    zero_total, tail_count = tally["zero_total"], trials - tally["in_family"]
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
    _require(spec, "cube_scaling", "run_thm1_undetectable", "t", "alpha")
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

    def attack(start, x, u, z, s_pre):
        # Only coordinates inside the central bin can stay (the stay
        # probability vanishes elsewhere), so the die runs on that
        # subset alone; same draws, same outcomes.  The fraction of
        # work is P(|X| < a/2), about 0.19 at the preset's a ~ 0.494.
        central = np.flatnonzero(np.abs(x) < 0.5 * a)
        phi_c, gamma_c = accel.phi_gamma(x.ravel()[central], plan)
        uc = u.ravel()[central]
        stays = central[accel.die_outcomes(phi_c, gamma_c, uc) == 0]
        return np.bincount(stays // n, minlength=len(x)), None, None

    (tally,) = _tally(_Job(spec, attack, uniforms=True, on_trial=on_trial))
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
    n^(1 - pi^2/c^2) > lambda^2.  Every sample receives the
    all-coordinates +a attack, which flips every label, so the attacked
    label sum is the exact negation and no sample is accepted both
    before and after the attack.
    """
    _require(spec, "cube_scaling", "run_thm1_detectable", "t")
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

    # the full hypercube attack is the evader with nothing kept
    (tally,) = _tally(_evasion_job(spec, ZERO_TEST_MIN_SUM, 0, on_trial))
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
    _require(spec, "fixed_a", "run_thm2_undetectable")
    a, n, trials, lam = spec.effective_a, spec.n, spec.trials, spec.lam
    big_g = big_g_value(a)
    t = spec.t if spec.t is not None else big_g + spec.epsilon
    budget = _budget(t, n)
    s_min = min_accepted_sum(a, lam, n)
    (tally,) = _tally(_coupling_job(spec, s_min, budget, on_trial))
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
    if math.isinf(threshold):
        raise SpecValidationError(
            f"n: no n exceeds lambda^2/eps^2, which overflows at lambda = {lam!r}, eps = {eps!r}")
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
    _require(spec, "fixed_a", "run_thm2_detectable")
    a, n, trials, lam, eps = spec.effective_a, spec.n, spec.trials, spec.lam, spec.epsilon
    min_n, threshold = _min_admissible_n(lam, eps)
    if n < min_n:
        raise SpecValidationError(
            f"n: n = {n} violates n > lambda^2/eps^2 = {threshold:g}; "
            f"minimal admissible n is {min_n}"
        )
    big_g = big_g_value(a)
    t = spec.t if spec.t is not None else big_g - eps
    premise_t = t <= big_g - eps + 1e-12
    budget = _budget(t, n)
    s_min = min_accepted_sum(a, lam, n)
    (tally,) = _tally(_evasion_job(spec, s_min, budget, on_trial))
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
) -> ExperimentSummary:
    """Attacker-success rates across the sparsity or cube-scaling grid.

    fixed_a: sweeps t = G(a) + offset over the given offsets (default
    -0.15..0.15 step 0.025) against the optimal evasion adversary; all
    cells share trial substreams, so the success count is exactly
    monotone in t, which the success_monotone_in_t check asserts.
    cube_scaling: sweeps c (default 1..4 in 13 steps) with the coupling
    attack against the zero test (A > 0).  The spec must not set t or
    alpha, which no cell reads, and only the spec's regime's grid may be
    given, with at least one value.

    Returns a summary whose ``rows`` hold one dict per cell, in grid order.
    """
    _require(spec, spec.regime, "sweep_phase_transition", "t", "alpha")
    grid, values, other, other_values = (
        ("t_offsets", t_offsets, "c_values", c_values) if spec.regime == "fixed_a"
        else ("c_values", c_values, "t_offsets", t_offsets))
    if other_values is not None:
        raise SpecValidationError(f"{other}: a {spec.regime} sweep takes {grid}, not {other}")
    if values is not None and len(values) == 0:
        raise SpecValidationError(f"{grid}: a sweep needs at least one cell")
    rows: list[dict] = []
    if spec.regime == "fixed_a":
        a, n, trials, lam = spec.effective_a, spec.n, spec.trials, spec.lam
        big_g = big_g_value(a)
        if t_offsets is None:
            t_offsets = [round(-0.15 + 0.025 * j, 6) for j in range(13)]
        # an offset beyond the largest double is as far outside [0, 1] on its own
        ts = [big_g + off if abs(off) <= _DOUBLE_MAX else off for off in t_offsets]
        budgets = [_budget(t, n, "t_offsets") for t in ts]
        s_min = min_accepted_sum(a, lam, n)
        (tally,) = _tally(_evasion_job(spec, s_min, np.array(budgets)))
        success = tally["accept_post"]
        for j, (off, t) in enumerate(zip(t_offsets, ts)):
            rows.append({"kind": "t", "t_offset": off, "t": t, "budget": budgets[j], "big_g": big_g,
                         "null_accept_rate": tally["accept_pre"] / trials,
                         "attacker_success": _rate(success[j], trials),
                         "overlap_rate": tally["overlap"][j] / trials})
        monotone = all(c1 <= c2 for c1, c2 in zip(success, success[1:]))
        return ExperimentSummary("sweep", asdict(spec), rows=rows, passed=monotone, checks={
            "success_monotone_in_t": _check(
                monotone, 0 if monotone else 1, 0,
                "success counts nondecreasing across the t grid (shared substreams)")})

    # cube regime: coupling attack against the zero test, one job per
    # cell, all tallied together so that a sharded sweep forks once
    n, trials = spec.n, spec.trials
    if c_values is None:
        c_values = [1.0 + 0.25 * j for j in range(13)]
    for c in c_values:
        if not (0.0 < c <= _DOUBLE_MAX):
            raise SpecValidationError(f"c_values: c = {c!r} must be positive and finite")

    try:
        cells = [replace(spec, c=float(c)) for c in c_values]
    except SpecValidationError as exc:
        raise SpecValidationError(f"c_values: {exc}") from exc
    big_gs = [big_g_value(cell.effective_a) for cell in cells]
    tallies = _tally(*(_coupling_job(cell, ZERO_TEST_MIN_SUM) for cell in cells))
    for cell, big_g, tally in zip(cells, big_gs, tallies):
        rows.append({"kind": "c", "c": cell.c, "a": cell.effective_a, "big_g": big_g,
                     "exact_no_stay": (1.0 - big_g) ** n,
                     "no_stay_rate": _rate(tally["zero_free"], trials),
                     "null_accept_rate": tally["accept_pre"] / trials,
                     "attacker_success": _rate(tally["accept_post"], trials),
                     "overlap_rate": tally["overlap"] / trials,
                     # the test wins where it accepts x and rejects the attacked x'
                     "detector_win_rate": (tally["accept_pre"] - tally["overlap"]) / trials})
    return ExperimentSummary("sweep", asdict(spec), rows=rows)
