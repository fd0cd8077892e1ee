"""Seeded Monte Carlo experiments reproducing both theorem directions.

Every experiment, the phase-transition sweep included, consumes an
ExperimentSpec and returns the dict ``summary.json`` holds: empirical
rates (with Wilson 95% intervals), the analytic bounds evaluated at the
spec, machine-checked premises and named pass/fail checks; a sweep's
summary holds its grid cells in ``rows`` instead of those.  Trials use
counter-based Philox substreams keyed by (master_seed, trial_index), and
the whole summary is bit-reproducible for a given seed.

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
callback receives each trial's record as one line of JSON text, in
trial order.  A block's lines are formatted together (``_record_lines``)
in the process that ran the block, a worker or this one, so sharding
spreads record building too; no record is held by the run beyond the
few tasks in flight.
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
complementary events on kept.  An attack maps a block to kept and its
perturbation theta, and ``_count_block`` derives every counter and trial
record from (s_pre, kept) and theta, binning x once per block and only
for a test or records.  It alone builds x' = x + theta: into coupling
validation's pool, and for the flip_violations counters of
thm1-detectable and the two thm2 runs, which bin x' directly and check
the identity on every trial with zero tolerance.  The evader's attack
(``_evasion_job``) serves thm2-detectable, thm1-detectable (budget 0)
and the t-sweep; the coupling die's (``_coupling_job``) serves coupling
validation, thm2-undetectable and the c-sweep.  thm1-undetectable rolls
the die (``couple_perturb``) on central-bin coordinates only, so its
records carry no theta_rle.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
import mmap
import sys
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, replace
from typing import Any

import numpy as np
# numpy loads numpy.random on first use; importing it here keeps that
# import out of the first run's time
from numpy.random import Generator, Philox

from . import accel
from .attack import PerturbationVector, couple_perturb, optimal_parity_evasion, sparsity_budget
from .detector import ZERO_TEST_MIN_SUM, big_g_value, min_accepted_sum
from .forked import forked_map, worker_count
from .kernels import POSITIVE_FINITE, ConfigError, KernelParams, check_real, square_underflows
from .stats import binomial_se, ks_distance_standard_normal, sample_moments, wilson_interval

__all__ = [
    "ExperimentSpec",
    "trial_rng",
    "run_coupling_validation",
    "run_thm1_undetectable",
    "run_thm1_detectable",
    "run_thm2_undetectable",
    "run_thm2_detectable",
    "sweep_phase_transition",
]

_REGIMES = ("fixed_a", "cube_scaling")
# The domains of the real fields ExperimentSpec checks itself
# (``check_real``); KernelParams checks a and rel_tol.  c, t and alpha may
# be None: c is then checked as the regime's bin width, and t and alpha
# are unset.
_REAL_DOMAINS = {
    "c": POSITIVE_FINITE,
    "t": ("lie in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "epsilon": POSITIVE_FINITE,
    "lam": POSITIVE_FINITE,
    "alpha": ("lie in (0, 1)", lambda v: 0.0 < v < 1.0),
}
_UNSET_REALS = ("c", "t", "alpha")
_MASK64 = (1 << 64) - 1
_DOUBLE_MAX = sys.float_info.max
# Coordinates per trial block: max(1, _BLOCK_COORDS // n) trials a block.
_BLOCK_COORDS = 1 << 14
# Blocks per task, the unit _tally runs and hands on, in a worker or in-process.
_TASK_BLOCKS = 8
# Blocks each worker must get before a run is sharded, so two workers
# need 32.  Forking two workers, their first result and reaping them
# took 5.5-7.1 ms on a 2-core machine (the first forked_map after
# importing parityshift.cli, 5 fresh interpreters), the time of 10-14
# parity-only blocks of thm2-detectable (about 0.5 ms each).  There, in
# 5 fresh interpreters a side on a loaded machine, thm2-detectable took
# 32-40 ms sharded against 22-38 ms in-process at 32 blocks, and broke
# even at 64; coupling-a1's 63 blocks, which now shard, took a median
# 140 ms against 158 ms, and with records, whose lines its workers
# build, 37% less time.
_MIN_WORKER_BLOCKS = 16
# Run lengths whose [sign, count] text _record_lines takes from a
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
            raise ConfigError(f"regime: must be one of {_REGIMES}, got {self.regime!r}")
        # bool is a subclass of int, but True is not a count or a seed; n is
        # an array length, so n float64 values must stay within numpy's
        # largest array size (a block holds at most max(n, _BLOCK_COORDS))
        for name, most in (("n", (2**63 - 1) // 8), ("trials", _DOUBLE_MAX)):
            if not (type(value := getattr(self, name)) is int and value >= 1):
                raise ConfigError(f"{name}: must be a positive integer, got {value!r}")
            if value > most:
                raise ConfigError(f"{name}: must be at most {most:.6g}, got {value!r}")
        if type(self.master_seed) is not int:
            raise ConfigError(f"master_seed: must be an integer, got {self.master_seed!r}")
        for name, domain in _REAL_DOMAINS.items():
            if (value := getattr(self, name)) is not None or name not in _UNSET_REALS:
                check_real(name, value, domain)
        # the bounds take eps^2 and lambda^2 (exp(-2 n eps^2), lambda^2 / eps^2)
        if square_underflows(float(self.epsilon)):
            raise ConfigError(f"epsilon: {self.epsilon!r} is too small, its square underflows")
        if math.isinf(float(self.lam) * float(self.lam)):
            raise ConfigError(f"lam: {self.lam!r} is too large, its square overflows")
        width, other = ("a", "c") if self.regime == "fixed_a" else ("c", "a")
        if getattr(self, other) is not None:
            raise ConfigError(f"{other}: the {self.regime} regime must not set {other}")
        if getattr(self, width) is None:
            raise ConfigError(f"{width}: the {self.regime} regime requires {width}")
        if self.regime == "cube_scaling" and self.n < 3:
            raise ConfigError(f"n: the cube_scaling regime requires n >= 3, got {self.n!r}")
        try:
            # KernelParams checks a and rel_tol before plan_for's cache hashes
            # them; a fixed a's type is checked before effective_a converts it
            KernelParams(self.a if self.regime == "fixed_a" else self.effective_a, self.rel_tol)
            accel.plan_for(self.effective_a, self.rel_tol)
        except ConfigError as exc:
            if self.regime == "cube_scaling" and str(exc).startswith("a:"):
                raise ConfigError(f"c: {self.c!r} is too small at n = {self.n}, "
                                  f"a = c / sqrt(ln n) ({exc})") from None
            raise
        if self.regime == "fixed_a":
            big_g = big_g_value(self.effective_a)
            if not (0.0 < big_g - self.epsilon and big_g + self.epsilon < 1.0):
                raise ConfigError(
                    f"epsilon: window violated: need 0 < G(a) - eps and G(a) + eps < 1, "
                    f"got G({self.a}) = {big_g!r}, eps = {self.epsilon!r}"
                )

    @property
    def effective_a(self) -> float:
        if self.regime == "fixed_a":
            return float(self.a)
        return float(self.c) / math.sqrt(math.log(self.n))


@functools.cache
def _pair_texts() -> np.ndarray:
    """The JSON text "[s, c]" of every pair whose count c is below _PAIR_TEXT_COUNTS.

    A flat object array indexed s * _PAIR_TEXT_COUNTS + c: its thirds
    are signs 0, +1 and -1, so s = -1 gives a negative index, which wraps
    into the last.  Built on the first record, so a run that writes none
    pays nothing.
    """
    return np.array([f"[{s}, {c}]" for s in (0, 1, -1) for c in range(_PAIR_TEXT_COUNTS)],
                    dtype=object)


# Receives each trial's record as one line of JSON text (``_record_lines``).
OnTrial = Callable[[str], None]


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
    """One run's trials: attack(x, u, z, s_pre) -> (kept, theta).

    s_min is the least label sum the run's test accepts and budget the
    most kept coordinates its sparsity family allows (None: no test, no
    family).  theta is the block's PerturbationVector, a 1-d one that
    every row shares, or None.  ``_count_block`` writes each trial's
    x + theta into its row of pool, when given, and bins x + theta for
    flip_violations under check_flip.
    """

    spec: ExperimentSpec
    attack: Callable[..., tuple[Any, PerturbationVector | None]]
    uniforms: bool = False
    s_min: int | None = None
    budget: int | None = None
    on_trial: OnTrial | None = None
    pool: np.ndarray | None = None
    check_flip: bool = False


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
            rng = trial_rng(spec.master_seed, start + r, bit_generator)
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
    the job has on_trial, its records' JSON lines.  Tasks of _TASK_BLOCKS
    blocks run in forked workers when every worker gets at least
    _MIN_WORKER_BLOCKS blocks, else in this process; either way their
    results are consumed in task order, and each line is passed to its
    job's on_trial as it arrives, so on_trial sees the lines in trial
    order.  The tasks are a range of ids, each decoded
    into its job and blocks where it runs, so no list of them is built
    and a run of any size starts at once.  A job's pool, which
    ``_count_block`` fills for the caller, must be a shared mapping made
    before the call, since a forked worker writes only its own copy of a
    private array.
    """
    # One Philox, re-keyed for every trial, and one pair of block arrays
    # serve every task in a process (forked workers write their own
    # copies), and every job has as many tasks, so the jobs must share n
    # and trials, and so one block shape, as a sweep's cells do.
    if len({(job.spec.n, job.spec.trials, job.uniforms) for job in jobs}) != 1:
        raise ValueError("the jobs of one tally must share one block shape")
    _keep_freed_heap()
    bit_generator = Philox(0)
    n, trials = jobs[0].spec.n, jobs[0].spec.trials
    shape = (min(trials, max(1, _BLOCK_COORDS // n)), n)
    with _n_limits_memory(*shape):
        x = np.empty(shape)
        u = np.empty_like(x) if jobs[0].uniforms else None
    blocks = -(-trials // shape[0])
    workers = min(worker_count(), len(jobs) * blocks // _MIN_WORKER_BLOCKS)
    # task ids j * tasks_per_job .. (j + 1) * tasks_per_job - 1 are job j's, in block order
    tasks_per_job = -(-blocks // _TASK_BLOCKS)
    tasks = range(len(jobs) * tasks_per_job)

    def run_task(task):
        # the task's blocks first..stop-1 of job j: j, counters summed over rows, and record lines
        j, k = divmod(task, tasks_per_job)
        first = k * _TASK_BLOCKS
        stop = min(first + _TASK_BLOCKS, blocks)
        counts: dict[str, Any] = {}
        lines: list[str] = []
        with _n_limits_memory(*shape):
            for start, xb, ub in _blocks(jobs[j].spec, first, stop, bit_generator, x, u):
                counters, block_lines = _count_block(jobs[j], start, xb, ub)
                for name, per_row in counters.items():
                    counts[name] = counts.get(name, 0) + per_row.sum(axis=0)
                lines += block_lines
        return j, counts, lines

    # one worker would add only a fork, and perfbench's tracer sees this process alone
    if workers > 1:
        results = forked_map(run_task, tasks, workers)
    else:
        results = (run_task(task) for task in tasks)
    totals: list[dict[str, Any]] = [{} for _ in jobs]
    with contextlib.closing(results):
        for j, counters, lines in results:
            for name, total in counters.items():
                totals[j][name] = totals[j].get(name, 0) + total
            for line in lines:
                jobs[j].on_trial(line)
    return [{name: total.tolist() for name, total in job_totals.items()} for job_totals in totals]


@contextlib.contextmanager
def _n_limits_memory(rows: int, n: int) -> Iterator[None]:
    """Raise a MemoryError in a trial block as a ConfigError naming n.

    Each of a block's arrays holds rows x n <= max(n, _BLOCK_COORDS) values.
    """
    try:
        yield
    except MemoryError as exc:
        raise ConfigError(
            f"n: a trial block of {rows} x {n} values does not fit in memory: {exc}") from None


def _count_block(job: _Job, start: int, x: np.ndarray,
                 u: np.ndarray | None) -> tuple[dict[str, np.ndarray], list[str]]:
    """A block's per-row counters and, under on_trial, its records' JSON lines.

    x is binned once, and only for a test or records.  kept gives
    zero_free, zero_total and, with a budget, in_family (kept <= budget:
    sr < t); with s_pre it gives s_post = 2 * kept - s_pre, acceptance
    before the attack, after it and both (a run without a test accepts
    every sum, each being at least -n) and, with a budget, success.  kept
    is one count per row or one column per t-sweep budget.  x' = x + theta
    is built here alone: into the job's pool, and binned for
    flip_violations under check_flip.  Records are formatted in the
    process that ran the block, so only text leaves a worker.
    """
    a, budget = job.spec.effective_a, job.budget
    binned = job.s_min is not None or job.on_trial is not None
    z, s_pre = accel.parity_labels_and_sum(x, a) if binned else (None, None)
    kept, theta = job.attack(x, u, z, s_pre)
    if job.pool is not None:
        _attacked(x, theta, out=job.pool[start : start + len(x)])
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
    if job.check_flip:
        s_direct = accel.parity_labels_and_sum(_attacked(x, theta), a)[1]
        counters["flip_violations"] = s_direct != s_post
    return counters, [] if job.on_trial is None else _record_lines(
        start, job.spec.n, theta, s_pre, s_post, kept, accept_pre, accept_post)


def _record_lines(start: int, n: int, theta: PerturbationVector | None, s_pre: np.ndarray,
                  s_post: np.ndarray, kept: np.ndarray, accept_pre: np.ndarray,
                  accept_post: np.ndarray) -> list[str]:
    """A block's trial records, each ``json.dumps(record, sort_keys=True) + "\\n"``.

    Row r is trial start + r; its statistics and sr are its sums and kept
    over n.  theta_rle takes each row's [sign, count] texts from the
    block's one ``to_rle`` through ``_pair_texts`` (a count past the table
    is formatted directly); a 1-d theta (the full cube) and None (null)
    give one text that every row shares.
    """
    if theta is None:
        rles = ["null"] * len(kept)
    else:
        rle = theta.to_rle()
        signs, counts = rle[:, 0], rle[:, 1]
        texts = _pair_texts().take(signs * _PAIR_TEXT_COUNTS + counts, mode="wrap").tolist()
        # a pair past the table took another pair's text, which is replaced
        for i in (counts >= _PAIR_TEXT_COUNTS).nonzero()[0].tolist():
            texts[i] = f"[{signs[i]}, {counts[i]}]"
        # no run crosses a row's end, so a row's runs end where the counts reach a multiple of n
        ends = ((np.cumsum(counts) % n == 0).nonzero()[0] + 1).tolist()
        rles = ["[" + ", ".join(texts[lo:hi]) + "]" for lo, hi in zip([0, *ends], ends)]
        if theta.signs.ndim == 1:
            rles *= len(kept)
    columns = (v.tolist() for v in (s_pre, s_post, kept, accept_pre, accept_post))
    rows = zip(itertools.count(start), *columns, rles)
    return [f'{{"accepted_post": {"true" if ao else "false"}, '
            f'"accepted_pre": {"true" if ap else "false"}, "sr": {zc / n!r}, '
            f'"statistic_post": {so / n!r}, "statistic_pre": {sp / n!r}, '
            f'"theta_rle": {rle}, "trial_index": {i}, "zero_count": {zc}}}\n'
            for i, sp, so, zc, ap, ao, rle in rows]


def _attacked(x: np.ndarray, theta: PerturbationVector,
              out: np.ndarray | None = None) -> np.ndarray:
    """x' = x + theta.signs * a, written into out if given; a 1-d theta shifts every row."""
    return np.add(x, theta.signs * theta.a, out=out)


def _check(passed, observed, limit, note: str) -> dict:
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
             premises: dict[str, bool] | None = None) -> dict[str, Any]:
    """A run's summary: Wilson intervals for its (count, total) rates; passed if all checks are."""
    premises = dict(premises or {})
    # alpha is the false-alarm budget; lambda meets it when e^{-lam^2/2} <= alpha
    if spec.alpha is not None:
        bounds = {**bounds, "alpha": spec.alpha}
        premises["lambda_meets_alpha"] = math.exp(-0.5 * spec.lam * spec.lam) <= spec.alpha
    return {
        "operation": operation, "spec": asdict(spec),
        "rates": {name: _rate(count, total) for name, (count, total) in rates.items()},
        "bounds": bounds, "premises": premises, "checks": checks,
        "passed": all(c["passed"] for c in checks.values()),
    }


def _require(spec: ExperimentSpec, regime: str, operation: str, *unread: str) -> None:
    # the regime an operation runs in, and the optional fields it never reads
    if spec.regime != regime:
        raise ConfigError(f"regime: {operation} requires the {regime} regime, got {spec.regime!r}")
    for name in unread:
        if getattr(spec, name) is not None:
            raise ConfigError(f"{name}: {operation} does not take {name}")


def _budget(t: float, n: int, name: str = "t") -> int:
    # sparsity_budget(t, n) of a t that must admit a perturbation; name is the field t came from
    try:
        budget = sparsity_budget(t, n)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None
    if budget < 0:
        raise ConfigError(f"{name}: t = {t!r} leaves no admissible perturbation")
    return budget


def _evasion_job(spec: ExperimentSpec, s_min: int, budget,
                 on_trial: OnTrial | None = None) -> _Job:
    """A job of the optimal evader, at one budget or a row of budgets.

    The evader keeps min(budget, #{z = +1}) = min(budget, (n + s_pre) / 2)
    coordinates and moves the rest; a row of budgets (the t-sweep) gives
    kept one column per budget.  At one budget the attack also returns
    the perturbation, optimal_parity_evasion's, and the run checks the
    flip identity.  At budget 0 (Theorem 1's full cube) the evader moves
    every coordinate by +a, so every row shares one 1-d perturbation.
    """
    a, n, budget = spec.effective_a, spec.n, np.asarray(budget)

    def attack(x, u, z, s_pre):
        kept = np.minimum.outer((n + s_pre) // 2, budget)
        if budget.ndim:
            return kept, None
        # built per block, inside the block's memory guard, and only at budget 0
        return kept, (PerturbationVector(np.ones(n, dtype=np.int8), a) if budget == 0
                      else optimal_parity_evasion(z, a, budget))

    return _Job(spec, attack, s_min=s_min, on_trial=on_trial, check_flip=not budget.ndim)


def _coupling_job(spec: ExperimentSpec, s_min: int | None, budget: int | None = None,
                  on_trial: OnTrial | None = None, pool: np.ndarray | None = None,
                  check_flip: bool = False) -> _Job:
    """A job of the coupling die, whose stays are the kept coordinates."""
    params = KernelParams(spec.effective_a, rel_tol=spec.rel_tol)

    def attack(x, u, z, s_pre):
        theta = couple_perturb(x, params, u)
        return theta.zero_count, theta

    return _Job(spec, attack, uniforms=True, s_min=s_min, budget=budget, on_trial=on_trial,
                pool=pool, check_flip=check_flip)


# ---------------------------------------------------------------------------
# coupling validation


def run_coupling_validation(
    spec: ExperimentSpec, on_trial: OnTrial | None = None
) -> dict[str, Any]:
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
    try:
        pool = np.frombuffer(mmap.mmap(-1, 8 * total), dtype=np.float64).reshape(trials, n)
    except (OSError, OverflowError):
        raise ConfigError(
            f"trials: the pool of x' holds trials x n = {total} values, "
            f"{8.0 * trials * n / 2**30:.3g} GiB, more than this process can map") from None
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
    )


# ---------------------------------------------------------------------------
# Theorem 1, undetectable direction (c below pi/sqrt 2)


def run_thm1_undetectable(
    spec: ExperimentSpec, on_trial: OnTrial | None = None
) -> dict[str, Any]:
    """Cube regime, small c: the coupling leaves no coordinate unmoved.

    Computes the exact no-stay probability (1 - G(a))^n, the analytic
    chain bound (1 - (4/pi) n^(-pi^2/(2 c^2)))^n, and a Monte Carlo
    estimate whose Wilson interval must contain the exact value.
    """
    _require(spec, "cube_scaling", "run_thm1_undetectable", "t", "alpha")
    c, n, trials = float(spec.c), spec.n, spec.trials
    a = spec.effective_a
    big_g = big_g_value(a)
    exact = (1.0 - big_g) ** n
    chain_base = 1.0 - (4.0 / math.pi) * n ** (-math.pi**2 / (2.0 * c * c))
    chain_bound = chain_base**n if chain_base > 0.0 else 0.0

    params = KernelParams(a, rel_tol=spec.rel_tol)

    def attack(x, u, z, s_pre):
        # Only coordinates inside the central bin can stay (the stay
        # probability vanishes elsewhere), so the die runs on that
        # subset alone; same draws, same outcomes.  The fraction of
        # work is P(|X| < a/2), about 0.19 at the preset's a ~ 0.494.
        stays = np.flatnonzero(np.abs(x) < 0.5 * a)
        if stays.size:  # couple_perturb refuses an empty sample
            stays = stays[couple_perturb(x.ravel()[stays], params, u.ravel()[stays]).signs == 0]
        return np.bincount(stays // n, minlength=len(x)), None

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
        premises={"c_below_pi_over_sqrt2": c < math.pi / math.sqrt(2.0)},
    )


# ---------------------------------------------------------------------------
# Theorem 1, detectable direction (c above pi)


def run_thm1_detectable(
    spec: ExperimentSpec, on_trial: OnTrial | None = None
) -> dict[str, Any]:
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

    # the full hypercube attack is the evader with nothing kept
    (tally,) = _tally(_evasion_job(spec, ZERO_TEST_MIN_SUM, 0, on_trial))
    accept_pre_count, overlap = tally["accept_pre"], tally["overlap"]
    flip_violations = tally["flip_violations"]

    alarm_bound = math.exp(-0.5 * lam * lam)
    floor = 1.0 - alarm_bound - 3.0 * binomial_se(alarm_bound, trials)
    return _summary(
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
    )


# ---------------------------------------------------------------------------
# Theorem 2, undetectable direction (t = G + eps)


def run_thm2_undetectable(
    spec: ExperimentSpec, on_trial: OnTrial | None = None
) -> dict[str, Any]:
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
    (tally,) = _tally(_coupling_job(spec, s_min, budget, on_trial, check_flip=True))
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

    return _summary(
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
    )


# ---------------------------------------------------------------------------
# Theorem 2, detectable direction (t = G - eps)


def _min_admissible_n(lam: float, eps: float) -> tuple[int, float]:
    # n must exceed lambda^2/eps^2.  CLI inputs are decimal, so a
    # threshold within 1e-9 of an integer is treated as that integer
    # (float(9/0.0025) lands just below 3600 otherwise).
    threshold = (lam * lam) / (eps * eps)
    if math.isinf(threshold):
        raise ConfigError(
            f"n: no n exceeds lambda^2/eps^2, which overflows at lambda = {lam!r}, eps = {eps!r}")
    snapped = round(threshold)
    if abs(threshold - snapped) <= 1e-9 * max(1.0, abs(snapped)):
        threshold = float(snapped)
    return int(math.floor(threshold)) + 1, threshold


def run_thm2_detectable(
    spec: ExperimentSpec, on_trial: OnTrial | None = None
) -> dict[str, Any]:
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
        raise ConfigError(
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

    return _summary(
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
    )


# ---------------------------------------------------------------------------
# phase-transition sweep


def sweep_phase_transition(
    spec: ExperimentSpec,
    t_offsets: list[float] | None = None,
    c_values: list[float] | None = None,
) -> dict[str, Any]:
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
        raise ConfigError(f"{other}: a {spec.regime} sweep takes {grid}, not {other}")
    if values is not None and len(values) == 0:
        raise ConfigError(f"{grid}: a sweep needs at least one cell")
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
        return {"operation": "sweep", "spec": asdict(spec), "rows": rows, "passed": monotone,
                "checks": {"success_monotone_in_t": _check(
                    monotone, 0 if monotone else 1, 0,
                    "success counts nondecreasing across the t grid (shared substreams)")}}

    # cube regime: coupling attack against the zero test, one job per
    # cell, all tallied together so that a sharded sweep forks once
    n, trials = spec.n, spec.trials
    if c_values is None:
        c_values = [1.0 + 0.25 * j for j in range(13)]
    try:
        cells = [replace(spec, c=c) for c in c_values]
    except ConfigError as exc:
        raise ConfigError(f"c_values: {exc}") from None
    big_gs = [big_g_value(cell.effective_a) for cell in cells]
    tallies = _tally(*(_coupling_job(cell, ZERO_TEST_MIN_SUM) for cell in cells))
    for cell, big_g, tally in zip(cells, big_gs, tallies):
        rows.append({"kind": "c", "c": float(cell.c), "a": cell.effective_a, "big_g": big_g,
                     "exact_no_stay": (1.0 - big_g) ** n,
                     "no_stay_rate": _rate(tally["zero_free"], trials),
                     "null_accept_rate": tally["accept_pre"] / trials,
                     "attacker_success": _rate(tally["accept_post"], trials),
                     "overlap_rate": tally["overlap"] / trials,
                     # the test wins where it accepts x and rejects the attacked x'
                     "detector_win_rate": (tally["accept_pre"] - tally["overlap"]) / trials})
    return {"operation": "sweep", "spec": asdict(spec), "rows": rows, "checks": {}, "passed": True}
