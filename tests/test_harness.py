"""Harness: spec validation, determinism, all five operations, sweep, sharding."""

import dataclasses
import errno
import json
import math
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import big_g_oracle, decide
from parityshift import accel, cli, forked, harness
from parityshift.attack import (PerturbationVector, couple_perturb, optimal_parity_evasion,
                                sparsity_budget)
from parityshift.detector import big_g_value, min_accepted_sum
from parityshift.harness import (
    ExperimentSpec,
    run_coupling_validation,
    run_thm1_detectable,
    run_thm1_undetectable,
    run_thm2_detectable,
    run_thm2_undetectable,
    sweep_phase_transition,
    trial_rng,
)
from parityshift.kernels import ConfigError, KernelParams, KernelRangeError
from parityshift.stats import ks_distance_standard_normal, sample_moments

SEED = 91625
SRC = Path(__file__).resolve().parents[1] / "src"


class TestExperimentSpec:
    def test_fixed_a_ok(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=100, trials=10, master_seed=1)
        assert spec.effective_a == 2.0

    def test_cube_derives_a(self):
        spec = ExperimentSpec(regime="cube_scaling", c=1.5, n=10_000, trials=10, master_seed=1)
        assert spec.effective_a == pytest.approx(0.49425767173669561, abs=1e-15)

    def test_cube_width_bounded_by_phi_terms(self):
        # a = c / sqrt(ln n): 0.0326 plans 256 phi terms, 0.0325 would plan 257
        n = 10_000
        root = math.sqrt(math.log(n))
        ExperimentSpec(regime="cube_scaling", c=0.0326 * root, n=n, trials=1, master_seed=1)
        with pytest.raises(ConfigError, match="^c: .* phi's series would take 257"):
            ExperimentSpec(regime="cube_scaling", c=0.0325 * root, n=n, trials=1, master_seed=1)

    def test_epsilon_window_rejected(self):
        # G(5) ~ 0.975: G + eps >= 1
        with pytest.raises(ConfigError):
            ExperimentSpec(regime="fixed_a", a=5.0, n=100, trials=10, master_seed=1,
                           epsilon=0.05)

    def test_tiny_big_g_rejected(self):
        # G(0.5) ~ 3.4e-9 < eps: window empty on the left
        with pytest.raises(ConfigError):
            ExperimentSpec(regime="fixed_a", a=0.5, n=100, trials=10, master_seed=1)

    @pytest.mark.parametrize("field_name", ["n", "trials", "master_seed", "a", "c", "t",
                                            "epsilon", "lam", "alpha", "rel_tol"])
    def test_bool_rejected(self, field_name):
        # bool is an int subclass; True must not pass as a count, a seed or a real number
        kwargs = dict(regime="fixed_a", a=2.0, n=100, trials=10, master_seed=1)
        kwargs[field_name] = True
        with pytest.raises(ConfigError, match=f"^{field_name}: "):
            ExperimentSpec(**kwargs)

    def test_regime_field_consistency(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(regime="fixed_a", a=1.0, c=2.0, n=10, trials=1, master_seed=0)
        with pytest.raises(ConfigError):
            ExperimentSpec(regime="cube_scaling", c=None, n=10, trials=1, master_seed=0)
        with pytest.raises(ConfigError):
            ExperimentSpec(regime="warp", n=10, trials=1, master_seed=0)


class TestSubstreams:
    def test_pure_function_of_seed_and_index(self):
        a = trial_rng(7, 3).standard_normal(5)
        b = trial_rng(7, 3).standard_normal(5)
        assert (a == b).all()

    def test_trials_independent_of_evaluation_order(self):
        later = trial_rng(7, 9).standard_normal(4)
        _ = trial_rng(7, 2).standard_normal(1000)
        again = trial_rng(7, 9).standard_normal(4)
        assert (later == again).all()

    def test_distinct_indices_distinct_draws(self):
        assert not (trial_rng(7, 0).standard_normal(8) == trial_rng(7, 1).standard_normal(8)).all()

    @pytest.mark.parametrize("seed", [7, -1, 2**64 - 1])
    @pytest.mark.parametrize("index", [0, 5, 2**40])
    def test_rekeyed_philox_matches_fresh(self, seed, index):
        bit_generator = np.random.Philox(0)
        # leave a part-used buffer and a cached 32-bit half behind
        trial_rng(3, 1, bit_generator).integers(0, 2**32, size=3, dtype=np.uint32)
        fresh, rekeyed = trial_rng(seed, index), trial_rng(seed, index, bit_generator)
        assert (fresh.standard_normal(1001) == rekeyed.standard_normal(1001)).all()
        assert (fresh.random(1001) == rekeyed.random(1001)).all()
        halves = dict(size=3, dtype=np.uint32)
        assert (fresh.integers(0, 2**32, **halves) == rekeyed.integers(0, 2**32, **halves)).all()

    def test_fresh_generators_independent_when_interleaved(self):
        one, two = trial_rng(7, 1), trial_rng(7, 2)
        drawn = np.array([(one.standard_normal(), two.standard_normal()) for _ in range(6)])
        assert (drawn[:, 0] == trial_rng(7, 1).standard_normal(6)).all()
        assert (drawn[:, 1] == trial_rng(7, 2).standard_normal(6)).all()


class TestCouplingValidation:
    def test_checks_pass_small(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=2000, trials=300, master_seed=SEED)
        out = run_coupling_validation(spec)
        assert out["passed"], out["checks"]
        assert out["rates"]["zero_fraction"]["total"] == 2000 * 300

    def test_moments_reported(self):
        spec = ExperimentSpec(regime="fixed_a", a=0.7, n=4000, trials=100, master_seed=SEED,
                              epsilon=4e-5)
        out = run_coupling_validation(spec)
        assert out["passed"], out["checks"]
        assert abs(out["bounds"]["pool_mean"]) < 0.01

    def test_wrong_regime(self):
        spec = ExperimentSpec(regime="cube_scaling", c=2.0, n=100, trials=10, master_seed=1)
        with pytest.raises(ConfigError):
            run_coupling_validation(spec)

    def test_trial_records(self):
        spec = ExperimentSpec(regime="fixed_a", a=1.0, n=50, trials=4, master_seed=SEED,
                              epsilon=0.004)
        lines = []
        run_coupling_validation(spec, on_trial=lines.append)
        assert len(lines) == 4
        rec = json.loads(lines[0])
        assert rec["zero_count"] == sum(c for s, c in rec["theta_rle"] if s == 0)

    def test_hoeffding_tail_is_the_family_complement(self):
        # at a = 2, n = 50 the exact tail P(sr >= G + eps) is about 0.19, so
        # the count is mid-range; the run counts it as the trials outside
        # Theorem 2's family sr < G + eps
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=50, trials=400, master_seed=3)
        tail = run_coupling_validation(spec)["rates"]["hoeffding_tail"]["count"]
        limit = big_g_value(2.0) + spec.epsilon
        assert tail == sum(_zero_count_for_trial(spec, i) / spec.n >= limit
                           for i in range(spec.trials))
        assert tail == spec.trials - run_thm2_undetectable(spec)["rates"]["in_family"]["count"]
        assert 0.1 * spec.trials < tail < 0.3 * spec.trials


class TestThm1Undetectable:
    def test_small_run(self):
        spec = ExperimentSpec(regime="cube_scaling", c=1.5, n=10_000, trials=400,
                              master_seed=SEED)
        out = run_thm1_undetectable(spec)
        assert out["passed"], out["checks"]
        assert out["premises"]["c_below_pi_over_sqrt2"]
        assert out["bounds"]["exact_no_stay"] >= out["bounds"]["chain_bound"]

    def test_fast_path_matches_full_coupling(self):
        # the masked die-interval shortcut must reproduce couple_perturb's
        # stay events draw for draw
        spec = ExperimentSpec(regime="cube_scaling", c=1.5, n=2000, trials=30,
                              master_seed=SEED)
        a = spec.effective_a
        params = KernelParams(a)
        plan = accel.plan_for(a, spec.rel_tol)
        for i in range(spec.trials):
            rng = trial_rng(spec.master_seed, i)
            x = rng.standard_normal(spec.n)
            u = rng.random(spec.n)
            mask = np.abs(x) < 0.5 * a
            phi_c, gamma_c = accel.phi_gamma(x[mask], plan)
            uc = u[mask]
            fast = int(np.count_nonzero((uc >= phi_c) & (uc < phi_c + gamma_c)))

            rng2 = trial_rng(spec.master_seed, i)
            x2 = rng2.standard_normal(spec.n)
            assert fast == couple_perturb(x2, params, rng2.random(spec.n)).zero_count

    def test_block_without_central_coordinates(self):
        # at n = 3 and c = 0.1 the central bin |x| < a/2 ~ 0.048 is most
        # often empty, and then the die has nothing to roll
        spec = ExperimentSpec(regime="cube_scaling", c=0.1, n=3, trials=1, master_seed=SEED)
        x = trial_rng(spec.master_seed, 0).standard_normal(spec.n)
        assert (np.abs(x) >= 0.5 * spec.effective_a).all()
        assert run_thm1_undetectable(spec)["rates"]["no_stay_trials"]["count"] == 1

    def test_vanishing_c_limit(self):
        spec = ExperimentSpec(regime="cube_scaling", c=0.1, n=100, trials=40, master_seed=SEED)
        out = run_thm1_undetectable(spec)
        assert out["bounds"]["big_g"] == 0.0
        assert out["bounds"]["exact_no_stay"] == 1.0
        assert out["rates"]["no_stay_trials"]["rate"] == 1.0

    def test_premise_violation_recorded_and_runs(self):
        spec = ExperimentSpec(regime="cube_scaling", c=4.0, n=1000, trials=10, master_seed=SEED)
        out = run_thm1_undetectable(spec)
        assert out["premises"] == {"c_below_pi_over_sqrt2": False}


class TestThm1Detectable:
    def test_premises_and_exactness(self):
        spec = ExperimentSpec(regime="cube_scaling", c=4.0, n=10_000, trials=400,
                              master_seed=SEED)
        out = run_thm1_detectable(spec)
        assert out["passed"], out["checks"]
        assert out["premises"] == {
            "c_above_pi": True, "cube_n1": True, "cube_n2": True,
            "sqrt_n_G_above_lambda": True,
        }
        assert out["rates"]["overlap"]["count"] == 0
        assert out["checks"]["flip_identity_zero"]["observed"] == 0

    def test_frozen_premise_values(self):
        # closed forms at c=4, n=1e4, frozen from the high-precision oracle
        spec = ExperimentSpec(regime="cube_scaling", c=4.0, n=10_000, trials=1,
                              master_seed=SEED)
        out = run_thm1_detectable(spec)
        assert out["bounds"]["big_g"] == pytest.approx(0.074337776774847591, abs=1e-12)
        assert out["bounds"]["cube_n1_rhs"] == pytest.approx(0.058384753352642474, abs=1e-12)
        assert out["bounds"]["cube_n2_lhs"] == pytest.approx(34.087794240488966, abs=1e-10)


class TestThm2Undetectable:
    def test_small_run(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=2000, trials=400, master_seed=SEED)
        out = run_thm2_undetectable(spec)
        assert out["passed"], out["checks"]
        assert out["bounds"]["t"] == pytest.approx(big_g_value(2.0) + 0.05)

    def test_t_equal_one_only_fails_when_nothing_moves(self):
        # sr < 1 excludes exactly the all-zero perturbation
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=10, trials=300, master_seed=SEED,
                              t=1.0)
        out = run_thm2_undetectable(spec)
        all_zero = sum(
            1 for i in range(300)
            if _zero_count_for_trial(spec, i) == spec.n
        )
        assert out["rates"]["in_family"]["count"] == 300 - all_zero

    def test_degenerate_scale_still_reports(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=10, trials=50, master_seed=SEED)
        out = run_thm2_undetectable(spec)
        for entry in out["rates"].values():
            assert 0.0 <= entry["rate"] <= 1.0
            assert entry["lo"] <= entry["rate"] <= entry["hi"]


def _zero_count_for_trial(spec, i):
    rng = trial_rng(spec.master_seed, i)
    x = rng.standard_normal(spec.n)
    return couple_perturb(x, KernelParams(spec.effective_a), rng.random(spec.n)).zero_count


class TestThm2Detectable:
    def test_small_run_zero_overlap(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=5000, trials=400, master_seed=SEED)
        out = run_thm2_detectable(spec)
        assert out["passed"], out["checks"]
        assert out["rates"]["overlap"]["count"] == 0
        assert out["premises"]["t_at_most_G_minus_eps"]

    def test_boundary_n_rejected_with_minimal_n(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=3600, trials=10, master_seed=SEED)
        with pytest.raises(ConfigError, match=r"3600.*3601"):
            run_thm2_detectable(spec)

    def test_minimal_n_accepted(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=3601, trials=20, master_seed=SEED)
        out = run_thm2_detectable(spec)
        assert out["rates"]["overlap"]["count"] == 0

    @pytest.mark.parametrize("run, spec", [
        pytest.param(run_thm1_detectable, dict(regime="cube_scaling", c=4.0, n=1000),
                     id="thm1-detectable"),
        pytest.param(run_thm2_undetectable, dict(regime="fixed_a", a=2.0, n=1000),
                     id="thm2-undetectable"),
        pytest.param(run_thm2_detectable, dict(regime="fixed_a", a=2.0, n=5000),
                     id="thm2-detectable"),
    ])
    def test_alpha_target_premise(self, run, spec):
        # every run that takes alpha notes it and whether lambda meets it
        base = dict(spec, trials=30, master_seed=SEED, lam=3.0)
        loose = run(ExperimentSpec(**base, alpha=0.05))
        strict = run(ExperimentSpec(**base, alpha=0.001))
        # e^{-4.5} ~ 0.0111 sits between the two targets
        assert loose["premises"]["lambda_meets_alpha"] and loose["bounds"]["alpha"] == 0.05
        assert not strict["premises"]["lambda_meets_alpha"] and strict["bounds"]["alpha"] == 0.001

    @pytest.mark.parametrize("n", range(2, 9))
    def test_evaded_sum_matches_constructed_evasion(self, n):
        # the evasion attack's closed-form kept count, at one budget as
        # the run uses it and at a row of budgets as the t-sweep does,
        # gives 2 * kept - s_pre equal to direct binning of x + theta at
        # every budget; the last two rows are all +1 (central bin) and
        # all -1 (the bins next to it)
        a = 2.0
        x = np.vstack([np.random.default_rng(n).standard_normal((6, n)) * 3.0,
                       np.zeros(n), np.full(n, a)])
        z, s_pre = accel.parity_labels_and_sum(x, a)
        assert (z[-2] == 1).all() and (z[-1] == -1).all()
        spec = ExperimentSpec(regime="fixed_a", a=a, n=n, trials=len(x), master_seed=SEED)
        per_budget, _ = harness._evasion_job(spec, 0, np.arange(n)).attack(x, None, z, s_pre)
        for budget in range(n):
            t = (budget + 0.5) / n  # ceil(t n) - 1 = budget
            assert sparsity_budget(t, n) == budget
            theta = optimal_parity_evasion(z, a, budget)
            _, s_direct = accel.parity_labels_and_sum(x + theta.signs * a, a)
            kept, _ = harness._evasion_job(spec, 0, budget).attack(x, None, z, s_pre)
            assert (2 * kept - s_pre).tolist() == s_direct.tolist()
            assert (2 * per_budget[:, budget] - s_pre).tolist() == s_direct.tolist()

    def test_out_of_theorem_budget_overlaps(self):
        t = big_g_value(2.0) + 0.1
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=5000, trials=150, master_seed=SEED,
                              t=t)
        out = run_thm2_detectable(spec)
        assert not out["premises"]["t_at_most_G_minus_eps"]
        # evasion succeeds nearly every accepted trial
        assert out["rates"]["overlap"]["rate"] > 0.9


# one small valid spec per operation; thm2_detectable needs n > lam^2/eps^2
# the keys of every trial record, sorted
RECORD_KEYS = ["accepted_post", "accepted_pre", "sr", "statistic_post", "statistic_pre",
               "theta_rle", "trial_index", "zero_count"]

SMALL_RUNS = [
    (run_coupling_validation, dict(regime="fixed_a", a=2.0, n=200)),
    (run_thm1_undetectable, dict(regime="cube_scaling", c=1.5, n=200)),
    (run_thm1_detectable, dict(regime="cube_scaling", c=4.0, n=200)),
    (run_thm2_undetectable, dict(regime="fixed_a", a=2.0, n=200)),
    (run_thm2_detectable, dict(regime="fixed_a", a=2.0, n=200, epsilon=0.1, lam=1.0)),
]


# every key summary.json holds, sorted: a run's, then a sweep's
_RUN_KEYS = ["bounds", "checks", "operation", "passed", "premises", "rates", "spec"]
_SWEEP_KEYS = ["checks", "operation", "passed", "rows", "spec"]


@pytest.mark.parametrize("run, kwargs, grid, keys", [
    *[(run, kwargs, {}, _RUN_KEYS) for run, kwargs in SMALL_RUNS],
    (sweep_phase_transition, dict(regime="fixed_a", a=2.0, n=200), {"t_offsets": [0.0, 0.1]},
     _SWEEP_KEYS),
    (sweep_phase_transition, dict(regime="cube_scaling", c=1.5, n=200), {"c_values": [1.5, 4.0]},
     _SWEEP_KEYS),
], ids=[run.__name__ for run, _ in SMALL_RUNS] + ["sweep-t", "sweep-c"])
def test_summary_keys(run, kwargs, grid, keys):
    summary = run(ExperimentSpec(**kwargs, trials=7, master_seed=SEED), **grid)
    assert sorted(summary) == keys
    if "c_values" in grid:
        # the cube sweep has no check, so it passes
        assert summary["checks"] == {} and summary["passed"] is True


class TestOnTrial:
    @pytest.mark.parametrize("run, kwargs", SMALL_RUNS, ids=lambda v: getattr(v, "__name__", ""))
    def test_once_per_trial_in_order(self, run, kwargs):
        spec = ExperimentSpec(**kwargs, trials=7, master_seed=SEED)
        lines = []
        streamed = run(spec, on_trial=lines.append)
        recs = [json.loads(line) for line in lines]
        assert [rec["trial_index"] for rec in recs] == list(range(spec.trials))
        # recording never changes what the run reports
        assert streamed == run(spec)
        # every attack keeps only +1 labels unmoved and flips the rest
        for rec in recs:
            s_pre = round(rec["statistic_pre"] * spec.n)
            assert round(rec["statistic_post"] * spec.n) == 2 * rec["zero_count"] - s_pre

    def test_thm1_detectable_attacks_rejected_trials(self):
        # c = 4 at n = 50 misses two premises, so some null samples are rejected
        spec = ExperimentSpec(regime="cube_scaling", c=4.0, n=50, trials=200, master_seed=7)
        lines = []
        out = run_thm1_detectable(spec, on_trial=lines.append)
        recs = [json.loads(line) for line in lines]
        rec = recs[129]
        assert not rec["accepted_pre"] and round(rec["statistic_pre"] * spec.n) == -2
        assert round(rec["statistic_post"] * spec.n) == 2
        assert rec["accepted_post"]
        assert all(r["theta_rle"] == [[1, 50]] for r in recs)
        # every trial is attacked, and the null acceptance counts only the accepted ones
        assert out["passed"]
        assert {name: r["count"] for name, r in out["rates"].items()} == {
            "null_accept": 198, "overlap": 0}
        assert out["checks"]["flip_identity_zero"]["observed"] == 0

    @pytest.mark.parametrize("run, kwargs", SMALL_RUNS, ids=lambda v: getattr(v, "__name__", ""))
    def test_json_line_of_every_run(self, run, kwargs):
        # each line is json's own encoding of the record it holds, and
        # holds every key of a record
        spec = ExperimentSpec(**kwargs, trials=7, master_seed=SEED)
        lines = []
        run(spec, on_trial=lines.append)
        assert lines == [json.dumps(json.loads(line), sort_keys=True) + "\n" for line in lines]
        assert all(list(json.loads(line)) == RECORD_KEYS for line in lines)


def _block(rows, n) -> np.ndarray:
    # int8 signs whose rows are the given run lengths, each row summing to n
    signs = [np.repeat(np.array([s for s, _ in row], dtype=np.int8), [c for _, c in row])
             for row in rows]
    assert all(row.size == n for row in signs)
    return np.array(signs, dtype=np.int8).reshape(len(rows), n)


def _columns(n, m, seed=0):
    # integer columns of m rows as _count_block passes them: label sums
    # before and after the attack, kept counts and both acceptances
    g = np.random.default_rng(seed)
    s_pre = g.integers(-n, n + 1, size=m)
    kept = g.integers(0, n + 1, size=m)
    return s_pre, 2 * kept - s_pre, kept, g.random(m) < 0.5, g.random(m) < 0.5


def _check_record_lines(start, n, theta, s_pre, s_post, kept, accept_pre, accept_post):
    # the block formatter's lines against json's own encoding of each
    # row's record; theta_rle from each row's own 1-d to_rle, the row a
    # 1-d theta shares, or None
    lines = harness._record_lines(start, n, theta, s_pre, s_post, kept, accept_pre, accept_post)
    m = len(kept)
    if theta is None:
        rles = [None] * m
    elif theta.signs.ndim == 1:
        rles = [theta.to_rle().tolist()] * m
    else:
        rles = [PerturbationVector(row, theta.a).to_rle().tolist() for row in theta.signs]
    rows = zip(*(v.tolist() for v in (s_pre, s_post, kept, accept_pre, accept_post)), rles)
    expected = [json.dumps({"accepted_post": ao, "accepted_pre": ap, "sr": zc / n,
                            "statistic_post": so / n, "statistic_pre": sp / n, "theta_rle": rle,
                            "trial_index": start + r, "zero_count": zc}, sort_keys=True) + "\n"
                for r, (sp, so, zc, ap, ao, rle) in enumerate(rows)]
    assert lines == expected
    assert all(list(json.loads(line)) == RECORD_KEYS for line in lines)


# counts up to BOUND - 1 come from the formatter's table, the rest are formatted directly
BOUND = harness._PAIR_TEXT_COUNTS


class TestJsonLine:
    # trials.jsonl lines as harness._record_lines formats a block of them

    @pytest.mark.parametrize("theta_rle", [
        None, [[1, 4 * BOUND]], [[1, 10 * BOUND + 3]], [[0, BOUND - 1]], [[0, BOUND]],
        [[0, BOUND + 1]], [[-1, BOUND - 1], [1, BOUND], [-1, BOUND + 1]],
        [[0, 1], [1, 2], [0, 3], [-1, 1], [1, 40], [-1, 255]],
    ])
    def test_theta_rle(self, theta_rle):
        # None is null; the runs are every row's of a block of 3, then a
        # 1-d theta that every row shares, as the full cube [[1, n]] is
        if theta_rle is None:
            _check_record_lines(3, 50, None, *_columns(50, 3))
            return
        n = sum(c for _, c in theta_rle)
        signs = _block([theta_rle] * 3, n)
        for theta in (PerturbationVector(signs, 1.5), PerturbationVector(signs[0], 1.5)):
            _check_record_lines(3, n, theta, *_columns(n, 3))

    def test_rows_with_different_runs(self):
        # a block's rows hold different runs: each row's text is its own,
        # though the block is encoded once
        n = 2 * BOUND + 1
        rows = [[[1, n]], [[0, BOUND], [1, BOUND + 1]], [[-1, 1], [0, 2 * BOUND]],
                [[1, BOUND - 1], [-1, 1], [1, BOUND + 1]]]
        _check_record_lines(0, n, PerturbationVector(_block(rows, n), 1.0), *_columns(n, 4))

    @pytest.mark.parametrize("fields", [
        {"n": 8, "s_pre": 0, "kept": 0},  # statistics and sr of 0.0
        {"n": 3, "s_pre": 1, "kept": 2},  # thirds: 1/3 and (2 * 2 - 1)/3 = 1.0
        {"n": 3, "s_pre": -1, "kept": 0, "accept_pre": False, "accept_post": True},
        {"n": 3, "s_pre": 3, "kept": 1, "accept_pre": True, "accept_post": True},
        {"n": 3, "s_pre": 3, "kept": 1, "accept_pre": False, "accept_post": False},
        {"start": 10**30 + 7, "n": 7, "s_pre": -7, "kept": 0},  # an index past 64 bits
        {"n": (2**63 - 1) // 8, "s_pre": 1, "kept": 1},  # the largest n: 1/n near 1e-18
    ])
    def test_scalars(self, fields):
        # one row, its integer columns as numpy arrays, as _count_block passes them
        row = {"start": 3, "accept_pre": True, "accept_post": False, **fields}
        s_pre, kept = np.array([row["s_pre"]]), np.array([row["kept"]])
        _check_record_lines(row["start"], row["n"], None, s_pre, 2 * kept - s_pre, kept,
                            np.array([row["accept_pre"]]), np.array([row["accept_post"]]))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from([-1, 0, 1]), st.integers(1, 2 * BOUND)),
                 min_size=1, max_size=12),
        st.integers(1, 5), st.integers(0, 2**64), st.integers(0, 2**32),
    )
    def test_random_sign_rows(self, runs, m, start, seed):
        # runs of random signs and lengths joined into one row, and m
        # rotations of it as the block's rows; equal neighbours merge, so
        # to_rle sees runs up to 4 * BOUND long
        row = _block([runs], sum(c for _, c in runs))[0]
        signs = np.stack([np.roll(row, 7 * r) for r in range(m)])
        _check_record_lines(start, row.size, PerturbationVector(signs, 1.0),
                            *_columns(row.size, m, seed))

    def test_template_names_every_field(self):
        # a key the records gain must enter the formatter's template and RECORD_KEYS
        (line,) = harness._record_lines(0, 4, None, *_columns(4, 1))
        assert list(json.loads(line)) == RECORD_KEYS


def _per_trial_coupling_records(spec):
    # record fields as a one-trial-at-a-time loop makes them: one draw,
    # one couple_perturb, one parity pass per sample; theta_rle as its
    # JSON line holds it
    a, n = spec.effective_a, spec.n
    params = KernelParams(a, rel_tol=spec.rel_tol)
    out = []
    for i in range(spec.trials):
        rng = trial_rng(spec.master_seed, i)
        x = rng.standard_normal(n)
        theta = couple_perturb(x, params, rng.random(n))
        _, s_pre = accel.parity_labels_and_sum(x, a)
        _, s_post = accel.parity_labels_and_sum(x + theta.signs * a, a)
        out.append((i, s_pre / n, s_post / n, theta.zero_count, theta.to_rle().tolist()))
    return out


def _record_fields(recs):
    return [(r["trial_index"], r["statistic_pre"], r["statistic_post"], r["zero_count"],
             r["theta_rle"]) for r in recs]


def _check_thm1_records(spec, lines):
    # thm1-undetectable's records come from its central-bin die and the
    # flip identity; they must equal the full coupling and direct binning
    # of x + theta, trial by trial, and carry no theta_rle
    recs = [json.loads(line) for line in lines]
    expected = [(i, s_pre, s_post, zc, None)
                for i, s_pre, s_post, zc, _ in _per_trial_coupling_records(spec)]
    assert _record_fields(recs) == expected
    for rec in recs:
        assert rec["sr"] == rec["zero_count"] / spec.n


class TestTrialBlocks:
    # (trials, _BLOCK_COORDS) at n = 200: blocks of 3 + 3 + 1 trials; one
    # block holding the only trial; n above the block size, one trial a block
    SHAPES = [(7, 600), (1, 1 << 14), (3, 100)]

    @pytest.mark.parametrize("trials, block_coords", SHAPES)
    @pytest.mark.parametrize("run, kwargs", SMALL_RUNS, ids=lambda v: getattr(v, "__name__", ""))
    def test_same_as_one_trial_blocks(self, monkeypatch, run, kwargs, trials, block_coords):
        spec = ExperimentSpec(**kwargs, trials=trials, master_seed=SEED)
        monkeypatch.setattr(harness, "_BLOCK_COORDS", 1)
        ref_recs = []
        ref = run(spec, on_trial=ref_recs.append)
        monkeypatch.setattr(harness, "_BLOCK_COORDS", block_coords)
        recs = []
        assert run(spec, on_trial=recs.append) == ref
        assert recs == ref_recs
        assert run(spec) == ref

    @pytest.mark.parametrize("run", [run_coupling_validation, run_thm2_undetectable])
    @pytest.mark.parametrize("n, trials", [(200, 7), (200, 1), (harness._BLOCK_COORDS + 50, 2)])
    def test_records_match_per_trial_loop(self, run, n, trials):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=n, trials=trials, master_seed=SEED)
        lines = []
        run(spec, on_trial=lines.append)
        recs = [json.loads(line) for line in lines]
        assert _record_fields(recs) == _per_trial_coupling_records(spec)
        for rec in recs:
            assert rec["sr"] == rec["zero_count"] / n

    @pytest.mark.parametrize("n, trials", [(200, 7), (200, 1), (harness._BLOCK_COORDS + 50, 2)])
    def test_thm1_records_match_per_trial_loop(self, n, trials):
        # c just below pi/sqrt(2): some trials keep a coordinate in place
        spec = ExperimentSpec(regime="cube_scaling", c=2.2, n=n, trials=trials, master_seed=SEED)
        lines = []
        run_thm1_undetectable(spec, on_trial=lines.append)
        _check_thm1_records(spec, lines)
        assert any(json.loads(line)["zero_count"] for line in lines)

    def test_pool_matches_per_trial_concatenation(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=300, trials=9, master_seed=SEED)
        params = KernelParams(2.0)
        pool = []
        for i in range(spec.trials):
            rng = trial_rng(spec.master_seed, i)
            x = rng.standard_normal(spec.n)
            pool.append(x + couple_perturb(x, params, rng.random(spec.n)).signs * 2.0)
        pool = np.concatenate(pool)
        bounds = run_coupling_validation(spec)["bounds"]
        assert bounds["ks_distance"] == ks_distance_standard_normal(pool)
        assert (bounds["pool_mean"], bounds["pool_var"]) == sample_moments(pool)[:2]


# Where each run bins and builds x', at n = 200 and 7 trials, one block:
# its passes of the bin-parity labels over n * trials coordinates and its
# calls of _attacked.  x is binned for a test or records, x' for the pool
# or the flip check, and a c-sweep cell builds no x'.
WORK_PROFILE = {
    "coupling": (run_coupling_validation, dict(regime="fixed_a", a=2.0), {}, 0, 1),
    "coupling-records": (run_coupling_validation, dict(regime="fixed_a", a=2.0),
                         dict(on_trial=lambda line: None), 1, 1),
    "thm1-undetectable": (run_thm1_undetectable, dict(regime="cube_scaling", c=1.5), {}, 0, 0),
    "thm1-undetectable-records": (run_thm1_undetectable, dict(regime="cube_scaling", c=1.5),
                                  dict(on_trial=lambda line: None), 1, 0),
    "thm1-detectable": (run_thm1_detectable, dict(regime="cube_scaling", c=4.0), {}, 2, 1),
    "thm1-detectable-records": (run_thm1_detectable, dict(regime="cube_scaling", c=4.0),
                                dict(on_trial=lambda line: None), 2, 1),
    "thm2-undetectable": (run_thm2_undetectable, dict(regime="fixed_a", a=2.0), {}, 2, 1),
    "thm2-undetectable-records": (run_thm2_undetectable, dict(regime="fixed_a", a=2.0),
                                  dict(on_trial=lambda line: None), 2, 1),
    "thm2-detectable": (run_thm2_detectable,
                        dict(regime="fixed_a", a=2.0, epsilon=0.1, lam=1.0), {}, 2, 1),
    "thm2-detectable-records": (run_thm2_detectable,
                                dict(regime="fixed_a", a=2.0, epsilon=0.1, lam=1.0),
                                dict(on_trial=lambda line: None), 2, 1),
    "sweep-t": (sweep_phase_transition, dict(regime="fixed_a", a=2.0),
                dict(t_offsets=[-0.05, 0.05]), 1, 0),
    "sweep-c": (sweep_phase_transition, dict(regime="cube_scaling", c=1.0),
                dict(c_values=[1.0, 2.0]), 2, 0),
}


@pytest.mark.parametrize("case", WORK_PROFILE)
def test_work_profile(monkeypatch, case):
    run, fields, kwargs, passes, attacked = WORK_PROFILE[case]
    spec = ExperimentSpec(**fields, n=200, trials=7, master_seed=SEED)
    monkeypatch.setattr(harness, "worker_count", lambda: 1)
    binned, calls = [], []
    real_parity, real_attacked = accel.parity_labels_and_sum, harness._attacked

    def parity(x, a):
        binned.append(np.size(x))
        return real_parity(x, a)

    def attacked_spy(*args, **kwargs):
        calls.append(args)
        return real_attacked(*args, **kwargs)

    monkeypatch.setattr(accel, "parity_labels_and_sum", parity)
    monkeypatch.setattr(harness, "_attacked", attacked_spy)
    run(spec, **kwargs)
    assert sum(binned) == passes * spec.n * spec.trials
    assert len(calls) == attacked


class TestLabelPasses:
    # coupling validation bins x for its records alone: one pass of the
    # bin-parity labels over every trial's n coordinates with records, none
    # without, in one process with the default worker count
    @pytest.mark.parametrize("run, kwargs", SMALL_RUNS[:1],
                             ids=[run.__name__ for run, _ in SMALL_RUNS[:1]])
    def test_coordinates_binned(self, monkeypatch, run, kwargs):
        spec = ExperimentSpec(**kwargs, trials=7, master_seed=SEED)
        binned = []
        real = accel.parity_labels_and_sum

        def counted(x, a):
            binned.append(np.size(x))
            return real(x, a)

        monkeypatch.setattr(accel, "parity_labels_and_sum", counted)
        run(spec, on_trial=lambda rec: None)
        assert sum(binned) == spec.trials * spec.n
        binned.clear()
        run(spec)
        assert sum(binned) == 0


class TestDeterminism:
    def test_bit_identical_summaries(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=1000, trials=60, master_seed=SEED)
        first = run_thm2_undetectable(spec)
        second = run_thm2_undetectable(spec)
        assert first == second

    def test_seed_changes_rates(self):
        base = dict(regime="fixed_a", a=2.0, n=500, trials=80)
        one = run_coupling_validation(ExperimentSpec(**base, master_seed=1))["bounds"]["ks_distance"]
        two = run_coupling_validation(ExperimentSpec(**base, master_seed=2))["bounds"]["ks_distance"]
        assert one != two


class TestSweep:
    def test_single_cell_matches_thm2_detectable(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=5000, trials=120, master_seed=SEED)
        full = run_thm2_detectable(spec)
        rows = sweep_phase_transition(spec, t_offsets=[-spec.epsilon])["rows"]
        assert len(rows) == 1
        row = rows[0]
        assert row["t"] == full["bounds"]["t"]
        assert row["attacker_success"]["count"] == full["rates"]["attacked_accept"]["count"]
        assert row["null_accept_rate"] == full["rates"]["null_accept"]["rate"]
        assert row["overlap_rate"] == full["rates"]["overlap"]["rate"]

    def test_success_monotone_in_t(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=2000, trials=250, master_seed=SEED)
        rows = sweep_phase_transition(
            spec, t_offsets=[-0.15, -0.1, -0.05, -0.03, 0.0, 0.05, 0.1, 0.15]
        )["rows"]
        counts = [r["attacker_success"]["count"] for r in rows]
        assert counts == sorted(counts)

    def test_cube_sweep_shape(self):
        spec = ExperimentSpec(regime="cube_scaling", c=1.0, n=500, trials=60, master_seed=SEED)
        rows = sweep_phase_transition(spec, c_values=[1.0, 2.5, 4.0])["rows"]
        assert [r["c"] for r in rows] == [1.0, 2.5, 4.0]
        for row in rows:
            assert 0.0 <= row["detector_win_rate"] <= 1.0
        # large-c cell: the full flip makes accepted-then-accepted impossible
        assert rows[-1]["overlap_rate"] == 0.0 or rows[-1]["big_g"] > 0

    @pytest.mark.parametrize("preset", ["sweep-c", "sweep-t"])
    def test_rows_match_exact_binomial_laws(self, preset):
        # At the golden size, each row's counts against their exact laws
        # (two-sided binomial test, scipy as oracle).  A label is +1 with
        # probability (1 + G)/2, so k, the +1 count of a trial, is
        # Binom(n, (1 + G)/2) and its label sum is s_pre = 2k - n.  A
        # coordinate stays with probability G, so a trial has no stay
        # with probability (1 - G)^n.  The t-sweep's evader keeps
        # min(k, budget) coordinates, so s_post = 2 min(k, budget) - s_pre.
        from scipy.stats import binom, binomtest

        config = dict(cli.PRESETS[preset])
        del config["operation"]
        grid = {key: config.pop(key) for key in ("c_values", "t_offsets") if key in config}
        spec = ExperimentSpec(**{**config, "trials": 200, "master_seed": 42})
        n, trials = spec.n, spec.trials
        k = np.arange(n + 1)
        laws = []  # (count, probability)
        for row in sweep_phase_transition(spec, **grid)["rows"]:
            a = row["c"] / math.sqrt(math.log(n)) if preset == "sweep-c" else spec.a
            big_g = big_g_oracle(a)
            pmf = binom.pmf(k, n, (1.0 + big_g) / 2.0)
            s_pre = 2 * k - n
            s_min = 1 if preset == "sweep-c" else min_accepted_sum(a, spec.lam, n)
            laws.append((round(row["null_accept_rate"] * trials), pmf[s_pre >= s_min].sum()))
            if preset == "sweep-c":
                laws.append((row["no_stay_rate"]["count"], (1.0 - big_g) ** n))
            else:
                s_post = 2 * np.minimum(k, row["budget"]) - s_pre
                laws.append((row["attacker_success"]["count"], pmf[s_post >= s_min].sum()))
        for count, p in laws:
            assert binomtest(count, trials, min(p, 1.0)).pvalue >= 1e-6, (count, p)

    def test_cube_sweep_matches_per_trial_loop(self):
        # each cell's counts against one trial at a time: one draw, one
        # couple_perturb, and the zero test decided on x and on x' by
        # direct binning; n is odd, so that a label sum of 1 exists
        spec = ExperimentSpec(regime="cube_scaling", c=1.0, n=301, trials=60, master_seed=SEED)
        c_values = [1.0, 2.0, 3.0, 4.0]
        rows = sweep_phase_transition(spec, c_values=c_values)["rows"]
        totals = np.zeros(5, dtype=int)
        for c, row in zip(c_values, rows):
            a = dataclasses.replace(spec, c=c).effective_a
            params = KernelParams(a, rel_tol=spec.rel_tol)
            counts = np.zeros(5, dtype=int)  # null accept, success, overlap, no stay, win
            for i in range(spec.trials):
                rng = trial_rng(spec.master_seed, i)
                x = rng.standard_normal(spec.n)
                theta = couple_perturb(x, params, rng.random(spec.n))
                x_post = x + theta.signs * a
                pre, post = (decide(v, a, spec.lam, zero=True).accept_h0 for v in (x, x_post))
                counts += [pre, post, pre and post, theta.zero_count == 0, pre and not post]
            null, success, overlap, no_stay, wins = counts.tolist()
            assert row["null_accept_rate"] == null / spec.trials
            assert row["attacker_success"]["count"] == success
            assert row["overlap_rate"] == overlap / spec.trials
            assert row["no_stay_rate"]["count"] == no_stay
            assert row["detector_win_rate"] == wins / spec.trials
            totals += counts
        # the grid reaches every outcome, and some but not all trials stay
        assert (totals > 0).all() and totals[3] < spec.trials * len(c_values)

    @pytest.mark.parametrize("spec, grid, field", [
        (ExperimentSpec(regime="fixed_a", a=2.0, n=300, trials=5, master_seed=SEED, t=0.3),
         {}, "t"),
        (ExperimentSpec(regime="cube_scaling", c=1.0, n=300, trials=5, master_seed=SEED, t=0.3),
         {}, "t"),
        (ExperimentSpec(regime="fixed_a", a=2.0, n=300, trials=5, master_seed=SEED),
         {"c_values": [1.0]}, "c_values"),
        (ExperimentSpec(regime="cube_scaling", c=1.0, n=300, trials=5, master_seed=SEED),
         {"t_offsets": [0.0]}, "t_offsets"),
        # t = G(2) - G(2) = 0 leaves no perturbation with sparsity ratio < t
        (ExperimentSpec(regime="fixed_a", a=2.0, n=300, trials=5, master_seed=SEED),
         {"t_offsets": [0.0, -big_g_value(2.0)]}, "t_offsets"),
        # an empty grid has no cell to run or to check
        (ExperimentSpec(regime="fixed_a", a=2.0, n=300, trials=5, master_seed=SEED),
         {"t_offsets": []}, "t_offsets"),
        (ExperimentSpec(regime="cube_scaling", c=1.0, n=300, trials=5, master_seed=SEED),
         {"c_values": []}, "c_values"),
        # each grid value is checked, naming its grid, before anything is
        # computed from it: sparsity_budget would not return at t = 1e300,
        # inf overflows ceil(t n), and a bad c would name the spec's c
        *[(ExperimentSpec(regime="fixed_a", a=2.0, n=300, trials=5, master_seed=SEED),
           {"t_offsets": [0.0, off]}, "t_offsets") for off in (1e300, math.inf, math.nan)],
        *[(ExperimentSpec(regime="cube_scaling", c=1.0, n=300, trials=5, master_seed=SEED),
           {"c_values": [1.0, c]}, "c_values") for c in (-1.0, 0.0, math.inf, math.nan)],
        # a JSON integer too large for a double is named too, not an OverflowError
        *[(ExperimentSpec(regime="fixed_a", a=2.0, n=300, trials=5, master_seed=SEED),
           {"t_offsets": [0.0, off]}, "t_offsets") for off in (10**400, -10**400)],
        (ExperimentSpec(regime="cube_scaling", c=1.0, n=300, trials=5, master_seed=SEED),
         {"c_values": [1.0, 10**400]}, "c_values"),
    ])
    def test_bad_input_raises_naming_the_field(self, spec, grid, field):
        with pytest.raises(ConfigError, match=f"^{field}:"):
            sweep_phase_transition(spec, **grid)

    def test_summary_payload(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=300, trials=20, master_seed=SEED)
        summary = sweep_phase_transition(spec, t_offsets=[0.0, 0.1])
        assert summary["operation"] == "sweep" and summary["passed"]
        assert sorted(summary) == ["checks", "operation", "passed", "rows", "spec"]
        assert list(summary["checks"]) == ["success_monotone_in_t"]
        assert "rows" not in run_thm2_detectable(
            dataclasses.replace(spec, n=5000, trials=3))

    def test_deterministic(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=800, trials=50, master_seed=SEED)
        assert sweep_phase_transition(spec, t_offsets=[0.0, 0.1])["rows"] == sweep_phase_transition(
            spec, t_offsets=[0.0, 0.1]
        )["rows"]


@pytest.fixture
def shard(monkeypatch):
    """Make tiny runs shard: one trial a block, tasks of three blocks, no
    size threshold.  Returns a setter for the worker count; each sharded
    _tally call appends its worker count to the setter's ``calls``."""
    monkeypatch.setattr(harness, "_BLOCK_COORDS", 1)
    monkeypatch.setattr(harness, "_TASK_BLOCKS", 3)
    monkeypatch.setattr(harness, "_MIN_WORKER_BLOCKS", 1)
    real = harness.forked_map

    def spy(fn, tasks, workers):
        set_workers.calls.append(workers)
        return real(fn, tasks, workers)

    def set_workers(workers):
        monkeypatch.setattr(harness, "worker_count", lambda: workers)

    set_workers.calls = []
    monkeypatch.setattr(harness, "forked_map", spy)
    return set_workers


def test_tally_jobs_share_trials():
    # a task id is decoded by one job's task count, so jobs that differ in
    # trials alone, and so in block count, are refused
    spec = ExperimentSpec(regime="fixed_a", a=2.0, n=5000, trials=10, master_seed=SEED)
    jobs = [harness._Job(dataclasses.replace(spec, trials=trials), lambda *args: None)
            for trials in (10, 20)]
    # both jobs' blocks hold _BLOCK_COORDS // n trials, so only their block counts differ
    assert harness._BLOCK_COORDS // 5000 < 10
    with pytest.raises(ValueError, match="^the jobs of one tally must share one block shape"):
        harness._tally(*jobs)


def _children() -> list[int]:
    """The pids of this process's children, zombies included, as /proc lists them."""
    return [int(pid) for tasks in Path("/proc/self/task").glob("*/children")
            for pid in tasks.read_text().split()]


def _raise_in_worker(exc_factory):
    # a couple_perturb that fails in a forked worker and works in this process
    parent = os.getpid()

    def perturb(x, params, u):
        if os.getpid() != parent:
            raise exc_factory()
        return couple_perturb(x, params, u)

    return perturb


class TestSharding:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("run, kwargs", SMALL_RUNS, ids=lambda v: getattr(v, "__name__", ""))
    def test_runs_match_one_worker(self, shard, run, kwargs, workers):
        # 20 one-trial blocks in 7 tasks, split 4+3 or 3+2+2 between the workers
        spec = ExperimentSpec(**kwargs, trials=20, master_seed=SEED)
        shard(1)
        ref_recs = []
        ref = run(spec, on_trial=ref_recs.append)
        assert shard.calls == []
        shard(workers)
        recs = []
        assert run(spec, on_trial=recs.append) == ref
        assert recs == ref_recs
        assert run(spec) == ref
        assert shard.calls == [workers, workers]
        assert _children() == []

    @pytest.mark.parametrize("spec, grid", [
        (ExperimentSpec(regime="fixed_a", a=2.0, n=300, trials=20, master_seed=SEED),
         dict(t_offsets=[-0.1, 0.0, 0.1])),
        (ExperimentSpec(regime="cube_scaling", c=1.0, n=300, trials=20, master_seed=SEED),
         dict(c_values=[1.0, 2.5, 4.0])),
    ], ids=["t", "c"])
    def test_sweeps_match_one_worker(self, shard, spec, grid):
        shard(1)
        ref = sweep_phase_transition(spec, **grid)["rows"]
        shard(2)
        assert sweep_phase_transition(spec, **grid)["rows"] == ref
        # all cells of a sweep share one set of workers
        assert shard.calls == [2]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_records_larger_than_a_pipe(self, shard, workers):
        # a task's three record lines of 30,000 coordinates, about
        # 170 KB of text each, are more than a 64 KiB pipe holds, so each
        # worker blocks in send until this process reads its result
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=30_000, trials=20, master_seed=SEED)
        shard(1)
        ref_recs = []
        ref = run_coupling_validation(spec, on_trial=ref_recs.append)
        shard(workers)
        recs = []
        assert run_coupling_validation(spec, on_trial=recs.append) == ref
        assert recs == ref_recs
        assert shard.calls == [workers]
        assert _children() == []

    @pytest.mark.parametrize("blocks, trials, workers", [(31, 124, 0), (32, 125, 2)])
    def test_shard_threshold(self, monkeypatch, blocks, trials, workers):
        # at n = 4096 a block holds 4 trials, so 124 trials are 31 blocks
        # and 125 are 32, the fewest that two workers of at least 16
        # blocks each can share
        if workers > forked.worker_count():
            pytest.skip(f"needs {workers} cores")
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=4096, trials=trials, master_seed=SEED)
        assert -(-trials // (harness._BLOCK_COORDS // spec.n)) == blocks
        with monkeypatch.context() as one_core:
            one_core.setattr(harness, "worker_count", lambda: 1)
            ref_lines = []
            ref = run_coupling_validation(spec, on_trial=ref_lines.append)
        reaped = len(forked.worker_usage)
        lines = []
        assert run_coupling_validation(spec, on_trial=lines.append) == ref
        assert lines == ref_lines
        assert len(forked.worker_usage) - reaped == workers
        assert _children() == []

    def test_thm1_records_match_per_trial_loop(self, shard):
        spec = ExperimentSpec(regime="cube_scaling", c=2.2, n=200, trials=7, master_seed=SEED)
        shard(2)
        recs = []
        run_thm1_undetectable(spec, on_trial=recs.append)
        assert shard.calls == [2]
        _check_thm1_records(spec, recs)

    def test_worker_exception_reaches_caller(self, shard, monkeypatch):
        shard(2)
        monkeypatch.setattr(harness, "couple_perturb", _raise_in_worker(
            lambda: KernelRangeError("gamma left its certified range")))
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=100, trials=20, master_seed=SEED)
        with pytest.raises(KernelRangeError, match="gamma left its certified range") as info:
            run_coupling_validation(spec)
        assert "raised in worker process" in str(info.value.__cause__)
        assert shard.calls == [2]
        assert _children() == []

    def test_unpicklable_exception_keeps_type_name_and_message(self, shard, monkeypatch):
        class LocalError(Exception):  # a local class cannot be pickled
            pass

        shard(2)
        monkeypatch.setattr(harness, "couple_perturb",
                            _raise_in_worker(lambda: LocalError("series diverged")))
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=100, trials=20, master_seed=SEED)
        with pytest.raises(RuntimeError, match="LocalError: series diverged"):
            run_coupling_validation(spec)
        assert _children() == []

    def test_dead_worker_raises(self, shard, monkeypatch):
        shard(2)
        monkeypatch.setattr(harness, "couple_perturb", _raise_in_worker(lambda: os._exit(3)))
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=100, trials=20, master_seed=SEED)
        with pytest.raises(RuntimeError, match="exited with code 3"):
            run_coupling_validation(spec)
        assert _children() == []

    def test_record_consumer_exception_stops_workers(self, shard):
        shard(2)
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=100, trials=20, master_seed=SEED)

        def fail_at_trial_5(line):
            if json.loads(line)["trial_index"] == 5:
                raise ValueError("disk full")

        with pytest.raises(ValueError, match="disk full"):
            run_thm2_undetectable(spec, on_trial=fail_at_trial_5)
        assert _children() == []


# A sharded run whose consumer takes a second a record, so the workers
# fill their pipes (about 500 KB of record lines a task) and block in
# send.  It prints the worker pids once the first record arrives.
_PARENT_DEATH_SCRIPT = """
import json, time
from pathlib import Path
from parityshift import harness
from parityshift.harness import ExperimentSpec, run_thm2_undetectable

harness.worker_count = lambda: 2
harness._BLOCK_COORDS = 1
harness._TASK_BLOCKS = 3
harness._MIN_WORKER_BLOCKS = 1

def on_trial(line):
    if json.loads(line)["trial_index"] == 0:
        print(*(pid for tasks in Path("/proc/self/task").glob("*/children")
                for pid in tasks.read_text().split()), flush=True)
    time.sleep(1)

spec = ExperimentSpec(regime="fixed_a", a=2.0, n=30000, trials=40, master_seed=1)
run_thm2_undetectable(spec, on_trial=on_trial)
"""


def _process_state(pid: int) -> str | None:
    """The state letter /proc gives a process (R, S, Z, ...), or None once it is reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


def _wait_for_states(pids: list[int], states: tuple, seconds: float) -> list:
    deadline = time.monotonic() + seconds
    while (current := [_process_state(pid) for pid in pids]) and time.monotonic() < deadline:
        if all(state in states for state in current):
            break
        time.sleep(0.01)
    return current


def test_workers_take_sigterm_default_action():
    # forked_map stops its workers with SIGTERM; a handler the parent has
    # installed (the CLI's, while it writes trials.jsonl) must not run in them
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
    try:
        handlers = list(forked.forked_map(lambda _: signal.getsignal(signal.SIGTERM), range(2), 2))
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert handlers == [signal.SIG_DFL, signal.SIG_DFL]


@pytest.mark.parametrize("workers", [2, 3])
def test_worker_w_runs_on_the_w_th_allowed_cpu(workers):
    # a forked child starts on its parent's CPU and, where the scheduler
    # does not balance load, stays there, so forked_map pins each worker;
    # three workers on two CPUs wrap round to the first
    cpus = sorted(os.sched_getaffinity(0))
    placed = list(forked.forked_map(lambda _: sorted(os.sched_getaffinity(0)), range(workers), workers))
    assert placed == [[cpus[w % len(cpus)]] for w in range(workers)]
    assert sorted(os.sched_getaffinity(0)) == cpus


def test_failed_pin_leaves_worker_unpinned(monkeypatch):
    # the CPU a worker was given may leave the allowed set before the
    # worker pins itself; the worker then runs where the fork put it
    def gone(pid, cpus):
        raise OSError(errno.EINVAL, "gone")

    cpus = sorted(os.sched_getaffinity(0))
    monkeypatch.setattr(os, "sched_setaffinity", gone)
    results = list(forked.forked_map(lambda t: (t, sorted(os.sched_getaffinity(0))), range(4), 2))
    assert results == [(t, cpus) for t in range(4)]
    assert _children() == []


class _ExitWhenPickled:
    """A result whose pickling kills the worker with exit code 5."""

    def __reduce__(self):
        os._exit(5)


def test_worker_dying_mid_result_raises():
    # the worker dies while pickling its result; a reply is pickled whole
    # before any of it is written, so this process finds the pipe closed
    with pytest.raises(RuntimeError, match="exited with code 5"):
        list(forked.forked_map(lambda _: [bytes(200_000), _ExitWhenPickled()], range(4), 2))
    assert _children() == []


def test_worker_dying_mid_write_raises():
    # worker 0's reply to task 2 is 200 kB, more than a pipe holds, and
    # this process reads none of it until both workers have exited, so
    # worker 0 dies blocked in its write and leaves part of a reply
    def fn(task):
        if task == 2:
            threading.Timer(0.2, os._exit, (5,)).start()
            return bytes(200_000)
        return task

    results = forked.forked_map(fn, range(4), 2)
    assert [next(results), next(results)] == [0, 1]
    assert _wait_for_states(_children(), ("Z",), 30) == ["Z", "Z"]
    with pytest.raises(RuntimeError, match="exited with code 5"):
        next(results)
    assert _children() == []


def test_unpicklable_result_raises_in_parent(capfd):
    # the worker's failure to pickle a result reaches this process as an
    # exception of fn does, and the worker prints nothing
    with pytest.raises(TypeError, match="cannot pickle '_thread.lock' object") as info:
        list(forked.forked_map(lambda _: threading.Lock(), range(2), 2))
    assert "raised in worker process" in str(info.value.__cause__)
    assert "Traceback" not in capfd.readouterr().err
    assert _children() == []


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states in /proc")
def test_workers_exit_when_parent_is_killed():
    # a worker learns that its parent is gone when its next send fails;
    # a reaped worker has no /proc entry, and an orphan no process reaps
    # stays a zombie
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    with subprocess.Popen([sys.executable, "-c", _PARENT_DEATH_SCRIPT], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            blocked = _wait_for_states(pids, ("S",), 10)
        finally:
            proc.kill()
        exited = _wait_for_states(pids, (None, "Z"), 10)
        for pid, state in zip(pids, exited):
            if state not in (None, "Z"):
                os.kill(pid, signal.SIGKILL)
        err = proc.stderr.read()
    assert len(pids) == 2 and blocked == ["S", "S"], err
    assert all(state in (None, "Z") for state in exited), exited


# Runs in a fresh interpreter, where _tally has not yet set glibc's
# thresholds.  glibc raises both by a varying amount whenever a mapped
# chunk is freed, which imports may have done, so the script first puts
# them at their start-up values, 128 KiB each, as in a process without
# that history.  An import can also leave a free hole in the heap that
# holds a block's temporaries, so they never reach the top of the heap;
# the live fill arrays of 120,000 B use up such holes.  The script runs
# on one CPU, so that its 125 blocks run in-process, where its page
# faults are counted.
_FAULTS_SCRIPT = """
import ctypes, json, os, resource
import numpy as np
from parityshift import forked
from parityshift.harness import ExperimentSpec, run_thm2_undetectable

os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

mallopt = ctypes.CDLL(None).mallopt
mallopt(-1, 128 << 10)  # M_TRIM_THRESHOLD
mallopt(-3, 128 << 10)  # M_MMAP_THRESHOLD
fill = [np.empty(15000) for _ in range(64)]
spec = ExperimentSpec(regime="fixed_a", a=2.0, n=2000, trials=1000, master_seed=1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_thm2_undetectable(spec)
print(json.dumps({"faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before,
                  "workers": len(forked.worker_usage)}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
def test_freed_block_memory_is_reused():
    # 1000 trials of n = 2000 are 125 blocks of 8 rows, whose 128,000 B
    # temporaries sit just under the 128 KiB trim threshold: 130-240
    # faults a block when the top of the heap is trimmed after every
    # block, 2-3 when _tally's setting keeps it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["workers"] == 0  # on one CPU: every block ran in-process
    assert result["faults"] <= 20 * 125


# A thm1-detectable run of 10**12 or more trials, one a block, stopped
# by on_trial at its first record under a 2 GiB address-space limit.
_HUGE_RUN_SCRIPT = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from parityshift import forked
from parityshift.harness import ExperimentSpec, run_thm1_detectable

class FirstRecord(Exception):
    pass

def on_trial(line):
    raise FirstRecord(json.loads(line)["trial_index"])

spec = ExperimentSpec(regime="cube_scaling", c=4.0, n=10000, trials=int(sys.argv[1]),
                      master_seed=1)
t0 = time.monotonic()
try:
    run_thm1_detectable(spec, on_trial=on_trial)
except FirstRecord as stop:
    print(json.dumps({"first": stop.args[0], "seconds": time.monotonic() - t0,
                      "workers": len(forked.worker_usage)}))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="limits the address space with RLIMIT_AS")
@pytest.mark.parametrize("trials", [10**12, 10**30])
def test_huge_run_reaches_first_record(trials):
    # 10**30 trials make more tasks than len() of a range can report
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _HUGE_RUN_SCRIPT, str(trials)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["first"] == 0
    assert result["seconds"] < 30
    assert result["workers"] == (forked.worker_count() if forked.worker_count() > 1 else 0)
