"""Harness: spec validation, determinism, all five operations, sweep, sharding."""

import dataclasses
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

from oracles import decide
from parityshift import accel, forked, harness
from parityshift.attack import (PerturbationVector, couple_perturb, optimal_parity_evasion,
                                sparsity_budget)
from parityshift.detector import big_g_value
from parityshift.harness import (
    ExperimentSpec,
    SpecValidationError,
    TrialRecord,
    run_coupling_validation,
    run_thm1_detectable,
    run_thm1_undetectable,
    run_thm2_detectable,
    run_thm2_undetectable,
    sweep_phase_transition,
    trial_rng,
)
from parityshift.kernels import KernelParams, KernelRangeError
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
        with pytest.raises(SpecValidationError, match="^c: .* phi's series would take 257"):
            ExperimentSpec(regime="cube_scaling", c=0.0325 * root, n=n, trials=1, master_seed=1)

    def test_epsilon_window_rejected(self):
        # G(5) ~ 0.975: G + eps >= 1
        with pytest.raises(SpecValidationError):
            ExperimentSpec(regime="fixed_a", a=5.0, n=100, trials=10, master_seed=1,
                           epsilon=0.05)

    def test_tiny_big_g_rejected(self):
        # G(0.5) ~ 3.4e-9 < eps: window empty on the left
        with pytest.raises(SpecValidationError):
            ExperimentSpec(regime="fixed_a", a=0.5, n=100, trials=10, master_seed=1)

    @pytest.mark.parametrize("field_name", ["n", "trials", "master_seed", "a", "c", "t",
                                            "epsilon", "lam", "alpha", "rel_tol"])
    def test_bool_rejected(self, field_name):
        # bool is an int subclass; True must not pass as a count, a seed or a real number
        kwargs = dict(regime="fixed_a", a=2.0, n=100, trials=10, master_seed=1)
        kwargs[field_name] = True
        with pytest.raises(SpecValidationError, match=f"^{field_name}: "):
            ExperimentSpec(**kwargs)

    def test_regime_field_consistency(self):
        with pytest.raises(SpecValidationError):
            ExperimentSpec(regime="fixed_a", a=1.0, c=2.0, n=10, trials=1, master_seed=0)
        with pytest.raises(SpecValidationError):
            ExperimentSpec(regime="cube_scaling", c=None, n=10, trials=1, master_seed=0)
        with pytest.raises(SpecValidationError):
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
        assert out.passed, out.checks
        assert out.rates["zero_fraction"]["total"] == 2000 * 300

    def test_moments_reported(self):
        spec = ExperimentSpec(regime="fixed_a", a=0.7, n=4000, trials=100, master_seed=SEED,
                              epsilon=4e-5)
        out = run_coupling_validation(spec)
        assert out.passed, out.checks
        assert abs(out.bounds["pool_mean"]) < 0.01

    def test_wrong_regime(self):
        spec = ExperimentSpec(regime="cube_scaling", c=2.0, n=100, trials=10, master_seed=1)
        with pytest.raises(SpecValidationError):
            run_coupling_validation(spec)

    def test_trial_records(self):
        spec = ExperimentSpec(regime="fixed_a", a=1.0, n=50, trials=4, master_seed=SEED,
                              epsilon=0.004)
        recs = []
        run_coupling_validation(spec, on_trial=recs.append)
        assert len(recs) == 4
        rec = recs[0]
        assert rec.zero_count == sum(c for s, c in rec.theta_rle if s == 0)

    def test_hoeffding_tail_is_the_family_complement(self):
        # at a = 2, n = 50 the exact tail P(sr >= G + eps) is about 0.19, so
        # the count is mid-range; the run counts it as the trials outside
        # Theorem 2's family sr < G + eps
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=50, trials=400, master_seed=3)
        tail = run_coupling_validation(spec).counts["tail_count"]
        limit = big_g_value(2.0) + spec.epsilon
        assert tail == sum(_zero_count_for_trial(spec, i) / spec.n >= limit
                           for i in range(spec.trials))
        assert tail == spec.trials - run_thm2_undetectable(spec).rates["in_family"]["count"]
        assert 0.1 * spec.trials < tail < 0.3 * spec.trials


class TestThm1Undetectable:
    def test_small_run(self):
        spec = ExperimentSpec(regime="cube_scaling", c=1.5, n=10_000, trials=400,
                              master_seed=SEED)
        out = run_thm1_undetectable(spec)
        assert out.passed, out.checks
        assert out.premises["c_below_pi_over_sqrt2"]
        assert out.bounds["exact_no_stay"] >= out.bounds["chain_bound"]

    def test_fast_path_matches_full_coupling(self):
        # the masked die-interval shortcut must reproduce couple_perturb's
        # stay events draw for draw
        spec = ExperimentSpec(regime="cube_scaling", c=1.5, n=2000, trials=30,
                              master_seed=SEED)
        a = spec.effective_a
        params = KernelParams(a)
        plan = accel.plan_for(a, spec.rel_tol)
        for i in range(spec.trials):
            rng = trial_rng(spec.seed64, i)
            x = rng.standard_normal(spec.n)
            u = rng.random(spec.n)
            mask = np.abs(x) < 0.5 * a
            phi_c, gamma_c = accel.phi_gamma(x[mask], plan)
            uc = u[mask]
            fast = int(np.count_nonzero((uc >= phi_c) & (uc < phi_c + gamma_c)))

            rng2 = trial_rng(spec.seed64, i)
            x2 = rng2.standard_normal(spec.n)
            theta, _ = couple_perturb(x2, params, rng2.random(spec.n))
            assert fast == theta.zero_count

    def test_vanishing_c_limit(self):
        spec = ExperimentSpec(regime="cube_scaling", c=0.1, n=100, trials=40, master_seed=SEED)
        out = run_thm1_undetectable(spec)
        assert out.bounds["big_g"] == 0.0
        assert out.bounds["exact_no_stay"] == 1.0
        assert out.rates["no_stay_trials"]["rate"] == 1.0

    def test_premise_violation_warns_but_runs(self):
        spec = ExperimentSpec(regime="cube_scaling", c=4.0, n=1000, trials=10, master_seed=SEED)
        with pytest.warns(UserWarning):
            out = run_thm1_undetectable(spec)
        assert not out.premises["c_below_pi_over_sqrt2"]


class TestThm1Detectable:
    def test_premises_and_exactness(self):
        spec = ExperimentSpec(regime="cube_scaling", c=4.0, n=10_000, trials=400,
                              master_seed=SEED)
        out = run_thm1_detectable(spec)
        assert out.passed, out.checks
        assert out.premises == {
            "c_above_pi": True, "cube_n1": True, "cube_n2": True,
            "sqrt_n_G_above_lambda": True,
        }
        assert out.counts["overlap_count"] == 0
        assert out.counts["flip_violations"] == 0

    def test_frozen_premise_values(self):
        # closed forms at c=4, n=1e4, frozen from the high-precision oracle
        spec = ExperimentSpec(regime="cube_scaling", c=4.0, n=10_000, trials=1,
                              master_seed=SEED)
        out = run_thm1_detectable(spec)
        assert out.bounds["big_g"] == pytest.approx(0.074337776774847591, abs=1e-12)
        assert out.bounds["cube_n1_rhs"] == pytest.approx(0.058384753352642474, abs=1e-12)
        assert out.bounds["cube_n2_lhs"] == pytest.approx(34.087794240488966, abs=1e-10)


class TestThm2Undetectable:
    def test_small_run(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=2000, trials=400, master_seed=SEED)
        out = run_thm2_undetectable(spec)
        assert out.passed, out.checks
        assert out.bounds["t"] == pytest.approx(big_g_value(2.0) + 0.05)

    def test_t_equal_one_only_fails_when_nothing_moves(self):
        # sr < 1 excludes exactly the all-zero perturbation
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=10, trials=300, master_seed=SEED,
                              t=1.0)
        out = run_thm2_undetectable(spec)
        all_zero = sum(
            1 for i in range(300)
            if _zero_count_for_trial(spec, i) == spec.n
        )
        assert out.rates["in_family"]["count"] == 300 - all_zero

    def test_degenerate_scale_still_reports(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=10, trials=50, master_seed=SEED)
        out = run_thm2_undetectable(spec)
        for entry in out.rates.values():
            assert 0.0 <= entry["rate"] <= 1.0
            assert entry["lo"] <= entry["rate"] <= entry["hi"]


def _zero_count_for_trial(spec, i):
    rng = trial_rng(spec.seed64, i)
    x = rng.standard_normal(spec.n)
    theta, _ = couple_perturb(x, KernelParams(spec.effective_a), rng.random(spec.n))
    return theta.zero_count


class TestThm2Detectable:
    def test_small_run_zero_overlap(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=5000, trials=400, master_seed=SEED)
        out = run_thm2_detectable(spec)
        assert out.passed, out.checks
        assert out.counts["overlap_count"] == 0
        assert out.premises["t_at_most_G_minus_eps"]

    def test_boundary_n_rejected_with_minimal_n(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=3600, trials=10, master_seed=SEED)
        with pytest.raises(SpecValidationError, match=r"3600.*3601"):
            run_thm2_detectable(spec)

    def test_minimal_n_accepted(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=3601, trials=20, master_seed=SEED)
        out = run_thm2_detectable(spec)
        assert out.counts["overlap_count"] == 0

    def test_alpha_target_premise(self):
        base = dict(regime="fixed_a", a=2.0, n=5000, trials=30, master_seed=SEED, lam=3.0)
        loose = run_thm2_detectable(ExperimentSpec(**base, alpha=0.05))
        strict = run_thm2_detectable(ExperimentSpec(**base, alpha=0.001))
        # e^{-4.5} ~ 0.0111 sits between the two targets
        assert loose.premises["lambda_meets_alpha"]
        assert not strict.premises["lambda_meets_alpha"]

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
        per_budget, _, _ = harness._evasion_job(spec, 0, np.arange(n)).attack(
            0, x, None, z, s_pre)
        for budget in range(n):
            t = (budget + 0.5) / n  # ceil(t n) - 1 = budget
            assert sparsity_budget(t, n) == budget
            theta = optimal_parity_evasion(z, a, budget)
            _, s_direct = accel.parity_labels_and_sum(x + theta.signs * a, a)
            kept, _, _ = harness._evasion_job(spec, 0, budget).attack(0, x, None, z, s_pre)
            assert (2 * kept - s_pre).tolist() == s_direct.tolist()
            assert (2 * per_budget[:, budget] - s_pre).tolist() == s_direct.tolist()

    def test_out_of_theorem_budget_overlaps(self):
        t = big_g_value(2.0) + 0.1
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=5000, trials=150, master_seed=SEED,
                              t=t)
        out = run_thm2_detectable(spec)
        assert not out.premises["t_at_most_G_minus_eps"]
        # evasion succeeds nearly every accepted trial
        assert out.rates["overlap"]["rate"] > 0.9


# one small valid spec per operation; thm2_detectable needs n > lam^2/eps^2
SMALL_RUNS = [
    (run_coupling_validation, dict(regime="fixed_a", a=2.0, n=200)),
    (run_thm1_undetectable, dict(regime="cube_scaling", c=1.5, n=200)),
    (run_thm1_detectable, dict(regime="cube_scaling", c=4.0, n=200)),
    (run_thm2_undetectable, dict(regime="fixed_a", a=2.0, n=200)),
    (run_thm2_detectable, dict(regime="fixed_a", a=2.0, n=200, epsilon=0.1, lam=1.0)),
]


@pytest.mark.filterwarnings("ignore:theorem premises not all met")
class TestOnTrial:
    @pytest.mark.parametrize("run, kwargs", SMALL_RUNS, ids=lambda v: getattr(v, "__name__", ""))
    def test_once_per_trial_in_order(self, run, kwargs):
        spec = ExperimentSpec(**kwargs, trials=7, master_seed=SEED)
        recs = []
        streamed = run(spec, on_trial=recs.append)
        assert [rec.trial_index for rec in recs] == list(range(spec.trials))
        # recording never changes what the run reports
        assert streamed.to_dict() == run(spec).to_dict()
        # every attack keeps only +1 labels unmoved and flips the rest
        for rec in recs:
            s_pre = round(rec.statistic_pre * spec.n)
            assert round(rec.statistic_post * spec.n) == 2 * rec.zero_count - s_pre

    def test_thm1_detectable_attacks_rejected_trials(self):
        # c = 4 at n = 50 misses two premises, so some null samples are rejected
        spec = ExperimentSpec(regime="cube_scaling", c=4.0, n=50, trials=200, master_seed=7)
        recs = []
        out = run_thm1_detectable(spec, on_trial=recs.append)
        rec = recs[129]
        assert not rec.accepted_pre and round(rec.statistic_pre * spec.n) == -2
        assert round(rec.statistic_post * spec.n) == 2
        assert rec.accepted_post
        assert all(r.theta_rle == [[1, 50]] for r in recs)
        # the summary counts only accepted trials as attacked, as before
        assert out.passed
        assert out.counts == {"attacked": 198, "overlap_count": 0, "flip_violations": 0}
        assert {name: r["count"] for name, r in out.rates.items()} == {
            "null_accept": 198, "overlap": 0}

    @pytest.mark.parametrize("run, kwargs", SMALL_RUNS, ids=lambda v: getattr(v, "__name__", ""))
    def test_json_line_of_every_run(self, run, kwargs):
        spec = ExperimentSpec(**kwargs, trials=7, master_seed=SEED)
        recs = []
        run(spec, on_trial=recs.append)
        assert [rec.json_line() for rec in recs] == [_dumped(rec) for rec in recs]


def _dumped(rec: TrialRecord) -> str:
    # the reference: json's own encoding of the record's fields
    return json.dumps(vars(rec), sort_keys=True, check_circular=False) + "\n"


def _record(**fields) -> TrialRecord:
    return TrialRecord(**{"trial_index": 3, "statistic_pre": 0.25, "statistic_post": -0.5,
                          "sr": 0.125, "accepted_pre": True, "accepted_post": False,
                          "zero_count": 7, "theta_rle": [[0, 4], [1, 1]], **fields})


# counts up to BOUND - 1 come from json_line's table, the rest are formatted directly
BOUND = harness._PAIR_TEXT_COUNTS


class TestJsonLine:
    @pytest.mark.parametrize("theta_rle", [
        None, [], [[1, 10 * BOUND + 3]], [[0, BOUND - 1]], [[0, BOUND]], [[0, BOUND + 1]],
        [[-1, BOUND - 1], [1, BOUND], [-1, BOUND + 1]],
        [[0, 1], [1, 2], [0, 3], [-1, 1], [1, 40], [-1, 255]],
    ])
    def test_theta_rle(self, theta_rle):
        rec = _record(theta_rle=theta_rle)
        assert rec.json_line() == _dumped(rec)

    @pytest.mark.parametrize("fields", [
        {"statistic_pre": -0.0, "statistic_post": 0.0, "sr": 0.0},
        {"statistic_pre": 1 / 3, "statistic_post": -1e-300, "sr": 5e-324},
        {"statistic_pre": np.float64(0.1), "sr": np.float64(-0.0)},
        {"accepted_pre": False, "accepted_post": True},
        {"accepted_pre": True, "accepted_post": True},
        {"accepted_pre": False, "accepted_post": False},
        {"trial_index": 10**30 + 7, "zero_count": 0},
    ])
    def test_scalars(self, fields):
        rec = _record(**fields)
        assert rec.json_line() == _dumped(rec)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from([-1, 0, 1]), st.integers(1, 2 * BOUND)),
                 max_size=12),
        st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.0, 1.0),
        st.booleans(), st.booleans(), st.integers(0, 2**64),
    )
    def test_random_sign_rows(self, runs, pre, post, sr, accepted_pre, accepted_post, index):
        # runs of random signs and lengths joined into one int8 row; equal
        # neighbours merge, so to_rle sees runs up to 4 * BOUND long
        signs = np.repeat(np.array([s for s, _ in runs], dtype=np.int8),
                          [c for _, c in runs])
        rec = _record(statistic_pre=pre, statistic_post=post, sr=sr, accepted_pre=accepted_pre,
                      accepted_post=accepted_post, trial_index=index, zero_count=index // 3,
                      theta_rle=PerturbationVector(signs, 1.0).to_rle())
        assert rec.json_line() == _dumped(rec)

    def test_template_names_every_field(self):
        # a field TrialRecord gains must enter json_line's template too
        keys = list(json.loads(_record().json_line()))
        assert keys == sorted(field.name for field in dataclasses.fields(TrialRecord))


def _per_trial_coupling_records(spec):
    # record fields as a one-trial-at-a-time loop makes them: one draw,
    # one couple_perturb, one parity pass per sample
    a, n = spec.effective_a, spec.n
    params = KernelParams(a, rel_tol=spec.rel_tol)
    out = []
    for i in range(spec.trials):
        rng = trial_rng(spec.seed64, i)
        x = rng.standard_normal(n)
        theta, x_post = couple_perturb(x, params, rng.random(n))
        _, s_pre = accel.parity_labels_and_sum(x, a)
        _, s_post = accel.parity_labels_and_sum(x_post, a)
        out.append((i, s_pre / n, s_post / n, theta.zero_count, theta.to_rle()))
    return out


def _record_fields(recs):
    return [(r.trial_index, r.statistic_pre, r.statistic_post, r.zero_count, r.theta_rle)
            for r in recs]


def _check_thm1_records(spec, recs):
    # thm1-undetectable's records come from its central-bin die and the
    # flip identity; they must equal the full coupling and direct binning
    # of x + theta, trial by trial, and carry no theta_rle
    expected = [(i, s_pre, s_post, zc, None)
                for i, s_pre, s_post, zc, _ in _per_trial_coupling_records(spec)]
    assert _record_fields(recs) == expected
    for rec in recs:
        assert rec.sr == rec.zero_count / spec.n


@pytest.mark.filterwarnings("ignore:theorem premises not all met")
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
        ref = run(spec, on_trial=ref_recs.append).to_dict()
        monkeypatch.setattr(harness, "_BLOCK_COORDS", block_coords)
        recs = []
        assert run(spec, on_trial=recs.append).to_dict() == ref
        assert recs == ref_recs
        assert run(spec).to_dict() == ref

    @pytest.mark.parametrize("run", [run_coupling_validation, run_thm2_undetectable])
    @pytest.mark.parametrize("n, trials", [(200, 7), (200, 1), (harness._BLOCK_COORDS + 50, 2)])
    def test_records_match_per_trial_loop(self, run, n, trials):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=n, trials=trials, master_seed=SEED)
        recs = []
        run(spec, on_trial=recs.append)
        assert _record_fields(recs) == _per_trial_coupling_records(spec)
        for rec in recs:
            assert rec.sr == rec.zero_count / n

    @pytest.mark.parametrize("n, trials", [(200, 7), (200, 1), (harness._BLOCK_COORDS + 50, 2)])
    def test_thm1_records_match_per_trial_loop(self, n, trials):
        # c just below pi/sqrt(2): some trials keep a coordinate in place
        spec = ExperimentSpec(regime="cube_scaling", c=2.2, n=n, trials=trials, master_seed=SEED)
        recs = []
        run_thm1_undetectable(spec, on_trial=recs.append)
        _check_thm1_records(spec, recs)
        assert any(rec.zero_count for rec in recs)

    def test_pool_matches_per_trial_concatenation(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=300, trials=9, master_seed=SEED)
        params = KernelParams(2.0)
        pool = []
        for i in range(spec.trials):
            rng = trial_rng(spec.seed64, i)
            x = rng.standard_normal(spec.n)
            pool.append(couple_perturb(x, params, rng.random(spec.n))[1])
        pool = np.concatenate(pool)
        bounds = run_coupling_validation(spec).bounds
        assert bounds["ks_distance"] == ks_distance_standard_normal(pool)
        assert (bounds["pool_mean"], bounds["pool_var"]) == sample_moments(pool)[:2]


@pytest.mark.filterwarnings("ignore:theorem premises not all met")
class TestLabelPasses:
    # passes of the bin-parity labels over every trial's n coordinates, with
    # records and without: x is binned once for a test or records, and x'
    # once more where a run checks the flip identity
    @pytest.mark.parametrize("run, kwargs, recorded, json_only", [
        (*run_kwargs, *passes) for run_kwargs, passes in
        zip(SMALL_RUNS, [(1, 0), (1, 0), (2, 2), (2, 2), (2, 2)])
    ], ids=[run.__name__ for run, _ in SMALL_RUNS])
    def test_coordinates_binned(self, monkeypatch, run, kwargs, recorded, json_only):
        spec = ExperimentSpec(**kwargs, trials=7, master_seed=SEED)
        binned = []
        real = accel.parity_labels_and_sum

        def counted(x, a):
            binned.append(np.size(x))
            return real(x, a)

        monkeypatch.setattr(accel, "parity_labels_and_sum", counted)
        run(spec, on_trial=lambda rec: None)
        assert sum(binned) == recorded * spec.trials * spec.n
        binned.clear()
        run(spec)
        assert sum(binned) == json_only * spec.trials * spec.n


class TestDeterminism:
    def test_bit_identical_summaries(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=1000, trials=60, master_seed=SEED)
        first = run_thm2_undetectable(spec).to_dict()
        second = run_thm2_undetectable(spec).to_dict()
        assert first == second

    def test_seed_changes_rates(self):
        base = dict(regime="fixed_a", a=2.0, n=500, trials=80)
        one = run_coupling_validation(ExperimentSpec(**base, master_seed=1)).bounds["ks_distance"]
        two = run_coupling_validation(ExperimentSpec(**base, master_seed=2)).bounds["ks_distance"]
        assert one != two


class TestSweep:
    def test_single_cell_matches_thm2_detectable(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=5000, trials=120, master_seed=SEED)
        full = run_thm2_detectable(spec)
        rows = sweep_phase_transition(spec, t_offsets=[-spec.epsilon]).rows
        assert len(rows) == 1
        row = rows[0]
        assert row["t"] == full.bounds["t"]
        assert row["attacker_success"]["count"] == full.rates["attacked_accept"]["count"]
        assert row["null_accept_rate"] == full.rates["null_accept"]["rate"]
        assert row["overlap_rate"] == full.rates["overlap"]["rate"]

    def test_success_monotone_in_t(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=2000, trials=250, master_seed=SEED)
        rows = sweep_phase_transition(
            spec, t_offsets=[-0.15, -0.1, -0.05, -0.03, 0.0, 0.05, 0.1, 0.15]
        ).rows
        counts = [r["attacker_success"]["count"] for r in rows]
        assert counts == sorted(counts)

    def test_cube_sweep_shape(self):
        spec = ExperimentSpec(regime="cube_scaling", c=1.0, n=500, trials=60, master_seed=SEED)
        rows = sweep_phase_transition(spec, c_values=[1.0, 2.5, 4.0]).rows
        assert [r["c"] for r in rows] == [1.0, 2.5, 4.0]
        for row in rows:
            assert 0.0 <= row["detector_win_rate"] <= 1.0
        # large-c cell: the full flip makes accepted-then-accepted impossible
        assert rows[-1]["overlap_rate"] == 0.0 or rows[-1]["big_g"] > 0

    def test_cube_sweep_matches_per_trial_loop(self):
        # each cell's counts against one trial at a time: one draw, one
        # couple_perturb, and the zero test decided on x and on x' by
        # direct binning; n is odd, so that a label sum of 1 exists
        spec = ExperimentSpec(regime="cube_scaling", c=1.0, n=301, trials=60, master_seed=SEED)
        c_values = [1.0, 2.0, 3.0, 4.0]
        rows = sweep_phase_transition(spec, c_values=c_values).rows
        totals = np.zeros(5, dtype=int)
        for c, row in zip(c_values, rows):
            a = dataclasses.replace(spec, c=c).effective_a
            params = KernelParams(a, rel_tol=spec.rel_tol)
            counts = np.zeros(5, dtype=int)  # null accept, success, overlap, no stay, win
            for i in range(spec.trials):
                rng = trial_rng(spec.seed64, i)
                x = rng.standard_normal(spec.n)
                theta, x_post = couple_perturb(x, params, rng.random(spec.n))
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
        with pytest.raises(SpecValidationError, match=f"^{field}:"):
            sweep_phase_transition(spec, **grid)

    def test_summary_payload(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=300, trials=20, master_seed=SEED)
        summary = sweep_phase_transition(spec, t_offsets=[0.0, 0.1])
        assert summary.operation == "sweep" and summary.passed
        assert sorted(summary.to_dict()) == ["checks", "operation", "passed", "rows", "spec"]
        assert list(summary.checks) == ["success_monotone_in_t"]
        assert "rows" not in run_thm2_detectable(
            dataclasses.replace(spec, n=5000, trials=3)).to_dict()

    def test_deterministic(self):
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=800, trials=50, master_seed=SEED)
        assert sweep_phase_transition(spec, t_offsets=[0.0, 0.1]).rows == sweep_phase_transition(
            spec, t_offsets=[0.0, 0.1]
        ).rows


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


@pytest.mark.filterwarnings("ignore:theorem premises not all met")
class TestSharding:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("run, kwargs", SMALL_RUNS, ids=lambda v: getattr(v, "__name__", ""))
    def test_runs_match_one_worker(self, shard, run, kwargs, workers):
        # 20 one-trial blocks in 7 tasks, split 4+3 or 3+2+2 between the workers
        spec = ExperimentSpec(**kwargs, trials=20, master_seed=SEED)
        shard(1)
        ref_recs = []
        ref = run(spec, on_trial=ref_recs.append).to_dict()
        assert shard.calls == []
        shard(workers)
        recs = []
        assert run(spec, on_trial=recs.append).to_dict() == ref
        assert recs == ref_recs
        assert run(spec).to_dict() == ref
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
        ref = sweep_phase_transition(spec, **grid).rows
        shard(2)
        assert sweep_phase_transition(spec, **grid).rows == ref
        # all cells of a sweep share one set of workers
        assert shard.calls == [2]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_records_larger_than_a_pipe(self, shard, workers):
        # a task's three theta rows of 30,000 signs pickle to about 90 KB,
        # more than a 64 KiB pipe holds, so each worker blocks in send
        # until this process reads its result
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=30_000, trials=20, master_seed=SEED)
        shard(1)
        ref_recs = []
        ref = run_coupling_validation(spec, on_trial=ref_recs.append).to_dict()
        shard(workers)
        recs = []
        assert run_coupling_validation(spec, on_trial=recs.append).to_dict() == ref
        assert recs == ref_recs
        assert shard.calls == [workers]
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

        def fail_at_trial_5(rec):
            if rec.trial_index == 5:
                raise ValueError("disk full")

        with pytest.raises(ValueError, match="disk full"):
            run_thm2_undetectable(spec, on_trial=fail_at_trial_5)
        assert _children() == []


# A sharded run whose consumer takes a second a record, so the workers
# fill their pipes (about 90 KB a task) and block in send.  It prints
# the worker pids once the first record arrives.
_PARENT_DEATH_SCRIPT = """
import time
from pathlib import Path
from parityshift import harness
from parityshift.harness import ExperimentSpec, run_thm2_undetectable

harness.worker_count = lambda: 2
harness._BLOCK_COORDS = 1
harness._TASK_BLOCKS = 3
harness._MIN_WORKER_BLOCKS = 1

def on_trial(rec):
    if rec.trial_index == 0:
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
# the live fill arrays of 120,000 B use up such holes.
_FAULTS_SCRIPT = """
import ctypes, json, resource
import numpy as np
from parityshift import forked
from parityshift.harness import ExperimentSpec, run_thm2_undetectable

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
    assert result["workers"] == 0  # below the shard threshold: every block ran in-process
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

def on_trial(rec):
    raise FirstRecord(rec.trial_index)

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
