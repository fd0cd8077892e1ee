"""Acceptance criteria, one test per criterion, with runtime budgets.

Run with -s to see one [PASS]/[FAIL] line per criterion.
"""

import itertools
import math
import time

import numpy as np
import pytest

from oracles import (_gamma_raw, _phi_raw, big_g_oracle, eval_g, eval_gamma, eval_phi,
                     flip_identity_check, fp_residual, sparsity_ratio)
from parityshift import accel
from parityshift.attack import PerturbationVector, optimal_parity_evasion, sparsity_budget
from parityshift.detector import big_g_value
from parityshift.harness import (
    ExperimentSpec,
    run_coupling_validation,
    run_thm1_detectable,
    run_thm1_undetectable,
    run_thm2_detectable,
    sweep_phase_transition,
    trial_rng,
)
from parityshift.kernels import KernelParams, big_g

ACCEPT_SEED = 20250810
SQRT_PI = math.sqrt(math.pi)


def report(name: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    in_budget = elapsed < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert in_budget, f"{name}: runtime {elapsed:.1f}s exceeded {budget:.0f}s"


def test_c1_kernel_cross_validation():
    t0 = time.perf_counter()
    worst_g_pair = 0.0
    for a in (0.3, 0.5, 1.0, SQRT_PI, 2.0, 3.0, 5.0, 8.0):
        diff = abs(big_g(a) - big_g_oracle(a))
        worst_g_pair = max(worst_g_pair, diff)
    assert worst_g_pair <= 1e-10

    worst_mode = 0.0
    for a in np.linspace(1.2, 2.5, 14):
        params = KernelParams(float(a))
        for x in np.linspace(-a / 2, a / 2, 9):
            worst_mode = max(
                worst_mode,
                abs(eval_g(float(x), params, mode="primal").value
                    - eval_g(float(x), params, mode="dual").value),
            )
    ok = worst_g_pair <= 1e-10 and worst_mode <= 1e-10
    report(
        "criterion-1 kernel cross-validation", ok,
        f"max|series-oracle|={worst_g_pair:.2e}, max|primal-dual|={worst_mode:.2e}",
        time.perf_counter() - t0, 5.0,
    )


def test_c2_identity_suite():
    t0 = time.perf_counter()
    grid = np.arange(-8.0, 8.0001, 0.05)
    worst_resid = 0.0
    worst_edge = 0.0
    worst_range = 0.0
    worst_mirror = 0.0
    for a in (0.7, 1.0, 2.0):
        params = KernelParams(a)
        for x in grid:
            x = float(x)
            worst_resid = max(worst_resid, abs(fp_residual(x, params)))
            g_raw = _gamma_raw(x, params)
            p_raw = _phi_raw(x, params)
            worst_range = max(worst_range, -g_raw, -p_raw, g_raw + p_raw - 1.0)
            mirror = abs(eval_phi(-x, params) - (1.0 - eval_gamma(x, params) - eval_phi(x, params)))
            worst_mirror = max(worst_mirror, mirror)
        worst_edge = max(worst_edge, eval_gamma(a / 2, params), eval_gamma(-a / 2, params))
    ok = (worst_resid <= 1e-9 and worst_edge <= 1e-10 and worst_range <= 1e-9
          and worst_mirror <= 1e-9)
    report(
        "criterion-2 identity suite", ok,
        f"max|fp_residual|={worst_resid:.2e}, gamma(edge)={worst_edge:.2e}, "
        f"range excess={worst_range:.2e}, mirror={worst_mirror:.2e}",
        time.perf_counter() - t0, 10.0,
    )


def test_c3_coupling_distribution():
    t0 = time.perf_counter()
    details = []
    ok = True
    for a, eps in ((1.0, 0.005), (2.0, 0.05)):
        spec = ExperimentSpec(regime="fixed_a", a=a, n=1000, trials=1000,
                              master_seed=ACCEPT_SEED, epsilon=eps)
        out = run_coupling_validation(spec)
        ks_ok = out["checks"]["ks_within_critical"]["passed"]
        zf_ok = out["checks"]["zero_fraction_4se"]["passed"]
        ok = ok and ks_ok and zf_ok
        details.append(
            f"a={a}: KS={out['bounds']['ks_distance']:.2e} (crit {out['bounds']['ks_critical']:.2e}), "
            f"zero_frac={out['rates']['zero_fraction']['rate']:.3e} vs G={out['bounds']['big_g']:.3e}"
        )
    report("criterion-3 coupling distribution", ok, "; ".join(details),
           time.perf_counter() - t0, 30.0)


def test_c4_hoeffding_bound():
    t0 = time.perf_counter()
    spec = ExperimentSpec(regime="fixed_a", a=2.0, n=2000, trials=10_000,
                          master_seed=ACCEPT_SEED, epsilon=0.05)
    out = run_coupling_validation(spec)
    tail = out["rates"]["hoeffding_tail"]["count"]
    report(
        "criterion-4 hoeffding bound", tail == 0,
        f"tail count={tail} over 1e4 trials (per-trial bound e^-10={math.exp(-10):.2e})",
        time.perf_counter() - t0, 60.0,
    )


def test_c5_thm1_undetectable():
    t0 = time.perf_counter()
    spec = ExperimentSpec(regime="cube_scaling", c=1.5, n=10_000, trials=10_000,
                          master_seed=ACCEPT_SEED)
    out = run_thm1_undetectable(spec)
    analytic = out["checks"]["exact_ge_chain_bound"]["passed"]
    wilson = out["checks"]["wilson_contains_exact"]["passed"]
    rate = out["rates"]["no_stay_trials"]
    report(
        "criterion-5 thm1 undetectable", analytic and wilson,
        f"exact={out['bounds']['exact_no_stay']:.8f} >= bound={out['bounds']['chain_bound']:.8f}; "
        f"MC={rate['rate']:.6f} wilson=[{rate['lo']:.6f}, {rate['hi']:.6f}]",
        time.perf_counter() - t0, 120.0,
    )


def test_c6_thm1_detectable():
    t0 = time.perf_counter()
    spec = ExperimentSpec(regime="cube_scaling", c=4.0, n=10_000, trials=10_000,
                          master_seed=ACCEPT_SEED, lam=3.0)
    out = run_thm1_detectable(spec)
    overlap = out["rates"]["overlap"]["count"]
    flips = out["checks"]["flip_identity_zero"]["observed"]
    floor = out["checks"]["null_accept_floor"]
    ok = all(out["premises"].values()) and overlap == 0 and flips == 0 and floor["passed"]
    report(
        "criterion-6 thm1 detectable", ok,
        f"premises={out['premises']}, overlap={overlap}, flip_violations={flips}, "
        f"null_accept={out['rates']['null_accept']['rate']:.4f} (floor {floor['limit']:.4f})",
        time.perf_counter() - t0, 120.0,
    )


def test_c7_thm2_detectable():
    t0 = time.perf_counter()
    spec = ExperimentSpec(regime="fixed_a", a=2.0, n=5000, trials=10_000,
                          master_seed=ACCEPT_SEED, epsilon=0.05, lam=3.0)
    out = run_thm2_detectable(spec)
    overlap = out["rates"]["overlap"]["count"]
    flips = out["checks"]["flip_identity_zero"]["observed"]
    alarm = out["checks"]["null_false_alarm"]
    ok = overlap == 0 and flips == 0 and alarm["passed"]
    report(
        "criterion-7 thm2 detectable", ok,
        f"overlap={overlap} over 1e4 trials, flip_violations={flips}, "
        f"false_alarm={alarm['observed']:.2e} (limit {alarm['limit']:.2e})",
        time.perf_counter() - t0, 120.0,
    )


def test_c8_phase_transition_sweep():
    t0 = time.perf_counter()
    spec = ExperimentSpec(regime="fixed_a", a=2.0, n=2000, trials=10_000,
                          master_seed=ACCEPT_SEED, epsilon=0.05, lam=3.0)
    offsets = [-0.15, -0.1, -0.05, 0.0, 0.05, 0.1, 0.15]
    rows = sweep_phase_transition(spec, t_offsets=offsets)["rows"]
    by_offset = {row["t_offset"]: row for row in rows}
    low = by_offset[-0.1]["attacker_success"]["rate"]
    high = by_offset[0.1]["attacker_success"]["rate"]
    null_rate = rows[0]["null_accept_rate"]
    floor = null_rate - 3.0 * math.sqrt(null_rate * (1.0 - null_rate) / spec.trials + 1e-12)
    counts = [row["attacker_success"]["count"] for row in rows]
    monotone = counts == sorted(counts)
    ok = low <= 1e-3 and high >= floor and monotone
    report(
        "criterion-8 phase transition", ok,
        f"success(G-0.1)={low:.2e} (<=1e-3), success(G+0.1)={high:.4f} "
        f"(null={null_rate:.4f}), monotone={monotone}",
        time.perf_counter() - t0, 600.0,
    )


def brute_force_max_statistic(z: np.ndarray, t: float) -> float:
    n = z.size
    patterns = np.array(list(itertools.product((-1, 0, 1), repeat=n)), dtype=np.int8)
    zeros = patterns == 0
    valid = zeros.sum(axis=1) / n < t
    z_post = np.where(zeros, z, -z)
    return float(z_post[valid].mean(axis=1).max())


def test_c9_small_instance_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED)

    # exhaustive optimality of the evasion adversary
    for n in range(2, 9):
        for t in (0.15, 0.4, 0.75, 1.0):
            if math.ceil(t * n) - 1 < 0:
                continue
            candidates = [rng.choice(np.array([-1, 1], dtype=np.int8), size=n) for _ in range(3)]
            candidates.append(np.ones(n, dtype=np.int8))
            candidates.append(-np.ones(n, dtype=np.int8))
            for z in candidates:
                theta = optimal_parity_evasion(z, 1.0, sparsity_budget(t, n))
                assert sparsity_ratio(theta) < t
                ours = float(np.where(theta.signs == 0, z, -z).mean())
                assert ours == brute_force_max_statistic(z, t)

    # exact flip identity on 1e5 random coordinate pairs
    n, vectors = 1000, 100
    a_cycle = (0.7, 1.0, 2.0)
    for v in range(vectors):
        a = a_cycle[v % 3]
        x = trial_rng(ACCEPT_SEED, v).standard_normal(n)
        signs = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=n)
        residual = flip_identity_check(x, PerturbationVector(signs, a), a)
        assert residual == 0.0

    report(
        "criterion-9 small-instance oracle", True,
        f"3^n brute force (n=2..8) exact; flip identity 0 on {vectors * n} pairs",
        time.perf_counter() - t0, 600.0,
    )
