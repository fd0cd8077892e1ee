"""Kernel series (G(a), and the scalar g, gamma and phi oracles): values, identities, ranges."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from oracles import (SeriesConvergenceError, _check_range, _gamma_raw, _phi_raw, big_g_oracle,
                     eval_g, eval_gamma, eval_phi, fp_residual, normal_pdf, route)
from parityshift.kernels import KernelParams, KernelRangeError, big_g

SQRT_PI = math.sqrt(math.pi)

# Frozen from the mpmath translate-sum quadrature oracle (40+ digits,
# cross-checked against the independent dual series to ~1e-37).
BIG_G_ORACLE = {
    0.3: 1.9590724971878349e-24,
    0.5: 3.4062824637908129e-9,
    1.0: 0.0091569902897607558,
    SQRT_PI: 0.26468018947541306,
    2.0: 0.37077742979952391,
    3.0: 0.73278478561693902,
    5.0: 0.975161338697023095,
    8.0: 0.99987331503266752,
}


class TestKernelParams:
    def test_valid(self):
        p = KernelParams(1.5)
        assert route(p.a) == "dual" and p.x_max == 18.0

    def test_mode_crossover(self):
        assert route(SQRT_PI) == "primal"
        assert route(SQRT_PI - 1e-9) == "dual"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"a": 0.0},
            {"a": -1.0},
            {"a": float("nan")},
            {"a": 1.0, "rel_tol": 0.0},
            {"a": 1.0, "rel_tol": 1e-5},
            {"a": 1.0, "rel_tol": float("nan")},
            {"a": 1e-300},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            KernelParams(**kwargs)

    def test_smallest_width(self):
        # a * a must be a normal double: the dual series divide by it
        assert KernelParams(1.5e-154).a == 1.5e-154
        assert big_g(1.5e-154) == 0.0
        with pytest.raises(ValueError, match=r"^a: 1\.4e-154 is too small"):
            KernelParams(1.4e-154)


class TestEvalG:
    def test_single_term_limit(self):
        # only the k=0 translate survives for huge a
        got = eval_g(0.0, KernelParams(50.0))
        assert got.mode == "primal"
        assert got.value == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-15)

    @pytest.mark.parametrize("a", [0.7, 1.0, 2.0, 3.0])
    def test_vanishes_at_bin_edge(self, a):
        # translates cancel pairwise (k vs -(k+1)) at x = a/2
        for x in (a / 2, -a / 2):
            assert abs(eval_g(x, KernelParams(a)).value) < 1e-13

    @pytest.mark.parametrize("x", [0.0, 0.3, 0.8])
    def test_primal_dual_agree_at_crossover(self, x):
        p = KernelParams(SQRT_PI)
        primal = eval_g(x, p, mode="primal").value
        dual = eval_g(x, p, mode="dual").value
        assert abs(primal - dual) <= 1e-12

    def test_primal_dual_agree_on_crossover_band(self):
        for a in np.linspace(1.2, 2.5, 14):
            p = KernelParams(float(a))
            for x in np.linspace(-a / 2, a / 2, 11):
                d = abs(eval_g(float(x), p, mode="primal").value
                        - eval_g(float(x), p, mode="dual").value)
                assert d <= 1e-10

    def test_antiperiodic(self):
        p = KernelParams(1.3)
        for x in (-0.4, 0.0, 0.17, 0.62):
            assert eval_g(x + 1.3, p).value == pytest.approx(-eval_g(x, p).value, abs=1e-14)

    def test_est_error_certificate(self):
        for a in (0.6, 1.0, SQRT_PI, 2.0, 5.0):
            p = KernelParams(a)
            for x in np.linspace(-1.5 * a, 1.5 * a, 13):
                e = eval_g(float(x), p)
                assert e.est_error <= p.rel_tol * max(abs(e.value), 1e-300)
                assert e.terms_used <= oracles.MAX_TERMS

    @pytest.mark.parametrize("series, call", [
        # primal route forced far below the crossover: O(1) alternating
        # translates need far more than 8 terms
        pytest.param("primal g", lambda: eval_g(0.11, KernelParams(0.3), mode="primal"),
                     id="primal-g"),
        # dual route forced far above it: the cosine weights barely decay
        pytest.param("dual g", lambda: eval_g(0.3, KernelParams(10.0), mode="dual"),
                     id="dual-g"),
        pytest.param("primal gamma", lambda: eval_gamma(0.1, KernelParams(1.8)),
                     id="primal-gamma"),
        pytest.param("up-shift", lambda: eval_phi(0.1, KernelParams(0.3)), id="phi-forward"),
    ])
    def test_nonconvergence_raises(self, series, call, monkeypatch):
        # every series meets the same term cap, here 8, and names itself when it does
        monkeypatch.setattr(oracles, "MAX_TERMS", 8)
        with pytest.raises(SeriesConvergenceError,
                           match=rf"^{re.escape(series)} series: no convergence within 8 terms"):
            call()


class TestEvalBigG:
    @pytest.mark.parametrize("a,expected", sorted(BIG_G_ORACLE.items()))
    def test_frozen_oracle_values(self, a, expected):
        assert big_g(a) == pytest.approx(expected, abs=1e-12)

    def test_leading_term_a1(self):
        # (4/pi) e^{-pi^2/2} dominates; later terms < 1e-19
        lead = (4.0 / math.pi) * math.exp(-math.pi**2 / 2.0)
        assert big_g(1.0) == pytest.approx(lead, abs=1e-19)

    def test_large_a_limit(self):
        assert big_g(20.0) == pytest.approx(1.0, abs=1e-12)

    def test_strictly_increasing_on_log_grid(self):
        grid = np.exp(np.linspace(math.log(0.3), math.log(12.0), 25))
        values = [big_g(float(a)) for a in grid]
        assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))


class TestBigGOracle:
    @pytest.mark.parametrize("a", sorted(BIG_G_ORACLE))
    def test_dual_route_agreement(self, a):
        assert abs(big_g(a) - big_g_oracle(a)) <= 1e-10

    def test_frozen_regression_a2(self):
        assert big_g_oracle(2.0) == pytest.approx(0.37077742979952391, abs=1e-14)

    def test_vanishing_limit(self):
        v = big_g_oracle(0.1)
        assert v < 1e-200


class TestEvalGamma:
    def test_value_a3_origin(self):
        # 1 - 2 e^{-4.5} + 2 e^{-18} - ...
        assert eval_gamma(0.0, KernelParams(3.0)) == pytest.approx(
            0.97778203738347487, abs=1e-14
        )

    @pytest.mark.parametrize("a", [0.4, 0.7, 1.0, 2.0, 3.0])
    def test_zero_at_and_past_half_width(self, a):
        p = KernelParams(a)
        assert eval_gamma(a / 2, p) == 0.0
        assert eval_gamma(-a / 2, p) == 0.0
        assert eval_gamma(0.7 * a, p) == 0.0

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 4.0])
    def test_even(self, a):
        p = KernelParams(a)
        for x in np.linspace(0.0, a / 2 * 0.999, 17):
            assert eval_gamma(float(x), p) == pytest.approx(eval_gamma(float(-x), p), abs=5e-15)

    def test_matches_g_over_density(self):
        for a in (0.8, 1.5, 2.5):
            p = KernelParams(a)
            for x in np.linspace(-a / 2 * 0.98, a / 2 * 0.98, 9):
                expected = eval_g(float(x), p).value / normal_pdf(float(x))
                assert eval_gamma(float(x), p) == pytest.approx(expected, abs=1e-12)


class TestEvalPhi:
    def test_forward_series_a1(self):
        # e^{-6.5} - e^{-14} + ...; every stay factor is 1 out there
        assert eval_phi(6.0, KernelParams(1.0)) == pytest.approx(
            0.0015026078334355973, abs=1e-15
        )

    def test_mirror_value_a1(self):
        assert eval_phi(-6.0, KernelParams(1.0)) == pytest.approx(
            0.99849739216656440, abs=1e-14
        )

    @pytest.mark.parametrize("a", [0.7, 1.0, 2.0, 3.0])
    def test_mirror_identity_on_grid(self, a):
        p = KernelParams(a)
        for x in np.arange(-6.0, 6.0001, 0.25):
            lhs = eval_phi(float(-x), p)
            rhs = 1.0 - eval_gamma(float(x), p) - eval_phi(float(x), p)
            assert abs(lhs - rhs) <= 1e-9

    @pytest.mark.parametrize("a", [0.7, 1.0, 2.0])
    def test_mirrored_branch_matches_unstable_forward_series(self, a):
        # direct forward summation at x < 0 loses ~x^2/2 nats to
        # cancellation but stays usable for |x| <= 3; the mirrored branch
        # must agree with it
        p = KernelParams(a)
        for x in np.arange(-3.0, 0.0, 0.35):
            total = 0.0
            for k in range(1, 200):
                stay = _gamma_raw(x + k * a, p)
                term = (1.0 - stay) * math.exp(-k * a * x - 0.5 * k * k * a * a)
                total += term if k % 2 == 1 else -term
                if math.exp(-(k + 1) * a * x - 0.5 * (k + 1) ** 2 * a * a) < 1e-17 * math.exp(
                    x * x / 2.0
                ):
                    break
            assert eval_phi(float(x), p) == pytest.approx(total, abs=1e-9)

    def test_beyond_clamp_raises(self):
        p = KernelParams(1.0)
        with pytest.raises(ValueError):
            eval_phi(p.x_max + 1e-9, p)
        with pytest.raises(ValueError):
            eval_phi(-p.x_max - 1e-9, p)

    @pytest.mark.parametrize("a", [0.7, 1.0, 2.0, 3.0])
    def test_range_suite_pre_clamp(self, a):
        p = KernelParams(a)
        for x in np.arange(-8.0, 8.0001, 0.05):
            g_raw = _gamma_raw(float(x), p)
            p_raw = _phi_raw(float(x), p)
            assert -1e-9 <= g_raw <= 1.0 + 1e-9
            assert -1e-9 <= p_raw <= 1.0 + 1e-9
            assert p_raw + g_raw <= 1.0 + 1e-9

    def test_clamped_to_unit_interval(self):
        p = KernelParams(2.0)
        for x in np.arange(-10.0, 10.0001, 0.1):
            assert 0.0 <= eval_phi(float(x), p) <= 1.0
            assert 0.0 <= eval_gamma(float(x), p) <= 1.0


class TestFpResidual:
    def test_spot_values(self):
        assert abs(fp_residual(0.3, KernelParams(1.2))) <= 1e-10
        assert abs(fp_residual(0.0, KernelParams(2.0))) <= 1e-10

    @pytest.mark.parametrize("a", [0.7, 1.0, 2.0])
    def test_identity_suite(self, a):
        p = KernelParams(a)
        worst = max(abs(fp_residual(float(x), p)) for x in np.arange(-8.0, 8.0001, 0.05))
        assert worst <= 1e-9

    def test_even_in_x(self):
        p = KernelParams(1.0)
        for x in np.arange(0.0, 6.0001, 0.3):
            assert abs(fp_residual(float(x), p) - fp_residual(float(-x), p)) <= 1e-12

    def test_domain_guard(self):
        p = KernelParams(1.0)
        with pytest.raises(ValueError):
            fp_residual(p.x_max - 0.5, p)


class TestNormalization:
    @pytest.mark.parametrize("a", [0.7, 1.0, 2.0, 3.0])
    def test_gamma_density_integral_matches_big_g(self, a):
        p = KernelParams(a)
        val, err = quad(
            lambda x: eval_gamma(x, p) * normal_pdf(x), -a / 2, a / 2,
            epsabs=1e-13, epsrel=1e-12, limit=200,
        )
        assert err < 1e-11
        assert abs(val - big_g(a)) <= 1e-10


class TestRangeGuard:
    def test_kernel_range_error_is_loud(self):
        # sanity: the guard trips on a synthetic out-of-band value
        with pytest.raises(KernelRangeError):
            _check_range(1.1, KernelParams(1.0), "gamma", 0.0)
