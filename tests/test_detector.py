"""Detector: bins, parity statistic, bin masses, decisions, flip identity.

The scalar references under test live in ``tests/oracles.py``; the
acceptance boundary ``min_accepted_sum`` is the package's own.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    big_g_oracle,
    bin_index,
    bin_prob,
    decide,
    flip_identity_check,
    parity_statistic,
    perturbation_values,
)
from parityshift.attack import PerturbationVector
from parityshift.detector import ZERO_TEST_MIN_SUM, big_g_value, min_accepted_sum
from parityshift.harness import trial_rng
from parityshift.kernels import BIG_G_CROSSOVER_A, big_g

BIG_G_2 = 0.37077742979952391  # quadrature oracle, frozen


# Every bin width a spec admits, from the cube regime's least (0.0326) to
# 1e300, on a log grid; a linear one over 1..20, where G(a) climbs to 1;
# both sides of G's route crossover; and the widths where the dual series
# alone left [0, 1] (a = 30, 37, 38).
BIG_G_GRID = sorted([*np.geomspace(0.0326, 1e300, 401).tolist(),
                     *np.linspace(1.0, 20.0, 77).tolist(), 30.0, 37.0, 38.0,
                     BIG_G_CROSSOVER_A * (1.0 - 1e-12), BIG_G_CROSSOVER_A,
                     BIG_G_CROSSOVER_A * (1.0 + 1e-12)])


class TestBigGValue:
    def test_in_unit_interval_and_nondecreasing(self):
        values = [big_g_value(a) for a in BIG_G_GRID]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(v1 <= v2 for v1, v2 in zip(values, values[1:]))
        assert values[0] == 0.0 and values[-1] == 1.0

    def test_bin_mass_route_matches_oracle(self):
        # G(a) rounds to 1 from a ~ 17 on, where the oracle returns 1.0
        # without summing
        for a in BIG_G_GRID:
            if BIG_G_CROSSOVER_A <= a <= 1e300:
                assert abs(big_g_value(a) - big_g_oracle(a)) <= 1e-15, a


class TestBinIndex:
    def test_central(self):
        assert bin_index(0.3, 1.0) == 0

    def test_next_bin(self):
        assert bin_index(0.6, 1.0) == 1

    def test_left_edge_goes_right(self):
        # half-open convention: -0.5 belongs to bin 0, not bin -1
        assert bin_index(-0.5, 1.0) == 0
        assert bin_index(0.5, 1.0) == 1

    def test_negative_bins(self):
        assert bin_index(-0.51, 1.0) == -1
        assert bin_index(-1.7, 1.0) == -2

    def test_scaling(self):
        assert bin_index(2.9, 2.0) == 1
        assert bin_index(3.1, 2.0) == 2


class TestParityStatistic:
    def test_hand_count(self):
        assert parity_statistic(np.array([0.3, 0.6, -1.2]), 1.0) == pytest.approx(-1.0 / 3.0)

    def test_all_central(self):
        x = np.linspace(-0.49, 0.49, 21)
        assert parity_statistic(x, 1.0) == 1.0

    def test_expectation_matches_big_g(self):
        rng = trial_rng(424242, 0)
        x = rng.standard_normal(1_000_000)
        a_stat = parity_statistic(x, 2.0)
        se = math.sqrt((1.0 - BIG_G_2**2) / x.size)
        assert abs(a_stat - BIG_G_2) <= 4.0 * se

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            parity_statistic(np.empty(0), 1.0)


class TestBinProb:
    def test_central_bin_a1(self):
        assert bin_prob(0, 1.0) == pytest.approx(0.38292492254802621, abs=1e-15)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_partition_of_unity(self, a):
        total = sum(bin_prob(k, a) for k in range(-40, 41))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 3.0])
    def test_alternating_sum_is_big_g(self, a):
        alt = sum((-1) ** abs(k) * bin_prob(k, a) for k in range(-60, 61))
        assert abs(alt - big_g(a)) <= 1e-10

    def test_symmetric(self):
        for k in (1, 2, 5):
            assert bin_prob(k, 0.8) == pytest.approx(bin_prob(-k, 0.8), abs=1e-300)


class TestDecide:
    def test_threshold_boundary_accepts(self):
        # A == G(a) exactly: 0 > -lambda
        lam = 3.0
        g = big_g_value(1.0)
        n = 100
        # synthetic sample engineered to land every point in bin 0
        x = np.zeros(n)
        result = decide(x, 1.0, lam)
        assert result.accept_h0 and result.statistic_a == 1.0
        assert math.sqrt(n) * (g - g) > -lam

    def test_zero_variant_rejects_negative(self):
        x = np.array([0.3, 0.6, -1.2])  # A = -1/3
        result = decide(x, 1.0, 3.0, zero=True)
        assert not result.accept_h0

    def test_false_alarm_rate_thresholded(self):
        lam = 3.0
        trials, n = 4000, 2000
        rejections = 0
        for i in range(trials):
            x = trial_rng(20240811, i).standard_normal(n)
            rejections += not decide(x, 2.0, lam).accept_h0
        bound = math.exp(-lam**2 / 2.0)
        limit = bound + 3.0 * math.sqrt(bound * (1.0 - bound) / trials)
        assert rejections / trials <= limit

    @pytest.mark.parametrize("lam", [2.0, 3.0, 4.0])
    def test_concentration_bound(self, lam):
        # P(A - G <= -lambda/sqrt(n)) <= exp(-lambda^2/2) + 3 SE
        a, n, trials = 2.0, 2000, 2500
        g = big_g_value(a)
        hits = 0
        for i in range(trials):
            x = trial_rng(555000 + int(lam * 10), i).standard_normal(n)
            if parity_statistic(x, a) - g <= -lam / math.sqrt(n):
                hits += 1
        bound = math.exp(-lam * lam / 2.0)
        assert hits / trials <= bound + 3.0 * math.sqrt(bound * (1.0 - bound) / trials)

    def test_config_validation(self):
        # a bad a raises through big_g_value
        with pytest.raises(ValueError):
            min_accepted_sum(-1.0, 3.0, 10)
        for lam in (0.0, -3.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="lambda must be positive and finite"):
                min_accepted_sum(1.0, lam, 10)


class TestMinAcceptedSum:
    @pytest.mark.parametrize("a", [0.3, 0.494, 1.0, math.sqrt(math.pi), 2.0, 8.0])
    @pytest.mark.parametrize("lam", [0.5, 3.0, 7.0])
    def test_thresholded_matches_float_rule(self, a, lam):
        g = big_g_value(a)
        for n in (1, 2, 7, 1000, 5000):
            s_min = min_accepted_sum(a, lam, n)
            for s in range(-n, n + 1):
                assert (s >= s_min) == (math.sqrt(n) * (s / n - g) > -lam), (n, s)

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 5000])
    def test_zero_is_positive_sum(self, n):
        assert all((s >= ZERO_TEST_MIN_SUM) == (s > 0) for s in range(-n, n + 1))

    @pytest.mark.parametrize("n", [0, -3, 2.0])
    def test_bad_n_raises(self, n):
        with pytest.raises(ValueError):
            min_accepted_sum(1.0, 3.0, n)


class TestFlipIdentity:
    def test_random_pairs_exact_zero(self):
        rng = trial_rng(8080, 0)
        x = rng.standard_normal(1000)
        signs = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=1000)
        theta = PerturbationVector(signs, 1.0)
        assert flip_identity_check(x, theta, 1.0) == 0.0

    def test_identity_perturbation(self):
        x = trial_rng(1, 0).standard_normal(500)
        theta = PerturbationVector(np.zeros(500, dtype=np.int8), 1.0)
        # A' = A: residual reduces to |2A - 2A| = 0
        assert flip_identity_check(x, theta, 1.0) == 0.0

    def test_hypercube_vertex_negates(self):
        a = 0.7
        x = trial_rng(2, 0).standard_normal(800)
        signs = trial_rng(3, 0).choice(np.array([-1, 1], dtype=np.int8), size=800)
        theta = PerturbationVector(signs, a)
        _, s_pre = _labels_sum(x, a)
        _, s_post = _labels_sum(x + perturbation_values(theta), a)
        assert s_post == -s_pre
        assert flip_identity_check(x, theta, a) == 0.0

    @given(
        st.integers(min_value=1, max_value=24).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.floats(-6, 6, allow_nan=False), min_size=n, max_size=n),
                st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n),
                st.sampled_from([0.5, 1.0, 2.0]),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_property_small(self, args):
        n, xs, signs, a = args
        x = np.array(xs)
        theta = PerturbationVector(np.array(signs, dtype=np.int8), a)
        assert flip_identity_check(x, theta, a) == 0.0

    def test_dimension_mismatch(self):
        theta = PerturbationVector(np.zeros(3, dtype=np.int8), 1.0)
        with pytest.raises(ValueError):
            flip_identity_check(np.zeros(4), theta, 1.0)


def _labels_sum(x, a):
    from parityshift import accel

    return accel.parity_labels_and_sum(x, a)
