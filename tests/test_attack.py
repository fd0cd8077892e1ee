"""Adversary: die law, coupling marginals, sparsity, evasion optimality."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    InvalidProbabilitiesError,
    perturbation_from_rle,
    perturbation_from_values,
    perturbation_values,
    sample_die,
    sparsity_ratio,
)
from parityshift.attack import (
    PerturbationVector,
    couple_perturb,
    optimal_parity_evasion,
    sparsity_budget,
)
from parityshift.detector import big_g_value
from parityshift.harness import trial_rng
from parityshift.kernels import KernelParams
from parityshift.stats import ks_distance_standard_normal


class TestSampleDie:
    def test_degenerate_up(self):
        assert sample_die(1.0, 0.0, 1.0, 0.7) == 1.0

    def test_interval_order(self):
        a = 2.0
        assert sample_die(0.2, 0.5, a, 0.1999) == a
        assert sample_die(0.2, 0.5, a, 0.2) == 0.0
        assert sample_die(0.2, 0.5, a, 0.6999) == 0.0
        assert sample_die(0.2, 0.5, a, 0.7) == -a

    def test_invalid_probabilities(self):
        with pytest.raises(InvalidProbabilitiesError):
            sample_die(0.8, 0.4, 1.0, 0.5)
        with pytest.raises(InvalidProbabilitiesError):
            sample_die(-0.1, 0.4, 1.0, 0.5)

    def test_tiny_negative_clamped(self):
        assert sample_die(-1e-12, 0.3, 1.0, 0.1) == 0.0

    def test_frequencies_one_million_draws(self):
        rng = np.random.default_rng(2024)
        u = rng.random(1_000_000)
        # vectorized equivalent of the scalar die, plus a scalar spot loop
        up = np.count_nonzero(u < 0.2)
        stay = np.count_nonzero((u >= 0.2) & (u < 0.7))
        down = u.size - up - stay
        for frac, want in ((up / u.size, 0.2), (stay / u.size, 0.5), (down / u.size, 0.3)):
            assert abs(frac - want) <= 0.002
        for v in u[:2000]:
            out = sample_die(0.2, 0.5, 1.0, float(v))
            expect = 1.0 if v < 0.2 else (0.0 if v < 0.7 else -1.0)
            assert out == expect


class TestPerturbationVector:
    def test_values_exact(self):
        theta = PerturbationVector(np.array([1, 0, -1], dtype=np.int8), 0.7)
        assert perturbation_values(theta).tolist() == [0.7, 0.0, -0.7]
        assert theta.zero_count == 1

    def test_from_values_roundtrip(self):
        theta = perturbation_from_values([2.0, -2.0, 0.0, 2.0], 2.0)
        assert theta.signs.tolist() == [1, -1, 0, 1]

    def test_from_values_rejects_off_lattice(self):
        with pytest.raises(ValueError):
            perturbation_from_values([1.0, 0.5], 1.0)

    def test_rle_roundtrip(self):
        theta = PerturbationVector(np.array([0, 0, 1, 1, 1, -1, 0], dtype=np.int8), 1.5)
        rle = theta.to_rle()
        assert rle == [[0, 2], [1, 3], [-1, 1], [0, 1]]
        back = perturbation_from_rle(rle, 1.5)
        assert (back.signs == theta.signs).all()

    def test_rle_elements_are_python_ints(self):
        # the pairs go straight into json.dumps, which rejects numpy scalars
        theta = PerturbationVector(np.array([-1, -1, 0, 1, 0, 0], dtype=np.int8), 1.0)
        rle = theta.to_rle()
        assert rle == [[-1, 2], [0, 1], [1, 1], [0, 2]]
        assert all(type(pair) is list for pair in rle)
        assert all(type(v) is int for pair in rle for v in pair)
        assert PerturbationVector(np.empty(0, dtype=np.int8), 1.0).to_rle() == []

    @given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=60))
    def test_rle_roundtrip_property(self, signs):
        theta = PerturbationVector(np.array(signs, dtype=np.int8), 1.0)
        # loop reference for the vectorised encoder
        assert theta.to_rle() == [[s, len(list(run))] for s, run in itertools.groupby(signs)]
        back = perturbation_from_rle(theta.to_rle(), 1.0)
        assert (back.signs == theta.signs).all()


class TestSparsityRatio:
    def test_no_zeros_is_hypercube_vertex(self):
        theta = perturbation_from_values([1.0, -1.0, 1.0, -1.0], 1.0)
        assert sparsity_ratio(theta) == 0.0

    def test_half(self):
        theta = perturbation_from_values([0.0, 0.0, 1.0, -1.0], 1.0)
        assert sparsity_ratio(theta) == 0.5

    def test_boundary_is_excluded_by_strict_predicate(self):
        theta = perturbation_from_values([0.0, 0.0, 1.0, -1.0], 1.0)
        t = 0.5
        assert not (sparsity_ratio(theta) < t)

    def test_empty_raises(self):
        theta = PerturbationVector(np.empty(0, dtype=np.int8), 1.0)
        with pytest.raises(ValueError):
            sparsity_ratio(theta)


class TestCouplePerturb:
    def test_support_and_shapes(self):
        params = KernelParams(1.0)
        rng = trial_rng(7, 0)
        x = rng.standard_normal(5000)
        theta, x_post = couple_perturb(x, params, rng.random(5000))
        assert set(np.unique(theta.signs)) <= {-1, 0, 1}
        assert np.allclose(x_post - x, theta.signs * 1.0)

    def test_zero_fraction_matches_big_g(self):
        # pooled across substreams at a = 1, N = 1e6
        params = KernelParams(1.0)
        total = 0
        n, trials = 10_000, 100
        for i in range(trials):
            rng = trial_rng(31337, i)
            x = rng.standard_normal(n)
            theta, _ = couple_perturb(x, params, rng.random(n))
            total += theta.zero_count
        big_g = big_g_value(1.0)
        se = math.sqrt(big_g * (1.0 - big_g) / (n * trials))
        assert abs(total / (n * trials) - big_g) <= 3.0 * se

    def test_post_sample_is_standard_normal_ks(self):
        params = KernelParams(1.0)
        pool = []
        for i in range(20):
            rng = trial_rng(999, i)
            x = rng.standard_normal(10_000)
            _, x_post = couple_perturb(x, params, rng.random(10_000))
            pool.append(x_post)
        sample = np.concatenate(pool)
        assert ks_distance_standard_normal(sample) <= 1.95 / math.sqrt(sample.size)

    def test_rejects_out_of_clamp(self):
        params = KernelParams(1.0)
        with pytest.raises(ValueError):
            couple_perturb(np.array([0.0, params.x_max + 1.0]), params, np.full(2, 0.5))

    def test_rejects_misshaped_uniforms(self):
        # one row of uniforms must not broadcast across a block's rows
        x = trial_rng(3, 0).standard_normal((4, 50))
        with pytest.raises(ValueError, match="u must be shaped like x"):
            couple_perturb(x, KernelParams(1.0), np.full(50, 0.5))

    def test_ks_distance_matches_scipy(self):
        from scipy.stats import kstest

        sample = trial_rng(5, 0).standard_normal(20_000)
        ours = ks_distance_standard_normal(sample)
        theirs = kstest(sample, "norm").statistic
        assert ours == pytest.approx(theirs, abs=1e-12)


def brute_force_best_attacked_statistic(z: np.ndarray, t: float) -> float:
    """Maximal attacked statistic over every sign pattern with sr < t.

    Independent of the flip identity: labels are recomputed from first
    principles for each candidate perturbation.
    """
    n = z.size
    best = -math.inf
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        arr = np.array(pattern, dtype=np.int8)
        zeros = int(np.count_nonzero(arr == 0))
        if not (zeros / n < t):
            continue
        z_post = np.where(arr == 0, z, -z)
        best = max(best, float(z_post.mean()))
    return best


class TestOptimalParityEvasion:
    def test_no_positive_labels_to_keep(self):
        z = np.array([-1, -1, -1, -1], dtype=np.int8)
        theta = optimal_parity_evasion(z, 1.0, sparsity_budget(0.5, 4))
        assert theta.zero_count == 0
        z_post = np.where(theta.signs == 0, z, -z)
        assert z_post.mean() == 1.0

    def test_keeps_both_positives(self):
        z = np.array([1, 1, -1, -1], dtype=np.int8)
        theta = optimal_parity_evasion(z, 1.0, sparsity_budget(0.6, 4))
        assert theta.signs.tolist() == [0, 0, 1, 1]
        z_post = np.where(theta.signs == 0, z, -z)
        assert z_post.mean() == 1.0

    def test_ties_break_low_index(self):
        z = np.array([1, 1, 1, 1], dtype=np.int8)
        theta = optimal_parity_evasion(z, 1.0, sparsity_budget(0.6, 4))
        assert theta.signs.tolist() == [0, 0, 1, 1]

    def test_empty_family_raises(self):
        with pytest.raises(ValueError, match="family is empty"):
            optimal_parity_evasion(np.array([1, -1], dtype=np.int8), 1.0, sparsity_budget(0.0, 2))

    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n),
                st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_budget_always_strict(self, args):
        n, z, t = args
        z = np.array(z, dtype=np.int8)
        if math.ceil(t * n) - 1 < 0:
            return
        theta = optimal_parity_evasion(z, 1.0, sparsity_budget(t, n))
        assert sparsity_ratio(theta) < t

    # t * n rounds up onto an integer here (0.28 * 25 = 7.000000000000001),
    # where ceil(t n) - 1 keeps one coordinate too many
    @pytest.mark.parametrize("t, n, budget", [(0.28, 25, 6), (0.28, 5000, 1399), (0.56, 25, 13)])
    def test_budget_strict_where_t_n_rounds_up(self, t, n, budget):
        assert sparsity_budget(t, n) == budget
        assert budget / n < t <= (budget + 1) / n
        theta = optimal_parity_evasion(np.ones(n, np.int8), 1.0, budget)
        assert theta.zero_count == budget
        assert sparsity_ratio(theta) < t

    def test_budget_empty_only_at_zero(self):
        assert sparsity_budget(0.0, 7) == -1
        assert sparsity_budget(1e-12, 7) == 0
        assert sparsity_budget(1.0, 7) == 6

    # no t outside [0, 1] has a budget in -1..n, and the search for one
    # at t = 1e300 would not end
    @pytest.mark.parametrize("t", [-0.5, -1e-300, 1.5, 1e300, math.inf, -math.inf, math.nan])
    def test_budget_rejects_t_outside_unit_interval(self, t):
        with pytest.raises(ValueError, match=r"^t must lie in \[0, 1\]"):
            sparsity_budget(t, 10)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("t", [0.2, 0.5, 0.8, 1.0])
    def test_brute_force_optimality_small(self, n, t):
        rng = np.random.default_rng(n * 100 + int(t * 10))
        for _ in range(3):
            z = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
            if math.ceil(t * n) - 1 < 0:
                continue
            theta = optimal_parity_evasion(z, 1.0, sparsity_budget(t, n))
            z_post = np.where(theta.signs == 0, z, -z)
            ours = float(z_post.mean())
            best = brute_force_best_attacked_statistic(z, t)
            assert ours == pytest.approx(best, abs=0.0)
