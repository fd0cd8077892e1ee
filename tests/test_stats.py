"""Pooled statistics: the normal CDF, the chunked KS distance and the chunked moment triple."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from parityshift import harness, stats
from parityshift.harness import ExperimentSpec, run_coupling_validation, trial_rng
from parityshift.stats import ks_distance_standard_normal, normal_cdf, sample_moments


def _peak_traced_bytes(fn, *args) -> int:
    # bytes allocated at the peak of fn(*args), above what was live before
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def _sorted_quantiles(n: int) -> np.ndarray:
    # the N(0,1) quantiles at (i + 1/2)/n: an empirical CDF that hugs the
    # normal CDF everywhere, so the pruned scan can skip no chunk
    return ndtri((np.arange(n) + 0.5) / n)


def _ks_one_shot(sample: np.ndarray) -> float:
    # the whole-array formula the chunked evaluation replaces
    s = np.sort(sample)
    n = s.size
    cdf = stats.normal_cdf(s)
    steps = np.arange(1, n + 1, dtype=np.float64) / n
    return max(float(np.max(steps - cdf)), float(np.max(cdf - (steps - 1.0 / n))))


class TestNormalCdf:
    # two ulps of a value in [1/2, 1): the largest gap between two results
    # that each lie within an ulp of Phi
    TOL = 2.3e-16

    def test_matches_mpmath(self):
        xs = np.linspace(-38.0, 38.0, 201)
        with mpmath.workdps(40):
            exact = [mpmath.ncdf(mpmath.mpf(float(v))) for v in xs]
        errors = [abs(mpmath.mpf(float(got)) - want) for got, want in zip(normal_cdf(xs), exact)]
        assert float(max(errors)) <= self.TOL

    def test_matches_scipy_ndtr(self):
        x = trial_rng(11, 0).standard_normal(1_000_000) * 4.0
        assert float(np.max(np.abs(normal_cdf(x) - ndtr(x)))) <= self.TOL

    def test_infinities_and_nan(self):
        got = normal_cdf(np.array([-np.inf, np.inf, np.nan, -1e300, 1e300]))
        assert got[0] == 0.0 and got[1] == 1.0 and math.isnan(got[2])
        assert got[3] == 0.0 and got[4] == 1.0

    def test_no_monotonicity_drop_above_1e_15(self):
        # a dense grid across the clipping edges at +-39, and each midpoint
        # between grid points, where the nearest point switches, with its
        # neighbouring floats
        mid = (np.arange(-39 * 64, 39 * 64) + 0.5) / 64
        x = np.sort(np.concatenate([np.linspace(-40.0, 40.0, 2_000_001), mid,
                                    np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf)]))
        cdf = normal_cdf(x)
        assert float(np.max(cdf[:-1] - cdf[1:])) <= 1e-15

    def test_input_kept(self):
        x = np.array([0.3, -1.7, np.inf, np.nan])
        normal_cdf(x)
        assert x[:3].tolist() == [0.3, -1.7, np.inf] and math.isnan(x[3])


class TestKsChunks:
    @pytest.mark.parametrize(
        "size",
        # 511-513 end at a chunk boundary and 1659 = 12 * 128 + 123 = 3 * 512 + 123
        # inside a chunk, at chunk sizes 128 and 512 alike; 196731 = 3 * 2**16 + 123:
        # hundreds of chunks and a partial last one
        [1, 2, 1000, stats._KS_CHUNK - 1, stats._KS_CHUNK, stats._KS_CHUNK + 1,
         511, 512, 513, 1659, 196_731],
    )
    def test_bit_identical_to_one_shot(self, size):
        sample = trial_rng(2718, size).standard_normal(size)
        assert ks_distance_standard_normal(sample) == _ks_one_shot(sample)

    @pytest.mark.parametrize(
        "make",
        [
            lambda g: g.standard_normal(50_001) + 0.01,
            lambda g: g.standard_normal(50_001) - 0.3,
            lambda g: g.standard_normal(50_001) * 1.02,
            lambda g: g.standard_normal(50_001) * 0.5,
            lambda g: np.round(g.standard_normal(50_001), 1),
            lambda g: np.full(3 * stats._KS_CHUNK + 7, 0.25),
            lambda g: np.concatenate([g.standard_normal(9_000), [np.inf, -np.inf, np.inf]]),
            lambda g: np.array([-np.inf, np.inf]),
            lambda g: g.uniform(-1.0, 1.0, 50_001),
            lambda g: _sorted_quantiles(200_001),
        ],
        ids=["shift+", "shift-", "scale>1", "scale<1", "ties", "all-equal", "inf", "only-inf",
             "uniform", "quantiles"],
    )
    def test_pruned_scan_matches_full_scan(self, make):
        sample = make(trial_rng(99, 3))
        assert ks_distance_standard_normal(sample) == _ks_one_shot(sample)

    def test_cdf_evaluated_on_under_half_the_sample(self, monkeypatch):
        sample = trial_rng(2718, 4).standard_normal(4_000_000)
        expected = _ks_one_shot(sample)
        seen = []

        def counting_cdf(v):
            seen.append(np.size(v))
            return normal_cdf(v)

        monkeypatch.setattr(stats, "normal_cdf", counting_cdf)
        assert ks_distance_standard_normal(sample) == expected
        assert sum(seen) < sample.size / 2

    def test_flat_curve_scanned_in_few_cdf_calls(self, monkeypatch):
        # every chunk of the exact quantiles is a candidate; runs of them
        # are scanned _KS_SCAN values per call, not one chunk per call
        sample = _sorted_quantiles(1 << 20)
        expected = _ks_one_shot(sample)
        calls = []

        def counting_cdf(v):
            calls.append(np.size(v))
            return normal_cdf(v)

        monkeypatch.setattr(stats, "normal_cdf", counting_cdf)
        assert ks_distance_standard_normal(sample) == expected
        assert len(calls) <= sample.size / stats._KS_SCAN + 3

    @pytest.mark.parametrize("size", [2, 1659])
    def test_nan_raises(self, size):
        sample = trial_rng(7, 5).standard_normal(size)
        sample[size // 3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            ks_distance_standard_normal(sample)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_independent_of_chunk_size(self, monkeypatch, chunk):
        # a shifted sample, so the maximum sits away from the first chunk
        sample = trial_rng(31, 0).standard_normal(1001) + 0.05
        expected = _ks_one_shot(sample)
        monkeypatch.setattr(stats, "_KS_CHUNK", chunk)
        assert ks_distance_standard_normal(sample) == expected

    def test_input_not_reordered(self):
        sample = trial_rng(5, 1).standard_normal(500)
        before = sample.copy()
        ks_distance_standard_normal(sample)
        assert (sample == before).all()

    def test_overwrite_input_sorts_in_place(self):
        sample = trial_rng(5, 2).standard_normal(3 * stats._KS_CHUNK + 5)
        expected = ks_distance_standard_normal(sample)
        assert ks_distance_standard_normal(sample, overwrite_input=True) == expected
        assert (sample[:-1] <= sample[1:]).all()


class TestSampleMoments:
    @pytest.mark.parametrize("size", [3, 1000, 65_537, 200_001])
    def test_matches_power_form(self, size):
        x = trial_rng(1618, size).standard_normal(size)
        # reference: exactly rounded sums (math.fsum) of the rounded powers
        mean = float(x.mean())
        centered = x - mean
        var = math.fsum((centered * centered).tolist()) / size
        skew = math.fsum((centered**3).tolist()) / size / var**1.5
        got_mean, got_var, got_skew = sample_moments(x)
        assert got_mean == mean
        assert abs(got_var - var) <= 2 * math.ulp(var)
        assert abs(got_skew - skew) <= 1e-15

    def test_empty_sample(self):
        with pytest.raises(ValueError, match="empty"):
            sample_moments(np.empty(0))

    def test_constant_sample(self):
        assert sample_moments(np.full(10, 2.5)) == (2.5, 0.0, 0.0)

    def test_known_skew(self):
        # two-point sample {0, 0, 3}: mean 1, var 2, third central moment 2
        mean, var, skew = sample_moments(np.array([0.0, 0.0, 3.0]))
        assert (mean, var) == (1.0, 2.0)
        assert skew == pytest.approx(2.0 / 2.0**1.5, rel=1e-15)
        assert math.isfinite(skew)


class TestPeakMemory:
    def test_moments_below_half_the_input(self):
        x = trial_rng(1618, 0).standard_normal(1_000_000)
        assert _peak_traced_bytes(sample_moments, x) < 0.5 * x.nbytes

    @pytest.mark.parametrize("workers", [1, 2])
    def test_coupling_run_holds_one_pool(self, monkeypatch, workers):
        # In-process or sharded, the trials x n float64 pool the KS test
        # needs lives in a shared anonymous mapping, which tracemalloc does
        # not see.  What it does see is this process's blocks and chunks,
        # so a second pool-sized array for the moments or the sort would
        # take the peak past half the pool.
        monkeypatch.setattr(harness, "worker_count", lambda: workers)
        monkeypatch.setattr(harness, "_MIN_WORKER_BLOCKS", 1)
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=1000, trials=1000, master_seed=42)
        pool_bytes = 8 * spec.n * spec.trials
        assert _peak_traced_bytes(run_coupling_validation, spec) < 0.5 * pool_bytes
