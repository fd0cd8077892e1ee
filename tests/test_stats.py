"""Pooled statistics: the chunked KS distance and the chunked moment triple."""

import math
import tracemalloc

import numpy as np
import pytest

from parityshift import stats
from parityshift.harness import ExperimentSpec, run_coupling_validation, trial_rng
from parityshift.stats import ks_distance_standard_normal, sample_moments


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


def _ks_one_shot(sample: np.ndarray) -> float:
    # the whole-array formula the chunked evaluation replaces
    s = np.sort(sample)
    n = s.size
    cdf = stats.ndtr(s)
    steps = np.arange(1, n + 1, dtype=np.float64) / n
    return max(float(np.max(steps - cdf)), float(np.max(cdf - (steps - 1.0 / n))))


class TestKsChunks:
    @pytest.mark.parametrize("size", [1, 2, 1000, 3 * stats._KS_CHUNK + 123])
    def test_bit_identical_to_one_shot(self, size):
        sample = trial_rng(2718, size).standard_normal(size)
        assert ks_distance_standard_normal(sample) == _ks_one_shot(sample)

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

    def test_coupling_run_holds_one_pool(self):
        # the trials x n float64 pool the KS test needs, plus blocks and
        # chunks; no second pool-sized array for the moments or the sort
        spec = ExperimentSpec(regime="fixed_a", a=2.0, n=1000, trials=1000, master_seed=42)
        pool_bytes = 8 * spec.n * spec.trials
        assert _peak_traced_bytes(run_coupling_validation, spec) < 1.5 * pool_bytes
