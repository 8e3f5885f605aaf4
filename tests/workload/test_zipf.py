"""Tests for the Zipf popularity model, including hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ZipfPopularity
from repro.errors import WorkloadError


def _top_tenth_mass(z):
    """Probability mass of the most popular tenth of the titles."""
    return float(z.pmf[: max(1, round(z.n_items * 0.1))].sum())


class TestZipfBasics:
    def test_pmf_sums_to_one(self):
        z = ZipfPopularity(500, 0.271)
        assert z.pmf.sum() == pytest.approx(1.0)

    def test_pmf_decreasing(self):
        z = ZipfPopularity(100, 0.271)
        assert all(z.pmf[i] >= z.pmf[i + 1] for i in range(99))

    def test_alpha_one_is_uniform(self):
        z = ZipfPopularity(10, 1.0)
        assert np.allclose(z.pmf, 0.1)

    def test_alpha_zero_is_classic_zipf(self):
        z = ZipfPopularity(3, 0.0)
        h = 1 + 0.5 + 1 / 3
        assert z.probability(0) == pytest.approx(1 / h)
        assert z.probability(2) == pytest.approx(1 / 3 / h)

    def test_larger_alpha_less_biased(self):
        """The paper's convention: larger alpha = flatter distribution."""
        skews = [
            _top_tenth_mass(ZipfPopularity(500, a))
            for a in (0.1, 0.271, 0.5, 0.7)
        ]
        assert skews == sorted(skews, reverse=True)

    def test_rental_pattern_concentration(self):
        """alpha=0.271 over 500 titles: top 10% draws over half the mass."""
        z = ZipfPopularity(500, 0.271)
        assert 0.45 < _top_tenth_mass(z) < 0.70

    def test_probability_bounds_check(self):
        z = ZipfPopularity(5, 0.5)
        with pytest.raises(WorkloadError):
            z.probability(5)

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            ZipfPopularity(0, 0.5)
        with pytest.raises(WorkloadError):
            ZipfPopularity(10, -0.1)
        with pytest.raises(WorkloadError):
            ZipfPopularity(10, 1.1)

    def test_pmf_readonly(self):
        z = ZipfPopularity(5, 0.5)
        with pytest.raises(ValueError):
            z.pmf[0] = 1.0


class TestZipfSampling:
    def test_deterministic_under_seed(self):
        z = ZipfPopularity(100, 0.271)
        a = z.sample(1000, np.random.default_rng(5))
        b = z.sample(1000, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_sample_range(self):
        z = ZipfPopularity(50, 0.3)
        s = z.sample(5000, np.random.default_rng(0))
        assert s.min() >= 0 and s.max() < 50

    def test_empirical_matches_pmf(self):
        z = ZipfPopularity(20, 0.271)
        s = z.sample(200_000, np.random.default_rng(1))
        freq = np.bincount(s, minlength=20) / len(s)
        assert np.allclose(freq, z.pmf, atol=0.01)

    def test_zero_samples(self):
        z = ZipfPopularity(10, 0.5)
        assert z.sample(0, np.random.default_rng(0)).size == 0

    def test_negative_samples_rejected(self):
        z = ZipfPopularity(10, 0.5)
        with pytest.raises(WorkloadError):
            z.sample(-1, np.random.default_rng(0))


class TestZipfProperties:
    @given(
        n=st.integers(min_value=1, max_value=300),
        alpha=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_pmf_valid_distribution(self, n, alpha):
        z = ZipfPopularity(n, alpha)
        assert z.pmf.shape == (n,)
        assert abs(float(z.pmf.sum()) - 1.0) < 1e-9
        assert (z.pmf >= 0).all()

    @given(
        n=st.integers(min_value=2, max_value=200),
        alpha=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_nonincreasing(self, n, alpha):
        z = ZipfPopularity(n, alpha)
        diffs = np.diff(z.pmf)
        assert (diffs <= 1e-15).all()

    @given(
        n=st.integers(min_value=1, max_value=100),
        alpha=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_samples_in_range(self, n, alpha, seed):
        z = ZipfPopularity(n, alpha)
        s = z.sample(200, np.random.default_rng(seed))
        assert ((s >= 0) & (s < n)).all()
