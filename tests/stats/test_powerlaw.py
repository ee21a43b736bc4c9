"""Unit tests for the power-law machinery behind Eqs. 2-3."""

import numpy as np
import pytest

from repro.stats.powerlaw import (
    ALPHA_CAP,
    FitMethod,
    PowerLawFit,
    fit_power_law,
    ks_distance,
)


class TestPowerLawFitObject:
    def test_validation(self):
        with pytest.raises(ValueError):
            PowerLawFit(alpha=2.0, k_min=0.0, n_samples=5)
        with pytest.raises(ValueError):
            PowerLawFit(alpha=1.0, k_min=1.0, n_samples=5)
        with pytest.raises(ValueError):
            PowerLawFit(alpha=float("nan"), k_min=1.0, n_samples=5)
        with pytest.raises(ValueError):
            PowerLawFit(alpha=2.0, k_min=1.0, n_samples=0)

    def test_ccdf_at_kmin_is_one(self):
        fit = PowerLawFit(alpha=2.5, k_min=3.0, n_samples=10)
        assert fit.ccdf(3.0) == 1.0
        assert fit.ccdf(1.0) == 1.0  # head treated as "typical or faster"

    def test_ccdf_decreases(self):
        fit = PowerLawFit(alpha=2.5, k_min=1.0, n_samples=10)
        ks = np.array([1, 2, 4, 8, 16], dtype=float)
        values = fit.ccdf(ks)
        assert np.all(np.diff(values) < 0)

    def test_ccdf_known_value(self):
        # P(k) = (k/k_min)^(1-alpha); alpha=2 -> P(2)=0.5 with k_min=1
        fit = PowerLawFit(alpha=2.0, k_min=1.0, n_samples=10)
        assert fit.ccdf(2.0) == pytest.approx(0.5)
        assert fit.cdf(2.0) == pytest.approx(0.5)

    def test_quantile_inverts_cdf(self):
        fit = PowerLawFit(alpha=3.0, k_min=1.5, n_samples=10)
        qs = np.array([0.1, 0.5, 0.9])
        ks = fit.quantile(qs)
        assert np.allclose(fit.cdf(ks), qs)

    def test_quantile_bounds(self):
        fit = PowerLawFit(alpha=3.0, k_min=1.5, n_samples=10)
        with pytest.raises(ValueError):
            fit.quantile(1.0)

    def test_median_matches_quantile(self):
        fit = PowerLawFit(alpha=2.0, k_min=1.0, n_samples=10)
        assert fit.median() == pytest.approx(2.0)

    def test_mean_infinite_for_small_alpha(self):
        assert PowerLawFit(alpha=1.9, k_min=1.0, n_samples=10).mean() == float("inf")
        assert PowerLawFit(alpha=3.0, k_min=1.0, n_samples=10).mean() == pytest.approx(2.0)


class TestSampling:
    def test_samples_bounded_below_by_kmin(self, rng):
        fit = PowerLawFit(alpha=2.5, k_min=4.0, n_samples=10)
        samples = fit.sample(rng, size=1000)
        assert samples.min() >= 4.0

    def test_sample_median_matches_model(self, rng):
        fit = PowerLawFit(alpha=2.5, k_min=4.0, n_samples=10)
        samples = fit.sample(rng, size=20_000)
        assert np.median(samples) == pytest.approx(fit.median(), rel=0.05)


class TestFitting:
    def test_fit_recovers_alpha(self, rng):
        true = PowerLawFit(alpha=2.6, k_min=2.0, n_samples=1)
        samples = true.sample(rng, size=20_000)
        fit = fit_power_law(samples, method=FitMethod.CONTINUOUS)
        assert fit.alpha == pytest.approx(2.6, rel=0.05)
        assert fit.k_min == pytest.approx(samples.min())

    def test_paper_method_close_to_continuous_for_large_kmin(self, rng):
        true = PowerLawFit(alpha=2.5, k_min=20.0, n_samples=1)
        samples = true.sample(rng, size=10_000)
        paper = fit_power_law(samples, method=FitMethod.PAPER_DISCRETE)
        cont = fit_power_law(samples, method=FitMethod.CONTINUOUS)
        assert paper.alpha == pytest.approx(cont.alpha, rel=0.05)

    def test_explicit_kmin_respected(self, rng):
        samples = np.array([1.0, 2.0, 3.0, 10.0, 20.0])
        fit = fit_power_law(samples, k_min=3.0)
        assert fit.k_min == 3.0
        assert fit.n_samples == 3  # only tail samples counted

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_power_law([])

    def test_nonpositive_samples_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            fit_power_law([1.0, -2.0])

    def test_nan_sample_rejected_with_explicit_k_min(self):
        with pytest.raises(ValueError, match="positive"):
            fit_power_law([float("nan"), 2.0, 3.0], k_min=1.0)

    def test_nan_k_min_rejected(self):
        with pytest.raises(ValueError, match="k_min"):
            fit_power_law([1.0, 2.0, 3.0], k_min=float("nan"))

    def test_no_tail_samples_rejected(self):
        with pytest.raises(ValueError, match="k_min"):
            fit_power_law([1.0, 2.0], k_min=5.0)

    def test_degenerate_history_capped(self):
        """All-identical samples drive alpha to infinity; we cap it."""
        fit = fit_power_law([5.0, 5.0, 5.0], method=FitMethod.CONTINUOUS)
        assert fit.alpha == ALPHA_CAP

    def test_subunit_kmin_falls_back_to_continuous(self):
        """The paper's k_min - 1/2 shift breaks for k_min < 0.5."""
        fit = fit_power_law([0.2, 0.4, 0.8, 1.6], method=FitMethod.PAPER_DISCRETE)
        assert fit.alpha > 1.0
        assert np.isfinite(fit.alpha)

    def test_single_sample(self):
        # One observation still yields a usable (steep) fit: with the
        # paper's k_min - 1/2 shift the denominator ln(7/6.5) stays positive.
        fit = fit_power_law([7.0])
        assert fit.k_min == 7.0
        assert 1.0 < fit.alpha <= ALPHA_CAP

    def test_single_sample_continuous_capped(self):
        # The exact MLE degenerates on one sample (ln(k/k) = 0) -> capped.
        fit = fit_power_law([7.0], method=FitMethod.CONTINUOUS)
        assert fit.alpha == ALPHA_CAP


class TestGoodnessOfFit:
    def test_ks_small_for_true_power_law(self, rng):
        true = PowerLawFit(alpha=2.4, k_min=1.0, n_samples=1)
        samples = true.sample(rng, size=5_000)
        fit = fit_power_law(samples, method=FitMethod.CONTINUOUS)
        assert ks_distance(samples, fit) < 0.05

    def test_ks_large_for_uniform_data(self, rng):
        samples = rng.uniform(1.0, 2.0, size=5_000)
        fit = fit_power_law(samples, method=FitMethod.CONTINUOUS)
        assert ks_distance(samples, fit) > 0.1
