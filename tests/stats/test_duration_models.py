"""Tests for the pluggable duration-distribution families."""

import numpy as np
import pytest

from repro.stats.duration_models import (
    EmpiricalFamily,
    LogNormalFamily,
    PowerLawFamily,
    make_family,
)
from repro.stats.powerlaw import PowerLawFit

HISTORY = [3.0, 4.0, 5.0, 8.0, 20.0]


class TestPowerLawFamily:
    def test_returns_powerlaw_fit(self):
        fit = PowerLawFamily().fit(HISTORY)
        assert isinstance(fit, PowerLawFit)
        assert fit.k_min == 3.0


class TestEmpiricalFamily:
    def test_ccdf_matches_counts(self):
        model = EmpiricalFamily(tail_floor=0.0).fit(HISTORY)
        assert model.ccdf_scalar(0.0) == 1.0
        assert model.ccdf_scalar(3.0) == 1.0  # all samples >= 3
        assert model.ccdf_scalar(4.5) == pytest.approx(3 / 5)
        assert model.ccdf_scalar(100.0) == 0.0

    def test_tail_floor_applies_beyond_max(self):
        model = EmpiricalFamily(tail_floor=0.05).fit(HISTORY)
        assert model.ccdf_scalar(100.0) == 0.05
        # but never lifts values below the floor inside the support
        assert model.ccdf_scalar(3.0) == 1.0

    def test_ccdf_monotone(self):
        model = EmpiricalFamily().fit(HISTORY)
        ks = np.linspace(0, 50, 200)
        values = model.ccdf(ks)
        assert np.all(np.diff(values) <= 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalFamily(tail_floor=1.0)
        with pytest.raises(ValueError):
            EmpiricalFamily().fit([])
        with pytest.raises(ValueError):
            EmpiricalFamily().fit([-1.0])


class TestLogNormalFamily:
    def test_recovers_parameters(self, rng):
        mu, sigma = 2.0, 0.5
        samples = np.exp(rng.normal(mu, sigma, size=20_000))
        model = LogNormalFamily().fit(samples)
        assert model.mu == pytest.approx(mu, abs=0.02)
        assert model.sigma == pytest.approx(sigma, abs=0.02)

    def test_ccdf_median_is_half(self):
        model = LogNormalFamily().fit(HISTORY)
        median = float(np.exp(model.mu))
        assert model.ccdf_scalar(median) == pytest.approx(0.5, abs=1e-9)

    def test_ccdf_bounds_and_monotone(self):
        model = LogNormalFamily().fit(HISTORY)
        ks = np.linspace(0, 100, 300)
        values = model.ccdf(ks)
        assert np.all((values >= 0) & (values <= 1))
        assert np.all(np.diff(values) <= 1e-12)

    def test_degenerate_history_sigma_floored(self):
        model = LogNormalFamily(min_sigma=0.05).fit([5.0, 5.0, 5.0])
        assert model.sigma == 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            LogNormalFamily(min_sigma=0.0)
        with pytest.raises(ValueError):
            LogNormalFamily().fit([])


class TestFactory:
    @pytest.mark.parametrize("name", ["power-law", "empirical", "lognormal"])
    def test_known_names(self, name):
        family = make_family(name)
        model = family.fit(HISTORY)
        # every family exposes the vectorized ccdf the estimator consumes
        value = float(np.asarray(model.ccdf(np.array([10.0])))[0])
        assert 0.0 <= value <= 1.0

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_family("weibull")


class TestEstimatorIntegration:
    def test_estimator_with_empirical_family(self):
        from repro.core.deadline import DeadlineEstimator

        history = [5.0, 6.0, 7.0]
        estimator = DeadlineEstimator(min_history=3, family=EmpiricalFamily(0.0))
        # all history <= 7: a 10 s deadline is "certain" empirically
        assert estimator.completion_probability(history, 10.0).probability == 1.0
        # and a 4 s deadline keeps Pr(D < 4) = 0 (all samples >= 5)
        assert estimator.completion_probability(history, 4.0).probability == 0.0

    def test_policy_rejects_unknown_model(self):
        from repro.platform.policies import react_policy

        with pytest.raises(ValueError, match="duration_model"):
            react_policy(duration_model="weibull")

    def test_server_end_to_end_with_each_family(self):
        from repro.experiments.config import EndToEndConfig
        from repro.experiments.endtoend import run_endtoend
        from repro.platform.policies import react_policy

        config = EndToEndConfig(
            n_workers=30, arrival_rate=0.3, n_tasks=60, drain_time=300
        )
        for model in ("power-law", "empirical", "lognormal"):
            result = run_endtoend(react_policy(duration_model=model), config)
            result.metrics.check_conservation()
            assert result.summary["completed"] > 0
