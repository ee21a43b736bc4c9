"""Unit tests for experiment configurations."""

import math

import pytest

from repro.experiments.chaos import ChaosConfig
from repro.experiments.config import (
    AblationConfig,
    EndToEndConfig,
    MatchingSweepConfig,
    ScalabilityConfig,
)


class TestMatchingSweepConfig:
    def test_paper_defaults(self):
        config = MatchingSweepConfig()
        assert config.n_workers == 1000
        assert max(config.task_counts) == 1000
        assert config.cycles_settings == (1000, 3000)

    def test_validation(self):
        with pytest.raises(ValueError):
            MatchingSweepConfig(n_workers=0)
        with pytest.raises(ValueError):
            MatchingSweepConfig(task_counts=())


class TestEndToEndConfig:
    def test_paper_defaults(self):
        config = EndToEndConfig()
        assert config.n_workers == 750
        assert config.arrival_rate == 9.375
        assert config.n_tasks == 8371
        assert config.deadline_low == 60.0
        assert config.deadline_high == 120.0

    def test_horizon(self):
        config = EndToEndConfig(n_tasks=100, arrival_rate=10.0, drain_time=50.0)
        assert config.horizon == pytest.approx(60.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_workers=0),
            dict(arrival_rate=0.0),
            dict(arrival_process="weird"),
            dict(cost_model="quantum"),
            dict(drain_time=-1.0),
            # NaN passes ``x < 0`` and ``x <= 0``, and a NaN or infinite
            # horizon never lets the simulation stop.
            dict(drain_time=math.nan),
            dict(drain_time=math.inf),
            dict(arrival_rate=math.nan),
            dict(churn_mean_session=math.nan),
            dict(churn_mean_absence=math.nan),
            dict(worker_arrival_rate=math.nan),
            dict(worker_patience=math.nan),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            EndToEndConfig(**kwargs)


class TestChaosConfig:
    @pytest.mark.parametrize("period", [0.0, math.nan])
    def test_invariant_period_must_be_positive(self, period):
        with pytest.raises(ValueError, match="invariant_period"):
            ChaosConfig(invariant_period=period)


class TestScalabilityConfig:
    def test_paper_sweep(self):
        config = ScalabilityConfig()
        assert config.worker_sizes == (100, 250, 500, 750, 1000)
        assert config.rates == (1.5, 3.125, 6.25, 9.375, 12.5)

    def test_points_scale_tasks_with_rate(self):
        config = ScalabilityConfig(
            worker_sizes=(10, 20), rates=(1.0, 2.0), duration=100.0
        )
        assert config.points() == [(10, 1.0, 100), (20, 2.0, 200)]

    def test_endtoend_config_derivation(self):
        config = ScalabilityConfig()
        derived = config.endtoend_config(100, 1.5, 1340)
        assert derived.n_workers == 100
        assert derived.arrival_rate == 1.5
        assert derived.seed == config.seed

    def test_misaligned_sweep_rejected(self):
        with pytest.raises(ValueError, match="align"):
            ScalabilityConfig(worker_sizes=(1, 2), rates=(1.0,))


class TestAblationConfig:
    def test_sweeps_non_empty(self):
        config = AblationConfig()
        assert config.cycles_sweep
        assert config.threshold_sweep
        assert config.z_sweep
        assert config.k_sweep
