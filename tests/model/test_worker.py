"""Unit tests for worker behaviour and profiles."""

import numpy as np
import pytest

from repro.model.task import TaskCategory
from repro.model.worker import CategoryStats, WorkerBehavior, WorkerProfile


class TestWorkerBehaviorValidation:
    def test_min_exceeding_max_rejected(self):
        with pytest.raises(ValueError):
            WorkerBehavior(min_time=10, max_time=5, quality=0.5)

    def test_zero_min_rejected(self):
        with pytest.raises(ValueError):
            WorkerBehavior(min_time=0, max_time=5, quality=0.5)

    @pytest.mark.parametrize("q", [-0.1, 1.1])
    def test_quality_bounds(self, q):
        with pytest.raises(ValueError, match="quality"):
            WorkerBehavior(min_time=1, max_time=5, quality=q)

    def test_delay_cap_below_max_rejected(self):
        with pytest.raises(ValueError, match="delay_cap"):
            WorkerBehavior(min_time=1, max_time=20, quality=0.5, delay_cap=10)

    def test_delay_floor_outside_range_rejected(self):
        with pytest.raises(ValueError, match="delay_floor"):
            WorkerBehavior(
                min_time=1, max_time=20, quality=0.5, delay_cap=130, delay_floor=10
            )


class TestSampling:
    def test_nominal_draws_within_window(self, rng):
        behavior = WorkerBehavior(
            min_time=2, max_time=8, quality=0.5, delay_probability=0.0
        )
        draws = [behavior.sample_outcome(rng) for _ in range(200)]
        assert all(not d.abandoned for d in draws)
        assert all(2 <= d.duration <= 8 for d in draws)

    def test_always_delay_never_nominal(self, rng):
        behavior = WorkerBehavior(
            min_time=2,
            max_time=8,
            quality=0.5,
            delay_probability=1.0,
            abandon_probability=0.0,
            delay_cap=50,
        )
        draws = [behavior.sample_outcome(rng) for _ in range(200)]
        assert all(8 <= d.duration <= 50 for d in draws)

    def test_abandonment_fraction(self, rng):
        behavior = WorkerBehavior(
            min_time=2, max_time=8, quality=0.5,
            delay_probability=1.0, abandon_probability=1.0,
        )
        draws = [behavior.sample_outcome(rng) for _ in range(50)]
        assert all(d.abandoned for d in draws)
        assert all(d.duration == behavior.delay_cap for d in draws)

    def test_delay_floor_respected(self, rng):
        behavior = WorkerBehavior(
            min_time=2, max_time=8, quality=0.5,
            delay_probability=1.0, abandon_probability=0.0,
            delay_floor=100.0, delay_cap=130.0,
        )
        draws = [behavior.sample_outcome(rng) for _ in range(100)]
        assert all(100 <= d.duration <= 130 for d in draws)

    def test_mixed_fractions_approximate_probabilities(self, rng):
        behavior = WorkerBehavior(min_time=2, max_time=8, quality=0.5)
        draws = [behavior.sample_outcome(rng) for _ in range(4000)]
        abandoned = sum(d.abandoned for d in draws) / len(draws)
        delayed = sum(d.duration > 8 for d in draws) / len(draws)
        assert abandoned == pytest.approx(0.25, abs=0.05)
        assert delayed == pytest.approx(0.5, abs=0.05)

    def test_feedback_requires_on_time(self, rng):
        behavior = WorkerBehavior(min_time=1, max_time=5, quality=1.0)
        assert behavior.sample_feedback(rng, on_time=True)
        assert not behavior.sample_feedback(rng, on_time=False)

    def test_feedback_rate_matches_quality(self, rng):
        behavior = WorkerBehavior(min_time=1, max_time=5, quality=0.3)
        rate = np.mean([behavior.sample_feedback(rng, True) for _ in range(4000)])
        assert rate == pytest.approx(0.3, abs=0.05)


class TestCategoryStats:
    def test_accuracy_empty_is_zero(self):
        assert CategoryStats().accuracy == 0.0

    def test_accuracy_ratio(self):
        stats = CategoryStats()
        for positive in (True, True, False, True):
            stats.record(positive)
        assert stats.accuracy == 0.75


class TestWorkerProfile:
    def test_record_completion_updates_history(self):
        profile = WorkerProfile(worker_id=1)
        profile.record_completion(5.0, TaskCategory.GENERIC, True)
        profile.record_completion(7.0, TaskCategory.GENERIC, False)
        assert profile.completed_tasks == 2
        assert profile.accuracy(TaskCategory.GENERIC) == 0.5

    def test_accuracy_is_per_category(self):
        profile = WorkerProfile(worker_id=1)
        profile.record_completion(5.0, TaskCategory.TRAFFIC_MONITORING, True)
        profile.record_completion(5.0, TaskCategory.PRICE_CHECK, False)
        assert profile.accuracy(TaskCategory.TRAFFIC_MONITORING) == 1.0
        assert profile.accuracy(TaskCategory.PRICE_CHECK) == 0.0
        assert profile.accuracy(TaskCategory.GENERIC) == 0.0

    def test_invalid_execution_time_rejected(self):
        with pytest.raises(ValueError):
            WorkerProfile(worker_id=1).record_completion(0.0, TaskCategory.GENERIC, True)

    def test_assign_release_cycle(self):
        profile = WorkerProfile(worker_id=1)
        profile.assign(10)
        assert not profile.available
        assert profile.current_task == 10
        assert profile.assignment_count == 1
        profile.release()
        assert profile.available
        assert profile.current_task is None

    def test_double_assign_rejected(self):
        profile = WorkerProfile(worker_id=1)
        profile.assign(10)
        with pytest.raises(ValueError, match="not available"):
            profile.assign(11)

    def test_offline_worker_cannot_be_assigned(self):
        profile = WorkerProfile(worker_id=1, online=False)
        with pytest.raises(ValueError):
            profile.assign(10)

    def test_censored_observation_recorded(self):
        profile = WorkerProfile(worker_id=1)
        profile.record_censored(42.0)
        assert profile.completed_tasks == 1
        assert profile.censored_observations == 1
        assert profile.execution_times == [42.0]

    def test_censored_zero_elapsed_ignored(self):
        profile = WorkerProfile(worker_id=1)
        profile.record_censored(0.0)
        assert profile.completed_tasks == 0

    def test_assignment_count_tracks_all_assignments(self):
        profile = WorkerProfile(worker_id=1)
        for task in (10, 11, 12):
            profile.assign(task)
            profile.release()
        assert profile.assignment_count == 3
        assert profile.completed_tasks == 0  # assignments are not completions
