"""Unit tests for worker behaviour and profiles."""

import dataclasses

import numpy as np
import pytest

from repro.model.task import TaskCategory
from repro.model.worker import WorkerBehavior, WorkerProfile
from repro.model.worker_table import CATEGORY_INDEX, WorkerTable


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
    """The per-category feedback counts behind Eq. 1, kept in the row."""

    def test_accuracy_empty_is_zero(self):
        component = _registered(WorkerProfile(worker_id=1))
        assert all(_accuracy(component, 1, category) == 0.0 for category in TaskCategory)

    def test_accuracy_ratio(self):
        component = _registered(WorkerProfile(worker_id=1))
        for positive in (True, True, False, True):
            component.complete(1, 5.0, TaskCategory.GENERIC, positive)
        history = component.history(1)
        column = CATEGORY_INDEX[TaskCategory.GENERIC]
        assert (history.positive[column], history.finished[column]) == (3, 4)
        assert _accuracy(component, 1, TaskCategory.GENERIC) == 0.75


class TestWorkerProfile:
    def test_profile_is_an_immutable_identity(self):
        profile = WorkerProfile(worker_id=1, latitude=38.0, longitude=23.7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            profile.latitude = 0.0  # type: ignore[misc]

    @pytest.mark.parametrize(
        "latitude, longitude",
        [(float("nan"), 0.0), (91.0, 0.0), (0.0, float("nan")), (0.0, -181.0)],
    )
    def test_location_is_range_checked(self, latitude, longitude):
        with pytest.raises(ValueError, match="out of range"):
            WorkerProfile(worker_id=1, latitude=latitude, longitude=longitude)

    def test_record_completion_updates_history(self):
        component = _registered(WorkerProfile(worker_id=1))
        component.complete(1, 5.0, TaskCategory.GENERIC, True)
        component.complete(1, 7.0, TaskCategory.GENERIC, False)
        assert component.history(1).execution_times == [5.0, 7.0]
        assert _accuracy(component, 1, TaskCategory.GENERIC) == 0.5

    def test_accuracy_is_per_category(self):
        component = _registered(WorkerProfile(worker_id=1))
        component.complete(1, 5.0, TaskCategory.TRAFFIC_MONITORING, True)
        component.complete(1, 5.0, TaskCategory.PRICE_CHECK, False)
        assert _accuracy(component, 1, TaskCategory.TRAFFIC_MONITORING) == 1.0
        assert _accuracy(component, 1, TaskCategory.PRICE_CHECK) == 0.0
        assert _accuracy(component, 1, TaskCategory.GENERIC) == 0.0

    def test_invalid_execution_time_rejected(self):
        component = _registered(WorkerProfile(worker_id=1))
        with pytest.raises(ValueError):
            component.complete(1, 0.0, TaskCategory.GENERIC, True)
        assert component.history(1).execution_times == []

    def test_assign_release_cycle(self):
        """A registered worker's status and assignment count live in his
        table row."""
        component = _registered(WorkerProfile(worker_id=1))
        component.assign(1, task_id=10)
        assert not component.is_free(1)
        assert component.current_task(1) == 10
        assert component.history(1).assignment_count == 1
        component.release(1)
        assert component.is_free(1)
        assert component.current_task(1) is None

    def test_double_assign_rejected(self):
        component = _registered(WorkerProfile(worker_id=1))
        component.assign(1, task_id=10)
        with pytest.raises(ValueError, match="not available"):
            component.assign(1, task_id=11)
        assert component.current_task(1) == 10
        assert component.history(1).assignment_count == 1

    def test_offline_worker_cannot_be_assigned(self):
        table = _registered(WorkerProfile(worker_id=1))
        table.set_online(1, False)
        with pytest.raises(ValueError, match="not available"):
            table.assign(1, 10)
        assert table.assignment_count[0] == 0 and table.n_available == 0

    def test_negative_task_id_rejected(self):
        """A negative task cell means free, so it cannot name a task."""
        table = _registered(WorkerProfile(worker_id=1))
        with pytest.raises(ValueError, match="negative"):
            table.assign(1, -2)
        assert table.is_free(1) and table.current_task(1) is None
        assert table.assignment_count[0] == 0 and table.n_available == 1

    def test_censored_observation_recorded(self):
        component = _registered(WorkerProfile(worker_id=1))
        component.assign(1, task_id=10)
        component.record_withdrawal(1, task_id=10, elapsed=42.0)
        assert component.history(1).execution_times == [42.0]
        assert _accuracy(component, 1, TaskCategory.GENERIC) == 0.0  # no feedback

    def test_censored_zero_elapsed_ignored(self):
        component = _registered(WorkerProfile(worker_id=1))
        component.assign(1, task_id=10)
        component.record_withdrawal(1, task_id=10, elapsed=0.0)
        assert component.history(1).execution_times == []

    def test_assignment_count_tracks_all_assignments(self):
        component = _registered(WorkerProfile(worker_id=1))
        for task in (10, 11, 12):
            component.assign(1, task)
            component.release(1)
        history = component.history(1)
        assert history.assignment_count == 3
        assert history.execution_times == []  # assignments are not completions


def _registered(profile):
    component = WorkerTable()
    component.register(profile)
    return component


def _accuracy(table, worker_id, category):
    return table.accuracy[table.slot(worker_id), CATEGORY_INDEX[category]]
