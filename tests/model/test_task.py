"""Unit tests for the Task model."""

import pytest

from repro.model.task import Task, TaskCategory, TaskPhase


class TestConstruction:
    def test_defaults(self, make_task):
        task = make_task()
        assert task.phase is TaskPhase.UNASSIGNED
        assert task.assignments == 0
        assert task.assigned_worker is None

    def test_unique_ids(self, make_task):
        a, b = make_task(), make_task()
        assert a.task_id != b.task_id

    @pytest.mark.parametrize("deadline", [0.0, -5.0, float("nan"), float("inf")])
    def test_invalid_deadline(self, deadline):
        with pytest.raises(ValueError, match="deadline"):
            Task(latitude=0, longitude=0, deadline=deadline)

    @pytest.mark.parametrize("reward", [float("nan"), float("inf")])
    def test_non_finite_reward_rejected(self, reward):
        with pytest.raises(ValueError, match="reward"):
            Task(latitude=0, longitude=0, deadline=60, reward=reward)

    @pytest.mark.parametrize("lat,lon", [(91, 0), (-91, 0), (0, 181), (0, -181)])
    def test_invalid_coordinates(self, lat, lon):
        with pytest.raises(ValueError):
            Task(latitude=lat, longitude=lon, deadline=60)

    def test_negative_reward_rejected(self):
        with pytest.raises(ValueError, match="reward"):
            Task(latitude=0, longitude=0, deadline=60, reward=-0.01)


class TestTiming:
    def test_absolute_deadline(self, make_task):
        task = make_task(deadline=90, submitted_at=10)
        assert task.absolute_deadline == 100

    def test_time_to_deadline(self, make_task):
        task = make_task(deadline=90, submitted_at=10)
        assert task.time_to_deadline(now=40) == 60
        assert task.time_to_deadline(now=110) == -10

    def test_is_expired(self, make_task):
        task = make_task(deadline=90, submitted_at=0)
        assert not task.is_expired(89.99)
        assert task.is_expired(90.01)

    def test_is_expired_boundary_matches_eq2(self, make_task):
        """Pinned convention: TTD == now is expired, matching the Eq. 2
        sweep (``ttd <= elapsed`` closes the window) and Eq. 3
        (``ttd <= 0`` gives zero completion probability)."""
        task = make_task(deadline=90, submitted_at=0)
        assert task.is_expired(90.0)

    def test_completing_exactly_at_deadline_is_on_time(self, make_task):
        task = make_task(deadline=90, submitted_at=0)
        task.mark_assigned(3, now=10.0)
        task.mark_completed(now=90.0)
        assert task.met_deadline


class TestLifecycle:
    def test_assign_complete_flow(self, make_task):
        task = make_task(deadline=90)
        task.mark_assigned(3, now=10.0)
        assert task.phase is TaskPhase.ASSIGNED
        assert task.assignments == 1
        task.mark_completed(now=20.0)
        assert task.phase is TaskPhase.COMPLETED
        assert task.met_deadline

    def test_reassignment_increments_counter(self, make_task):
        task = make_task()
        task.mark_assigned(1, now=0.0)
        task.mark_unassigned()
        assert task.phase is TaskPhase.UNASSIGNED
        assert task.assigned_worker is None
        task.mark_assigned(2, now=10.0)
        assert task.assignments == 2

    def test_cannot_assign_completed(self, make_task):
        task = make_task()
        task.mark_assigned(1, now=0.0)
        task.mark_completed(now=5.0)
        with pytest.raises(ValueError, match="finished"):
            task.mark_assigned(2, now=6.0)

    def test_cannot_complete_unassigned(self, make_task):
        with pytest.raises(ValueError, match="not assigned"):
            make_task().mark_completed(now=1.0)

    def test_cannot_unassign_unassigned(self, make_task):
        with pytest.raises(ValueError, match="not assigned"):
            make_task().mark_unassigned()


class TestOutcomes:
    def test_late_completion_misses_deadline(self, make_task):
        task = make_task(deadline=30)
        task.mark_assigned(1, now=0.0)
        task.mark_completed(now=45.0)
        assert not task.met_deadline

    def test_boundary_completion_meets_deadline(self, make_task):
        task = make_task(deadline=30)
        task.mark_assigned(1, now=0.0)
        task.mark_completed(now=30.0)
        assert task.met_deadline

    def test_total_and_worker_time(self, make_task):
        task = make_task(deadline=90, submitted_at=5.0)
        task.mark_assigned(1, now=20.0)
        task.mark_completed(now=32.0)
        assert task.total_time == 27.0
        assert task.worker_time == 12.0

    def test_times_none_before_completion(self, make_task):
        task = make_task()
        assert task.total_time is None
        assert task.worker_time is None

    def test_worker_time_reflects_final_assignment_only(self, make_task):
        """Fig. 7 counts only the final worker's execution time."""
        task = make_task(deadline=200, submitted_at=0.0)
        task.mark_assigned(1, now=0.0)
        task.mark_unassigned()
        task.mark_assigned(2, now=50.0)
        task.mark_completed(now=58.0)
        assert task.worker_time == 8.0
        assert task.total_time == 58.0


class TestCategories:
    def test_all_categories_distinct(self):
        values = [c.value for c in TaskCategory]
        assert len(values) == len(set(values))
