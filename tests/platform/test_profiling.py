"""Unit tests for the Profiling Component."""

import pytest

from repro.model.task import TaskCategory
from repro.model.worker import WorkerProfile
from repro.platform.profiling import ProfilingComponent


@pytest.fixture
def component():
    comp = ProfilingComponent()
    for i in range(3):
        comp.register(WorkerProfile(worker_id=i))
    return comp


class TestMembership:
    def test_register_and_lookup(self, component):
        assert len(component) == 3
        assert 1 in component
        assert component.get(1).worker_id == 1

    def test_duplicate_registration_rejected(self, component):
        with pytest.raises(ValueError, match="already registered"):
            component.register(WorkerProfile(worker_id=1))

    def test_deregister(self, component):
        component.deregister(1)
        assert 1 not in component
        with pytest.raises(KeyError):
            component.deregister(1)


def _available_ids(component):
    return component.table.rows(component.available_workers()).worker_ids.tolist()


class TestAvailability:
    def test_available_workers_order_stable(self, component):
        assert _available_ids(component) == [0, 1, 2]

    def test_assignment_removes_from_available(self, component):
        component.record_assignment(1, task_id=10)
        assert _available_ids(component) == [0, 2]
        assert component.available_count == 2
        assert not component.get(1).available

    def test_offline_excluded(self, component):
        component.set_online(0, False)
        assert not component.get(0).online
        assert _available_ids(component) == [1, 2]
        assert component.available_count == 2


class TestCompletionRecording:
    def test_completion_frees_and_records(self, component):
        component.record_assignment(1, task_id=10)
        component.record_completion(
            1, execution_time=5.0, category=TaskCategory.GENERIC, positive_feedback=True
        )
        profile = component.get(1)
        assert profile.available
        assert profile.completed_tasks == 1
        assert profile.accuracy(TaskCategory.GENERIC) == 1.0

    def test_trained_count(self, component):
        for _ in range(3):
            component.record_assignment(2, task_id=1)
            component.record_completion(2, 5.0, TaskCategory.GENERIC, True)
        assert component.trained_count(min_history=3) == 1
        assert component.trained_count(min_history=4) == 0


class TestWithdrawal:
    def test_withdrawal_records_censored_observation(self, component):
        component.record_assignment(1, task_id=10)
        component.record_withdrawal(1, task_id=10, elapsed=42.0)
        profile = component.get(1)
        assert profile.censored_observations == 1
        assert profile.execution_times == [42.0]
        assert profile.current_task is None

    def test_withdrawal_with_release(self, component):
        component.record_assignment(1, task_id=10)
        component.record_withdrawal(1, task_id=10, elapsed=42.0)
        assert component.get(1).available
        assert component.available_count == 3


class TestExpiry:
    def test_expiry_censors_and_detaches_the_current_task(self, component):
        component.record_assignment(1, task_id=10)
        component.record_expiry(1, task_id=10, elapsed=60.0)
        profile = component.get(1)
        assert profile.execution_times == [60.0]
        assert profile.censored_observations == 1
        assert profile.current_task is None

    def test_expiry_with_release(self, component):
        component.record_assignment(1, task_id=10)
        component.record_expiry(1, task_id=10, elapsed=60.0)
        assert component.get(1).available
        assert component.available_count == 3

    def test_expiry_of_a_task_the_worker_no_longer_holds_records_nothing(self, component):
        # He walked away from task 10 and was re-matched to task 11.
        component.record_assignment(1, task_id=10)
        component.get(1).release()
        component.record_assignment(1, task_id=11)
        component.record_expiry(1, task_id=10, elapsed=60.0)
        profile = component.get(1)
        assert profile.execution_times == []
        assert profile.current_task == 11
        assert not profile.available

    def test_expiry_for_a_departed_worker_is_a_noop(self, component):
        component.record_expiry(999, task_id=10, elapsed=60.0)


class TestProfileHooks:
    def test_hook_sees_registration_and_every_history_growth(self, component):
        seen = []
        component.add_profile_hook(seen.append)
        component.register(WorkerProfile(worker_id=7))
        component.record_assignment(7, task_id=1)
        component.record_completion(7, 5.0, TaskCategory.GENERIC, True)
        component.record_assignment(7, task_id=2)
        component.record_withdrawal(7, elapsed=30.0, task_id=2)
        component.record_assignment(7, task_id=3)
        component.record_expiry(7, task_id=3, elapsed=40.0)
        assert seen == [7, 7, 7, 7]

    def test_hook_silent_when_nothing_is_recorded(self, component):
        seen = []
        component.add_profile_hook(seen.append)
        component.record_assignment(1, task_id=10)
        component.record_withdrawal(1, elapsed=0.0, task_id=10)
        component.record_expiry(1, task_id=10, elapsed=5.0)
        assert seen == []

