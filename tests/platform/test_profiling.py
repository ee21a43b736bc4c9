"""Unit tests for the Profiling Component: the worker table's membership,
status and history rules."""

import math

import pytest

from repro.model.task import TaskCategory
from repro.model.worker import WorkerProfile
from repro.model.worker_table import WorkerTable


@pytest.fixture
def component():
    comp = WorkerTable()
    for i in range(3):
        comp.register(WorkerProfile(worker_id=i))
    return comp


class TestMembership:
    def test_register_and_lookup(self, component):
        assert len(component) == 3
        assert 1 in component
        assert list(component) == [0, 1, 2]

    def test_duplicate_registration_rejected(self, component):
        with pytest.raises(ValueError, match="already registered"):
            component.register(WorkerProfile(worker_id=1))

    def test_deregister(self, component):
        component.deregister(1)
        assert 1 not in component
        with pytest.raises(KeyError):
            component.deregister(1)


def _available_ids(component):
    return component.rows(component.available_slots()).worker_ids.tolist()


class TestAvailability:
    def test_available_workers_order_stable(self, component):
        assert _available_ids(component) == [0, 1, 2]

    def test_assignment_removes_from_available(self, component):
        component.assign(1, task_id=10)
        assert _available_ids(component) == [0, 2]
        assert component.n_available == 2
        assert not component.is_free(1)

    def test_offline_excluded(self, component):
        component.set_online(0, False)
        assert not component.is_online(0) and not component.is_free(0)
        assert _available_ids(component) == [1, 2]
        assert component.n_available == 2


class TestCompletionRecording:
    def test_completion_frees_and_records(self, component):
        component.assign(1, task_id=10)
        component.complete(
            1, execution_time=5.0, category=TaskCategory.GENERIC, positive_feedback=True
        )
        history = component.history(1)
        assert component.is_free(1)
        assert history.execution_times == [5.0]
        assert component.rows_of([1]).accuracy([TaskCategory.GENERIC])[0, 0] == 1.0

    @pytest.mark.parametrize("duration", [0.0, -1.0, math.nan, math.inf])
    def test_non_finite_or_non_positive_duration_rejected(self, component, duration):
        component.assign(1, task_id=10)
        with pytest.raises(ValueError, match="finite and positive"):
            component.complete(1, duration, TaskCategory.GENERIC, True)
        assert component.history(1).execution_times == []
        assert component.current_task(1) == 10

    def test_observation_hook_output_is_checked(self, component):
        component.observation_hook = lambda worker_id, duration: math.nan
        with pytest.raises(ValueError, match="finite and positive"):
            component.complete(1, 5.0, TaskCategory.GENERIC, True)
        assert component.history(1).execution_times == []

    def test_trained_count(self, component):
        for _ in range(3):
            component.assign(2, task_id=1)
            component.complete(2, 5.0, TaskCategory.GENERIC, True)
        assert component.trained_count(min_history=3) == 1
        assert component.trained_count(min_history=4) == 0


class TestWithdrawal:
    def test_withdrawal_records_censored_observation(self, component):
        component.assign(1, task_id=10)
        component.record_withdrawal(1, task_id=10, elapsed=42.0)
        history = component.history(1)
        assert history.execution_times == [42.0]
        assert sum(history.finished) == 0  # censored: no feedback
        assert component.current_task(1) is None

    def test_withdrawal_with_release(self, component):
        component.assign(1, task_id=10)
        component.record_withdrawal(1, task_id=10, elapsed=42.0)
        assert component.is_free(1)
        assert component.n_available == 3


class TestExpiry:
    def test_expiry_censors_and_detaches_the_current_task(self, component):
        component.assign(1, task_id=10)
        component.record_expiry(1, task_id=10, elapsed=60.0)
        history = component.history(1)
        assert history.execution_times == [60.0]
        assert sum(history.finished) == 0  # censored: no feedback
        assert component.current_task(1) is None

    def test_expiry_with_release(self, component):
        component.assign(1, task_id=10)
        component.record_expiry(1, task_id=10, elapsed=60.0)
        assert component.is_free(1)
        assert component.n_available == 3

    def test_expiry_of_a_task_the_worker_no_longer_holds_records_nothing(self, component):
        # He walked away from task 10 and was re-matched to task 11.
        component.assign(1, task_id=10)
        component.release(1)
        component.assign(1, task_id=11)
        component.record_expiry(1, task_id=10, elapsed=60.0)
        assert component.history(1).execution_times == []
        assert component.current_task(1) == 11
        assert not component.is_free(1)

    def test_expiry_for_a_departed_worker_is_a_noop(self, component):
        component.record_expiry(999, task_id=10, elapsed=60.0)


class TestStatusReads:
    def test_unregistered_worker_is_neither_busy_nor_free(self, component):
        component.assign(1, task_id=10)
        component.deregister(1)
        assert component.current_task(1) is None
        assert not component.is_free(1) and not component.is_online(1)

    def test_returning_worker_starts_online_and_free(self, component):
        component.assign(1, task_id=10)
        component.set_online(1, False)
        history = component.deregister(1)
        component.register(WorkerProfile(worker_id=1), history)
        assert component.is_free(1)
        assert component.history(1).assignment_count == 1  # history carried over


class TestProfileHooks:
    def test_hook_sees_registration_and_every_history_growth(self, component):
        seen = []
        component.add_profile_hook(seen.append)
        component.register(WorkerProfile(worker_id=7))
        component.assign(7, task_id=1)
        component.complete(7, 5.0, TaskCategory.GENERIC, True)
        component.assign(7, task_id=2)
        component.record_withdrawal(7, elapsed=30.0, task_id=2)
        component.assign(7, task_id=3)
        component.record_expiry(7, task_id=3, elapsed=40.0)
        assert seen == [7, 7, 7, 7]

    def test_hook_silent_when_nothing_is_recorded(self, component):
        seen = []
        component.add_profile_hook(seen.append)
        component.assign(1, task_id=10)
        component.record_withdrawal(1, elapsed=0.0, task_id=10)
        component.record_expiry(1, task_id=10, elapsed=5.0)
        assert seen == []

