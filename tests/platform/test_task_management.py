"""Unit tests for the Task Management Component."""

import pytest

from repro.platform.task_management import TaskManagementComponent


@pytest.fixture
def component():
    return TaskManagementComponent()


class TestIntake:
    def test_add_task(self, component, make_task):
        task = make_task()
        component.add_task(task)
        assert component.unassigned_count == 1
        assert component.get(task.task_id) is task

    def test_duplicate_rejected(self, component, make_task):
        task = make_task()
        component.add_task(task)
        with pytest.raises(ValueError, match="already known"):
            component.add_task(task)

    def test_assigned_task_rejected(self, component, make_task):
        task = make_task()
        task.mark_assigned(1, now=0.0)
        with pytest.raises(ValueError, match="not unassigned"):
            component.add_task(task)

    def test_unknown_task_lookup(self, component):
        with pytest.raises(KeyError):
            component.get(999)


class TestBatchCheckout:
    def test_checkout_moves_all_unassigned(self, component, make_task):
        tasks = [make_task() for _ in range(3)]
        for t in tasks:
            component.add_task(t)
        batch, retired = component.checkout_batch(now=0.0, assign_expired=False)
        assert batch == tasks
        assert retired == []
        assert component.unassigned_count == 0
        assert component.in_flight == 3

    def test_checkout_retires_expired(self, component, make_task):
        fresh = make_task(deadline=100.0)
        stale = make_task(deadline=10.0)
        component.add_task(fresh)
        component.add_task(stale)
        batch, retired = component.checkout_batch(now=50.0, assign_expired=False)
        assert batch == [fresh]
        assert retired == [stale]
        assert component.in_flight == 1  # fresh, checked out
        assert component.get(stale.task_id) is stale

    def test_checkout_retires_at_exact_deadline(self, component, make_task):
        """Boundary convention: TTD == now is expired (same as the Eq. 2
        sweep closing the window at ``ttd <= elapsed``)."""
        boundary = make_task(deadline=50.0, submitted_at=0.0)
        component.add_task(boundary)
        batch, retired = component.checkout_batch(now=50.0, assign_expired=False)
        assert batch == []
        assert retired == [boundary]

    def test_retire_expired_at_exact_deadline(self, component, make_task):
        boundary = make_task(deadline=50.0, submitted_at=0.0)
        fresh = make_task(deadline=50.001, submitted_at=0.0)
        component.add_task(boundary)
        component.add_task(fresh)
        retired = component.retire_expired(now=50.0)
        assert retired == [boundary]
        assert component.unassigned_count == 1

    def test_checkout_keeps_expired_when_assigning_expired(self, component, make_task):
        stale = make_task(deadline=10.0)
        component.add_task(stale)
        batch, retired = component.checkout_batch(now=50.0, assign_expired=True)
        assert batch == [stale]
        assert retired == []

    def test_commit_assignment(self, component, make_task):
        task = make_task()
        component.add_task(task)
        batch, _ = component.checkout_batch(now=0.0, assign_expired=False)
        component.commit_assignment(batch[0], worker_id=7, now=1.0)
        assert component.assigned_count == 1
        assert task.assigned_worker == 7

    def test_return_unmatched(self, component, make_task):
        task = make_task()
        component.add_task(task)
        batch, _ = component.checkout_batch(now=0.0, assign_expired=False)
        component.return_unmatched(batch[0])
        assert component.unassigned_count == 1

    def test_commit_without_checkout_rejected(self, component, make_task):
        task = make_task()
        component.add_task(task)
        with pytest.raises(ValueError, match="not checked out"):
            component.commit_assignment(task, worker_id=1, now=0.0)


class TestLifecycle:
    def _assigned_task(self, component, make_task):
        task = make_task()
        component.add_task(task)
        batch, _ = component.checkout_batch(now=0.0, assign_expired=False)
        component.commit_assignment(batch[0], worker_id=1, now=0.0)
        return task

    def test_complete(self, component, make_task):
        task = self._assigned_task(component, make_task)
        component.complete(task, now=5.0)
        assert component.in_flight == 0
        assert component.get(task.task_id) is task
        assert component.assigned_count == 0
        assert task.completed_at == 5.0

    def test_withdraw_returns_to_queue(self, component, make_task):
        task = self._assigned_task(component, make_task)
        component.withdraw(task)
        assert component.unassigned_count == 1
        assert component.assigned_count == 0
        assert task.assigned_worker is None

    def test_complete_unassigned_rejected(self, component, make_task):
        task = make_task()
        component.add_task(task)
        with pytest.raises(ValueError):
            component.complete(task, now=1.0)

    def test_withdraw_unassigned_rejected(self, component, make_task):
        task = make_task()
        component.add_task(task)
        with pytest.raises(ValueError):
            component.withdraw(task)

    def test_iteration_covers_all_pools(self, component, make_task):
        queued = make_task()
        running = self._assigned_task(component, make_task)
        done = self._assigned_task(component, make_task)
        component.complete(done, now=2.0)
        component.add_task(queued)
        ids = {t.task_id for t in component}
        assert ids == {queued.task_id, running.task_id, done.task_id}

    def test_in_flight_counts_batch_and_assigned(self, component, make_task):
        a, b = make_task(), make_task()
        component.add_task(a)
        component.add_task(b)
        batch, _ = component.checkout_batch(now=0.0, assign_expired=False)
        component.commit_assignment(batch[0], worker_id=1, now=0.0)
        # one assigned + one returned to batch pool
        assert component.in_flight == 2
