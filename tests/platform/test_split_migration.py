"""Tests for region splitting with worker/task migration (§V-D remedy)."""

import numpy as np
import pytest

from repro.model.region import Region
from repro.model.task import Task, TaskCategory, TaskPhase
from repro.model.worker import WorkerProfile
from repro.platform.coordinator import Coordinator
from repro.platform.cost import PaperCalibratedCost, ZeroCost
from repro.platform.policies import react_policy
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

from .helpers import reliable_behavior


def _coordinator(overload_limit=3, cost=None):
    engine = Engine()
    coordinator = Coordinator(
        engine=engine,
        policy=react_policy(batch_threshold=50, batch_period=1000.0),
        regions=[Region(0, 10, 0, 10)],
        rng=RngRegistry(seed=8),
        cost_model=cost if cost is not None else ZeroCost(),
        overload_queue_limit=overload_limit,
    )
    return engine, coordinator


def _task(lat, lon, deadline=600.0):
    return Task(latitude=lat, longitude=lon, deadline=deadline)


class TestSplitMechanics:
    def test_old_server_keeps_one_half(self):
        engine, coordinator = _coordinator()
        original = coordinator.servers[0]
        # alternate halves so the split relieves the queue evenly
        for lat in (2.0, 8.0, 2.0, 8.0, 2.0):
            coordinator.submit_task(_task(lat, 5.0))
        assert coordinator.splits_performed == 1
        assert original in coordinator.servers
        assert len(coordinator.servers) == 2

    def test_queued_tasks_migrate_to_their_half(self):
        engine, coordinator = _coordinator(overload_limit=5)
        original = coordinator.servers[0]
        # 3 tasks in the lower half, 3 in the upper half; limit 5 trips on
        # the 6th submission -> split along latitude (square region).
        for lat in (1.0, 2.0, 3.0, 7.0, 8.0, 9.0):
            coordinator.submit_task(_task(lat, 5.0))
        assert coordinator.splits_performed == 1
        new_server = next(s for s in coordinator.servers if s is not original)
        assert original.task_management.unassigned_count == 3
        assert new_server.task_management.unassigned_count == 3

    def test_received_count_preserved_across_split(self):
        engine, coordinator = _coordinator(overload_limit=4)
        for i in range(8):
            coordinator.submit_task(_task(1.0 + i, 5.0))
        summary = coordinator.aggregate_summary()
        assert summary["received"] == 8

    def test_idle_workers_migrate_by_location(self):
        engine, coordinator = _coordinator(overload_limit=3)
        original = coordinator.servers[0]
        low = WorkerProfile(worker_id=0, latitude=1.0, longitude=5.0)
        high = WorkerProfile(worker_id=1, latitude=9.0, longitude=5.0)
        coordinator.add_worker(low, reliable_behavior())
        coordinator.add_worker(high, reliable_behavior())
        for lat in (2.0, 8.0, 2.0, 8.0, 2.0):
            coordinator.submit_task(_task(lat, 5.0))
        assert coordinator.splits_performed >= 1
        new_server = next(s for s in coordinator.servers if s is not original)
        # the high-latitude worker belongs to the new (upper) half
        assert 1 in new_server.profiling
        assert 0 in original.profiling
        assert new_server.profiling.is_free(1)

    def test_busy_workers_stay_on_old_server(self):
        engine, coordinator = _coordinator(overload_limit=10)
        original = coordinator.servers[0]
        high = WorkerProfile(worker_id=1, latitude=9.0, longitude=5.0)
        coordinator.add_worker(high, reliable_behavior(min_time=50.0, max_time=60.0))
        coordinator.submit_task(_task(9.0, 5.0))
        original.scheduling.periodic_trigger(engine.now)
        engine.run(until=1.0)  # worker now busy
        assert original.profiling.current_task(1) is not None
        for _ in range(11):
            coordinator.submit_task(_task(1.0, 5.0))
        # the point load cascades (all tasks land in one ever-smaller half),
        # bounded by max_splits_per_submit
        assert 1 <= coordinator.splits_performed <= 4
        assert 1 in original.profiling  # busy worker did not migrate

    def test_migrated_tasks_complete_on_new_server(self):
        engine, coordinator = _coordinator(overload_limit=3)
        original = coordinator.servers[0]
        high = WorkerProfile(worker_id=1, latitude=9.0, longitude=5.0)
        coordinator.add_worker(high, reliable_behavior())
        tasks = [_task(8.0 + 0.2 * i, 5.0) for i in range(5)]
        for t in tasks:
            coordinator.submit_task(t)
        # all load sits in one half, so splits may cascade; the worker's
        # server (wherever worker 1 ended up) must complete migrated tasks
        assert coordinator.splits_performed >= 1
        owner = next(s for s in coordinator.servers if 1 in s.profiling)
        assert owner is not original
        # the cascade scatters the queue across the split-off regions, but
        # no task is lost and the worker's own region holds at least one
        total_queued = sum(s.task_management.unassigned_count for s in coordinator.servers)
        assert total_queued == 5
        assert owner.task_management.unassigned_count >= 1
        # fire a batch on the owning server (the test policy's threshold is
        # deliberately high so splits, not batches, drive the scenario)
        owner.scheduling.periodic_trigger(engine.now)
        engine.run(until=120.0)
        assert owner.metrics.completed >= 1
        assert any(t.phase is TaskPhase.COMPLETED for t in tasks)

    def test_batch_in_flight_survives_migration(self):
        """A worker matched by a batch who migrates before publication must
        not crash the publish path; his task rejoins the queue."""
        engine, coordinator = _coordinator(
            overload_limit=6, cost=PaperCalibratedCost(batch_overhead=5.0)
        )
        original = coordinator.servers[0]
        high = WorkerProfile(worker_id=1, latitude=9.0, longitude=5.0)
        coordinator.add_worker(high, reliable_behavior())
        task = _task(9.0, 5.0)
        coordinator.submit_task(task)
        original.scheduling.periodic_trigger(engine.now)  # batch in flight (5 s)
        engine.run(until=1.0)
        for _ in range(7):  # force a split mid-batch
            coordinator.submit_task(_task(1.0, 5.0))
        assert coordinator.splits_performed >= 1
        engine.run(until=300.0)  # publish fires; must not raise


def test_migrated_worker_keeps_history():
    """A split moves an idle worker's whole row to the child server: his
    observations, assignment count and accuracy come along, and the child's
    estimator refits him from them (one fit miss)."""
    engine, coordinator = _coordinator(overload_limit=3)
    original = coordinator.servers[0]
    coordinator.add_worker(
        WorkerProfile(worker_id=1, latitude=9.0, longitude=5.0), reliable_behavior()
    )
    for duration, positive in ((3.0, True), (4.0, False), (6.0, True), (5.0, True)):
        original.profiling.assign(1, task_id=0)
        original.profiling.complete(1, duration, TaskCategory.GENERIC, positive)
    ttd = np.array([5.0, 60.0])
    before_rows = original.profiling.rows_of([1])
    before_eq3 = original.estimator.completion_probability_matrix(before_rows, ttd)
    before = original.profiling.history(1)
    before_times = list(before.execution_times)
    before_accuracy = before_rows.accuracy(list(TaskCategory)).tolist()

    for lat in (2.0, 8.0, 2.0, 8.0, 2.0):
        coordinator.submit_task(_task(lat, 5.0))
    assert coordinator.splits_performed >= 1
    child = next(s for s in coordinator.servers if 1 in s.profiling)
    assert child is not original and 1 not in original.profiling

    after = child.profiling.history(1)
    rows = child.profiling.rows_of([1])
    assert after.execution_times == before_times
    assert int(rows.table.n_obs[rows.slots[0]]) == len(before_times) == 4
    assert after.assignment_count == before.assignment_count == 4
    assert list(after.positive) == list(before.positive)
    assert list(after.finished) == list(before.finished)
    assert rows.accuracy(list(TaskCategory)).tolist() == before_accuracy
    assert child.profiling.is_free(1)
    # The fit stayed with the old row; the child refits from the history.
    assert child.estimator.cache_misses == 0
    eq3 = child.estimator.completion_probability_matrix(rows, ttd)
    assert child.estimator.cache_misses == 1
    assert eq3.tobytes() == before_eq3.tobytes()


class TestAggregateAverages:
    def test_averages_are_weighted_not_summed(self):
        engine, coordinator = _coordinator(overload_limit=None)
        coordinator.add_worker(
            WorkerProfile(worker_id=0, latitude=5.0, longitude=5.0),
            reliable_behavior(min_time=2.0, max_time=2.0),
        )
        coordinator.submit_task(_task(5.0, 5.0))
        coordinator.servers[0].scheduling.periodic_trigger(engine.now)
        engine.run(until=60.0)
        summary = coordinator.aggregate_summary()
        # single completion of exactly 2 s: a summed average would only be
        # wrong with multiple servers, but the weighted path must return
        # the plain value here.
        assert summary["avg_worker_time"] == pytest.approx(2.0, abs=0.01)
