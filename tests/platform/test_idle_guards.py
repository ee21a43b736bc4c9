"""Worker-absence guards and cache hygiene added with the kernels layer.

Three related behaviours:

* the periodic batch trigger skips matching when no worker is available
  (mirroring ``maybe_trigger``) but still retires expired queued tasks;
* :meth:`TaskManagementComponent.retire_expired` implements that retirement
  without a batch checkout;
* a departing worker's fit leaves with his worker-table row, so churn
  cannot grow the :class:`DeadlineEstimator`'s fits unboundedly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.model.task import TaskCategory, TaskPhase
from repro.platform.policies import react_policy

from .helpers import build_server, submit


class TestPeriodicTriggerGuard:
    def test_no_batch_without_available_workers(self):
        engine, server = build_server(n_workers=0, start=True)
        submit(server, engine, deadline=90.0)
        engine.run(until=30.0)
        assert server.scheduling.batches == []
        assert server.task_management.unassigned_count == 1

    def test_queued_tasks_still_expire_without_workers(self):
        engine, server = build_server(n_workers=0, start=True)
        task = submit(server, engine, deadline=20.0)
        engine.run(until=60.0)
        # No batch ever ran, yet the lapsed task left the queue on schedule.
        assert server.scheduling.batches == []
        assert task.phase is TaskPhase.EXPIRED
        assert server.task_management.unassigned_count == 0
        assert server.metrics.expired_unassigned >= 1

    def test_batch_runs_once_a_worker_frees_up(self):
        engine, server = build_server(n_workers=1, start=True)
        submit(server, engine, deadline=500.0)
        submit(server, engine, deadline=500.0)
        engine.run(until=400.0)
        # One worker serves both tasks sequentially: the second assignment
        # needs the periodic trigger to fire after he frees up.
        assert len(server.scheduling.batches) >= 2
        assert server.metrics.completed == 2

    def test_assign_expired_policy_still_batches_expired_tasks(self):
        # With assign_expired=True lapsed tasks are still handed to the
        # matcher, so the no-worker guard must not retire them.
        engine, server = build_server(
            n_workers=0,
            policy=react_policy(batch_threshold=1, assign_expired=True),
            start=True,
        )
        task = submit(server, engine, deadline=20.0)
        engine.run(until=60.0)
        assert task.phase is TaskPhase.UNASSIGNED
        assert server.task_management.unassigned_count == 1


class TestRetireExpired:
    def test_moves_only_expired_tasks(self, make_task):
        from repro.platform.task_management import TaskManagementComponent

        tm = TaskManagementComponent()
        fresh = make_task(deadline=100.0)
        stale = make_task(deadline=10.0)
        tm.add_task(fresh)
        tm.add_task(stale)
        retired = tm.retire_expired(now=50.0)
        assert retired == [stale]
        assert stale.phase is TaskPhase.EXPIRED
        assert tm.unassigned_count == 1
        assert tm.in_flight == 1
        assert tm.get(fresh.task_id) is fresh

    def test_noop_when_nothing_expired(self, make_task):
        from repro.platform.task_management import TaskManagementComponent

        tm = TaskManagementComponent()
        tm.add_task(make_task(deadline=100.0))
        assert tm.retire_expired(now=5.0) == []
        assert tm.unassigned_count == 1


class TestFitCacheEviction:
    def _train(self, server, worker_id: int, n: int = 5) -> None:
        rng = np.random.default_rng(worker_id)
        for t in 2.0 + rng.pareto(2.0, n) * 5.0:
            server.profiling.record_completion(
                worker_id, float(t), TaskCategory.GENERIC, True
            )

    def _row_fit(self, server, worker_id: int):
        rows = server.profiling.table.rows_of([worker_id])
        server.estimator.completion_probability_matrix(rows, np.array([60.0]))
        return rows.fits[0]

    def test_deregister_evicts_cached_fit(self):
        engine, server = build_server(n_workers=3, start=False)
        self._train(server, 0)
        assert self._row_fit(server, 0) is not None
        profile = server.profiling.deregister(0)
        with pytest.raises(KeyError):
            server.profiling.table.slot(0)
        # A returning worker gets a fresh row and is refitted from his history.
        misses = server.estimator.cache_misses
        server.profiling.register(profile)
        assert server.profiling.table.fit[server.profiling.table.slot(0)] is None
        assert self._row_fit(server, 0).n_samples == 5
        assert server.estimator.cache_misses == misses + 1

    def test_remove_worker_path_evicts(self):
        engine, server = build_server(n_workers=2, start=True)
        self._train(server, 1)
        self._row_fit(server, 1)
        server.remove_worker(1)
        with pytest.raises(KeyError):
            server.profiling.table.slot(1)
        # The remaining worker's fit is untouched.
        self._train(server, 0)
        fit = self._row_fit(server, 0)
        assert self._row_fit(server, 0) is fit

    def test_evict_unknown_worker_is_noop(self):
        # A worker who never trained has no fit; his departure must not
        # raise or touch the other rows' fits.
        engine, server = build_server(n_workers=2, start=False)
        self._train(server, 0)
        fit = self._row_fit(server, 0)
        server.profiling.deregister(1)
        assert self._row_fit(server, 0) is fit
