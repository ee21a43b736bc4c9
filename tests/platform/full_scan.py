"""Reference Eq. 2 monitor: a scan over every assigned task on every sweep.

Test oracle for :class:`repro.platform.dynamic_assignment.DynamicAssignmentComponent`.
This is the monitor's sweep as it was before the row index: it walks the
whole assigned pool each tick and skips rows through a per-task
crossing-time cache.  The production monitor must reach the same
withdrawals (time, task, worker, elapsed, probability) and the same
counters on any run.  :func:`monitors` swaps it into every server built
inside the block.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional

import numpy as np

from repro.model.task import Task
from repro.obs.trace import MONITOR_TRACK
from repro.platform import server as server_module
from repro.platform.dynamic_assignment import DynamicAssignmentComponent, Withdrawal


class FullScanMonitor(DynamicAssignmentComponent):
    """The Eq. 2 monitor with the full-scan sweep."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # task_id → (worker_id, observation count, assigned_at, horizon, ttd)
        self._skip_horizon: dict[int, tuple[int, int, float, float, float]] = {}
        self._skip_threshold: Optional[float] = None

    def track(self, task: Task) -> None:
        """The full scan reads the assigned pool; it keeps no row index."""

    def sweep(self, now: float) -> int:
        if self.suspended:
            return 0
        tasks = self._tasks.assigned_tasks()
        if not tasks:
            return 0
        threshold = self._policy.reassign_threshold
        if not (0.0 <= threshold <= 1.0):
            raise ValueError(f"threshold must be in [0,1], got {threshold}")

        n = len(tasks)
        get_profile = self._profiles.get
        rows_of = self._profiles.table.rows_of
        estimator = self._estimator
        cache = self._skip_horizon
        if threshold != self._skip_threshold:
            cache.clear()
            self._skip_threshold = threshold
        workers_l: List[int] = []
        row_of = [-1] * n
        eval_workers: List[int] = []
        eval_elapsed: List[float] = []
        eval_ttd: List[float] = []
        for idx, task in enumerate(tasks):
            worker_id = task.assigned_worker
            assigned_at = task.assigned_at
            assert worker_id is not None and assigned_at is not None
            workers_l.append(worker_id)
            try:
                profile = get_profile(worker_id)
            except KeyError:
                continue
            elapsed_i = now - assigned_at
            n_obs = len(profile.execution_times)
            entry = cache.get(task.task_id)
            if (
                entry is not None
                and entry[0] == worker_id
                and entry[1] == n_obs
                and entry[2] == assigned_at
            ):
                ttd_i = entry[4]
                if elapsed_i < entry[3] or ttd_i <= elapsed_i:
                    continue
            else:
                ttd_i = task.absolute_deadline - assigned_at
                if ttd_i <= elapsed_i:
                    continue
                horizon = estimator.withdrawal_skip_horizons(
                    rows_of([worker_id]), [ttd_i], threshold
                )[0]
                cache[task.task_id] = (worker_id, n_obs, assigned_at, horizon, ttd_i)
                if elapsed_i < horizon:
                    continue
            row_of[idx] = len(eval_workers)
            eval_workers.append(worker_id)
            eval_elapsed.append(elapsed_i)
            eval_ttd.append(ttd_i)

        if eval_workers:
            probs, trained = estimator.window_probability_batch(
                rows_of(eval_workers),
                np.asarray(eval_elapsed, dtype=np.float64),
                np.asarray(eval_ttd, dtype=np.float64),
            )
        else:
            probs = trained = ()

        pulled = 0
        withdrawn_workers: set[int] = set()
        for idx, task in enumerate(tasks):
            worker_id = workers_l[idx]
            if worker_id in withdrawn_workers:
                # The scalar Eq. 2 evaluation, an independent check of the
                # production monitor's one-row table re-evaluation.
                assigned_at = task.assigned_at
                assert assigned_at is not None
                elapsed_i = now - assigned_at
                estimate = estimator.window_probability(
                    get_profile(worker_id),
                    elapsed_i,
                    task.absolute_deadline - assigned_at,
                )
                if not estimate.trained or estimate.probability >= threshold:
                    continue
                probability = estimate.probability
            else:
                row = row_of[idx]
                if row < 0 or not trained[row] or probs[row] >= threshold:
                    continue
                probability = float(probs[row])
                elapsed_i = eval_elapsed[row]
            self._tasks.withdraw(task)
            self._profiles.record_withdrawal(
                worker_id, elapsed=elapsed_i, task_id=task.task_id
            )
            self.withdrawals.append(
                Withdrawal(
                    time=now,
                    task_id=task.task_id,
                    worker_id=worker_id,
                    elapsed=elapsed_i,
                    probability=probability,
                )
            )
            self._tracer.instant(
                "task.withdrawn",
                cat="task",
                tid=MONITOR_TRACK,
                task_id=task.task_id,
                worker_id=worker_id,
                reason="eq2",
                probability=round(probability, 6),
                elapsed=round(elapsed_i, 3),
            )
            withdrawn_workers.add(worker_id)
            pulled += 1
            self._on_withdraw(task)
        if len(cache) > 2 * n + 256:
            live = {task.task_id for task in tasks}
            for dead in [tid for tid in cache if tid not in live]:
                del cache[dead]
        self._obs_sweeps.inc()
        self._obs_evaluations.inc(n)
        self._obs_withdrawals.inc(pulled)
        self._tracer.instant(
            "sweep",
            cat="monitor",
            tid=MONITOR_TRACK,
            evaluated=n,
            withdrawn=pulled,
        )
        return pulled


@contextlib.contextmanager
def monitors(full_scan: bool) -> Iterator[List[DynamicAssignmentComponent]]:
    """Collect the monitor of every server built inside the block.

    With ``full_scan`` the servers get a :class:`FullScanMonitor` instead
    of the production monitor.
    """
    built: List[DynamicAssignmentComponent] = []
    cls = FullScanMonitor if full_scan else DynamicAssignmentComponent

    def factory(*args, **kwargs) -> DynamicAssignmentComponent:
        monitor = cls(*args, **kwargs)
        built.append(monitor)
        return monitor

    original = server_module.DynamicAssignmentComponent
    server_module.DynamicAssignmentComponent = factory  # type: ignore[misc]
    try:
        yield built
    finally:
        server_module.DynamicAssignmentComponent = original
