"""Profiling Component (§III-A).

"Responsible to keep track of the workers' information and statistics": for
every registered worker it maintains geographic location, availability
status, completion times and per-category feedback accuracy.  This is the
*platform-observable* worker state — the latent ground-truth behaviour lives
with the simulator (:mod:`repro.model.worker`), never here.

The component is the only writer of a registered worker's state, which
lives in one place: his row of the columnar
:class:`~repro.model.worker_table.WorkerTable` (status, history and
location; the :class:`~repro.model.worker.WorkerProfile` it was registered
with is an immutable identity).  A departing worker's history is handed
back as a :class:`~repro.model.worker_table.WorkerHistory`, so a churn
return or a split migration can continue it in a new row.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

import numpy as np

from ..model.task import TaskCategory
from ..model.worker import WorkerProfile
from ..model.worker_table import WorkerHistory, WorkerTable


class ProfilingComponent:
    """Registry of the workers of one REACT server's region."""

    def __init__(self) -> None:
        #: One row per registered worker, in registration order.
        self.table = WorkerTable()
        #: Chaos hook (:class:`repro.chaos.StaleProfileFault`): maps a raw
        #: ``(worker_id, execution_time)`` observation to the value actually
        #: stored, letting fault injection feed the profiler stale or
        #: corrupted measurements without touching the true outcome.
        self.observation_hook: Optional[Callable[[int, float], float]] = None
        self._profile_hooks: List[Callable[[int], None]] = []

    # ---------------------------------------------------------- membership
    def register(
        self, profile: WorkerProfile, history: Optional[WorkerHistory] = None
    ) -> None:
        """Register a worker, continuing ``history`` if given; he starts
        online and free."""
        if profile.worker_id in self.table:
            raise ValueError(f"worker {profile.worker_id} is already registered")
        self.table.append(profile, history)
        self._changed(profile.worker_id)

    def add_profile_hook(self, hook: Callable[[int], None]) -> None:
        """Subscribe to a worker (re-)registering or his history growing.

        This component is the only writer of duration observations, so the
        hook sees every change to the input of a worker's duration fit.  The
        Eq. 2 monitor uses it to recompute the withdrawal horizons of the
        worker's assigned tasks (a churn worker may return with his history).
        """
        self._profile_hooks.append(hook)

    def _changed(self, worker_id: int) -> None:
        for hook in self._profile_hooks:
            hook(worker_id)

    def deregister(self, worker_id: int) -> WorkerHistory:
        """Remove a worker (churn); raises ``KeyError`` if unknown.

        His table row, and with it his fitted duration model, goes; his
        history is returned.
        """
        return self.table.remove(worker_id)

    def __contains__(self, worker_id: int) -> bool:
        return worker_id in self.table

    def __len__(self) -> int:
        return len(self.table)

    def __iter__(self) -> Iterator[int]:
        """Registered worker ids, in registration order."""
        return iter(self.table)

    # ------------------------------------------------------------- queries
    def available_workers(self) -> np.ndarray:
        """Table slots of the workers that are online and not executing a
        task, in registration order so batch construction is deterministic.

        Slots stay valid until the next registration change; resolve them
        with ``table.rows`` right away.
        """
        return self.table.available_slots()

    @property
    def available_count(self) -> int:
        """How many workers are online and free (a maintained count)."""
        return self.table.n_available

    def any_available(self) -> bool:
        """Whether at least one worker is online and free (the batch guard)."""
        return self.table.n_available > 0

    def current_task(self, worker_id: int) -> Optional[int]:
        """The task the worker is executing; None if idle or not registered."""
        return self.table.current_task(worker_id)

    def is_online(self, worker_id: int) -> bool:
        """Whether the worker is registered and online."""
        return self.table.is_online(worker_id)

    def is_free(self, worker_id: int) -> bool:
        """Whether the worker is registered, online and not executing a task."""
        return self.table.is_free(worker_id)

    # ------------------------------------------------------------- updates
    def record_assignment(self, worker_id: int, task_id: int) -> None:
        """The worker took ``task_id``; raises ``ValueError`` unless he is
        online and free."""
        self.table.assign(worker_id, task_id)

    def set_online(self, worker_id: int, online: bool) -> None:
        """A registered worker goes offline (held, departing) or back online."""
        self.table.set_online(worker_id, online)

    def release(self, worker_id: int) -> None:
        """The worker is free again without returning a result (walk-away)."""
        self.table.release(worker_id)

    def record_completion(
        self,
        worker_id: int,
        execution_time: float,
        category: TaskCategory,
        positive_feedback: bool,
    ) -> None:
        """Store a finished task's stats and free the worker."""
        if self.observation_hook is not None:
            execution_time = self.observation_hook(worker_id, execution_time)
        if execution_time <= 0:
            raise ValueError(f"execution_time must be positive, got {execution_time}")
        self.table.complete(worker_id, float(execution_time), category, positive_feedback)
        self._changed(worker_id)

    def _censor(self, worker_id: int, elapsed: float) -> None:
        """Fold a censored hold time into the history (a no-op for ``elapsed <= 0``)."""
        if elapsed > 0:
            self.table.censor(worker_id, float(elapsed))
            self._changed(worker_id)

    def record_withdrawal(self, worker_id: int, task_id: int, elapsed: float) -> None:
        """The platform pulled the worker's task after ``elapsed`` seconds.

        The elapsed hold time enters the history as a *censored* duration
        observation (the worker takes at least that long), so chronic
        dawdlers accumulate a heavy-tailed history and Eq. 3 stops routing
        tasks to them.  The worker is released at once: the platform
        controls its own availability flag, and his censored history
        already steers Eq. 3 / Eq. 1 away from him.

        ``task_id`` identifies *which* task was withdrawn.  The worker is
        only released when his row still claims that very task: a
        worker who silently abandoned it was already released at his
        sampled walk-away time and may since have been matched to a *newer*
        task — blindly releasing would kick him off the task he is actually
        executing, making him matchable a second time while the newer task
        is still assigned to him (the completion/withdrawal generation-stamp
        race; see ``tests/chaos/test_generation_stamp_race.py``).
        """
        self._censor(worker_id, elapsed)
        if self.current_task(worker_id) == task_id:
            self.release(worker_id)

    def record_expiry(self, worker_id: int, task_id: int, elapsed: float) -> None:
        """The deadline lapsed while ``task_id`` was out with the worker.

        Unlike :meth:`record_withdrawal`, the hold time is censored only
        while the worker still claims that task: an abandoner who walked
        away was already released at his walk-away time, and a worker who
        departed is no longer registered — neither has a hold to record.
        The worker is released, as on a withdrawal.
        """
        if self.current_task(worker_id) != task_id:
            return
        self._censor(worker_id, elapsed)
        self.release(worker_id)

    # ------------------------------------------------------------ summary
    def trained_count(self, min_history: int) -> int:
        table = self.table
        return int(np.count_nonzero(table.n_obs[table.live_slots()] >= min_history))
