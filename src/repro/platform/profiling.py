"""Profiling Component (§III-A).

"Responsible to keep track of the workers' information and statistics": for
every registered worker it maintains geographic location, availability
status, completion times and per-category feedback accuracy.  This is the
*platform-observable* worker state — the latent ground-truth behaviour lives
with the simulator (:mod:`repro.model.worker`), never here.

The component is the only writer of a registered worker's state.  His
status (online, current task) lives only in his row of the columnar
:class:`~repro.model.worker_table.WorkerTable`; each history update writes
the :class:`~repro.model.worker.WorkerProfile` and the row together, so
batch construction can read the table instead of walking the profiles.  A
registered profile must not be written directly: the invariant audit (I8
in :mod:`repro.platform.invariants`) reports the drift.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from ..model.task import TaskCategory
from ..model.worker import WorkerProfile
from ..model.worker_table import WorkerTable


class ProfilingComponent:
    """Registry of worker profiles for one REACT server's region."""

    def __init__(self) -> None:
        self._profiles: Dict[int, WorkerProfile] = {}
        #: Columnar mirror of the registered profiles (registration order).
        self.table = WorkerTable()
        #: Chaos hook (:class:`repro.chaos.StaleProfileFault`): maps a raw
        #: ``(worker_id, execution_time)`` observation to the value actually
        #: stored, letting fault injection feed the profiler stale or
        #: corrupted measurements without touching the true outcome.
        self.observation_hook: Optional[Callable[[int, float], float]] = None
        self._profile_hooks: List[Callable[[int], None]] = []

    # ---------------------------------------------------------- membership
    def register(self, profile: WorkerProfile) -> None:
        """Register a worker; he starts online and free."""
        if profile.worker_id in self._profiles:
            raise ValueError(f"worker {profile.worker_id} is already registered")
        self._profiles[profile.worker_id] = profile
        self.table.append(profile)
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

    def deregister(self, worker_id: int) -> WorkerProfile:
        """Remove a worker (churn); raises ``KeyError`` if unknown.

        His table row, and with it his fitted duration model, goes too.
        """
        profile = self._profiles.pop(worker_id)
        self.table.remove(worker_id)
        return profile

    def get(self, worker_id: int) -> WorkerProfile:
        return self._profiles[worker_id]

    def __contains__(self, worker_id: int) -> bool:
        return worker_id in self._profiles

    def __len__(self) -> int:
        return len(self._profiles)

    def __iter__(self) -> Iterator[WorkerProfile]:
        return iter(self._profiles.values())

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
        self._profiles[worker_id].assignment_count += 1

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
        profile = self._profiles[worker_id]
        if self.observation_hook is not None:
            execution_time = self.observation_hook(worker_id, execution_time)
        profile.record_completion(execution_time, category, positive_feedback)
        self.table.complete(
            worker_id,
            len(profile.execution_times),
            category,
            profile.category_stats[category].accuracy,
        )
        self._changed(worker_id)

    def _censor(self, profile: WorkerProfile, elapsed: float) -> None:
        """Fold a censored hold time into the history (a no-op for ``elapsed <= 0``)."""
        before = len(profile.execution_times)
        profile.record_censored(elapsed)
        if len(profile.execution_times) != before:
            self.table.set_n_obs(profile.worker_id, before + 1)
            self._changed(profile.worker_id)

    def record_withdrawal(self, worker_id: int, task_id: int, elapsed: float) -> None:
        """The platform pulled the worker's task after ``elapsed`` seconds.

        The elapsed hold time enters the profile as a *censored* duration
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
        self._censor(self._profiles[worker_id], elapsed)
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
        self._censor(self._profiles[worker_id], elapsed)
        self.release(worker_id)

    # ------------------------------------------------------------ summary
    def trained_count(self, min_history: int) -> int:
        return sum(1 for p in self._profiles.values() if p.completed_tasks >= min_history)
