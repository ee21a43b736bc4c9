"""Cross-component runtime invariants.

The four server components share mutable state (tasks, worker-table
rows) through well-defined transitions; a bug in any handler
tends to show up as a *relationship* violation long before it corrupts a headline metric.
:func:`check_server_invariants` audits those relationships on demand and
:class:`InvariantMonitor` re-audits them on a simulated-time grid, so
integration tests (and cautious users) can run whole experiments under
continuous verification.

Checked invariants:

I1  Task pools partition: every task is in exactly one of
    unassigned / in-batch / assigned / deferred / finished, and its
    ``phase`` agrees with the pool it sits in.  (The deferred pool holds
    withdrawn tasks parked by the resilience layer's retry backoff; they
    are UNASSIGNED but invisible to the matcher.)
I2  An ASSIGNED task's worker is registered with the Profiling Component.
I3  No double *active* booking: no task is the current task (the worker
    table's ``task`` cell) of two workers.  One cell per worker means he
    claims at most one task and is never free while he claims one.  The
    table's maintained free count equals a recount of its status columns.
    (Plain "≤ 1 assigned task per worker" is deliberately NOT an
    invariant: an abandoner who walks away leaves his task ASSIGNED
    platform-side — under the traditional policy forever — while the
    scheduler correctly hands him new work.)
I4  A worker's current task is ASSIGNED to that same worker.
I6  Metric conservation: completed + expired never exceeds received;
    on-time <= completed; positive feedback <= completed (delegates to
    :meth:`MetricsCollector.check_conservation`).
I7  Metric/pool agreement: received = finished + in-flight (only on
    servers that never adopt migrated tasks; disabled otherwise).

I5 and I8 hold by construction and are not checked: a worker's status
is one ``task`` cell (I5, a free worker claims no task), and his row is
his only record (I8, profiles agreeing with their rows).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..model.task import TaskPhase
from ..sim.engine import Engine
from ..sim.events import EventKind
from ..sim.process import PeriodicProcess

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .server import RegionServer


class InvariantViolation(AssertionError):
    """A cross-component consistency rule was broken."""


def check_server_invariants(server: "RegionServer", strict_accounting: bool = True) -> None:
    """Audit every invariant; raise :class:`InvariantViolation` on failure."""
    tm = server.task_management

    # I1 — pool partition and phase agreement.
    pools = {
        "unassigned": (tm._unassigned, (TaskPhase.UNASSIGNED,)),
        "in_batch": (tm._in_batch, (TaskPhase.UNASSIGNED,)),
        "assigned": ({t.task_id: t for t in tm.assigned_tasks()}, (TaskPhase.ASSIGNED,)),
        "deferred": (tm._deferred, (TaskPhase.UNASSIGNED,)),
        "finished": (tm._finished, (TaskPhase.COMPLETED, TaskPhase.EXPIRED)),
    }
    seen: dict[int, str] = {}
    for pool_name, (pool, allowed) in pools.items():
        for task_id, task in pool.items():
            if task_id in seen:
                raise InvariantViolation(
                    f"I1: task {task_id} in both {seen[task_id]} and {pool_name}"
                )
            seen[task_id] = pool_name
            if task.phase not in allowed:
                raise InvariantViolation(
                    f"I1: task {task_id} in pool {pool_name} has phase {task.phase}"
                )

    # I2 — assigned tasks vs. workers.
    for task in tm.assigned_tasks():
        worker_id = task.assigned_worker
        if worker_id is None:
            raise InvariantViolation(f"I2: assigned task {task.task_id} has no worker")
        if worker_id not in server.profiling:
            raise InvariantViolation(
                f"I2: task {task.task_id} assigned to unregistered worker {worker_id}"
            )

    # I3/I4 — each worker's current task, and the free count.
    profiling = server.profiling
    claimed_by: dict[int, int] = {}
    n_free = 0
    for worker_id in profiling:
        task_id = profiling.current_task(worker_id)
        if task_id is None:
            n_free += profiling.is_online(worker_id)
            continue
        if task_id in claimed_by:
            raise InvariantViolation(
                f"I3: task {task_id} is the current task of workers "
                f"{claimed_by[task_id]} and {worker_id}"
            )
        claimed_by[task_id] = worker_id
        try:
            task = tm.get(task_id)
        except KeyError:
            raise InvariantViolation(
                f"I4: worker {worker_id} references unknown task {task_id}"
            ) from None
        if task.phase is not TaskPhase.ASSIGNED or task.assigned_worker != worker_id:
            raise InvariantViolation(
                f"I4: worker {worker_id} claims task {task_id} "
                f"(phase={task.phase}, assigned_worker={task.assigned_worker})"
            )

    if profiling.n_available != n_free:
        raise InvariantViolation(
            f"I3: n_available={profiling.n_available} but {n_free} are free"
        )

    # I6 — metric self-consistency.
    try:
        server.metrics.check_conservation()
    except AssertionError as exc:
        raise InvariantViolation(f"I6: {exc}") from exc

    # I7 — metric/pool agreement (single-origin servers only).
    if strict_accounting:
        finished = server.metrics.completed + server.metrics.expired_unassigned
        total = finished + tm.in_flight
        if total != server.metrics.received:
            raise InvariantViolation(
                f"I7: received={server.metrics.received} but "
                f"finished+in_flight={total}"
            )


@dataclass
class InvariantMonitor:
    """Re-audits a server every ``period`` simulated seconds.

    Its process holds it (an unreferenced monitor still audits); it holds
    the process weakly, so a run that never calls :meth:`stop` has no cycle.
    """

    engine: Engine
    server: "RegionServer"
    period: float = 1.0
    strict_accounting: bool = True
    audits: int = 0
    _process: Optional["weakref.ref[PeriodicProcess]"] = None

    def start(self) -> "InvariantMonitor":
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self._process is not None:
            raise RuntimeError("monitor already started")
        process = PeriodicProcess(
            self.engine, period=self.period, action=self._audit,
            kind=EventKind.CALLBACK,
        )
        self._process = weakref.ref(process)
        return self

    def _audit(self, now: float) -> None:
        self.audits += 1
        check_server_invariants(self.server, strict_accounting=self.strict_accounting)

    def stop(self) -> None:
        process = self._process() if self._process is not None else None
        if process is not None:
            process.stop()
        self._process = None
