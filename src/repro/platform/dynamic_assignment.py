"""Dynamic Assignment Component (§III-A, §IV-B).

Once per :data:`CHECK_INTERVAL` the monitor evaluates Eq. (2) — the
probability that the current worker finishes inside the remaining window,
given that ``t_ij`` seconds have already elapsed — against the worker's
power-law profile.  When the probability drops below the policy threshold
(10% in the paper) the task is withdrawn and handed back to the Scheduling
Component "so as to enable the Scheduling Component to find a better match".

Per §V-C, a worker with fewer than ``z = 3`` completed tasks is never
reassigned (the system is still training his profile), and a task whose
deadline has already passed is left with its worker — no other worker could
beat the deadline either, so reassignment would only waste a second slot.

The monitor is event-driven rather than a scan of every assigned task.
Eq. (2) under a power-law fit is nonincreasing in the elapsed time, so each
published assignment (a *row*: the
:class:`~repro.platform.task_management.Assignment` record, registered
through :meth:`track`) has a
withdrawal horizon
(:meth:`~repro.core.deadline.DeadlineEstimator.withdrawal_skip_horizons`)
before which it provably cannot fire.  Rows wait in a min-heap keyed by
``assigned_at + horizon``, and a sweep looks only at the rows whose key has
passed.  A horizon depends on the worker's duration history, the task's
window and the threshold.  So a row is re-armed, meaning its horizon is
recomputed at the next sweep, whenever one of those may have moved: the
:class:`~repro.model.worker_table.WorkerTable` (the Profiling Component)
reports each history growth and each (re-)registration, and a threshold
change or a sweep at an earlier instant re-arms every row.
Rows that cannot fire until such an event are parked off the heap: an
untrained worker (infinite horizon), a horizon past the window, a closed
window, or a departed worker.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.deadline import DeadlineEstimator
from ..model.task import Task
from ..model.worker_table import WorkerTable
from ..obs.runtime import ObservabilityLike, resolve
from ..obs.trace import MONITOR_TRACK
from ..sim.clock import EventClock
from ..sim.events import EventKind
from ..sim.process import PeriodicProcess
from ..sim.weak import weak_method
from .policies import SchedulingPolicy
from .task_management import Assignment, TaskManagementComponent

#: Simulated seconds between two Eq. 2 sweeps.
CHECK_INTERVAL = 1.0
#: Relative margin taken off each heap key, far above the rounding of
#: ``assigned_at + horizon`` versus ``now - assigned_at >= horizon``: a row
#: is popped no later than it is due, and the exact test decides.
_KEY_MARGIN = 1e-12


@dataclass(frozen=True)
class Withdrawal:
    """Trace record of one Eq. 2-triggered reassignment."""

    time: float
    task_id: int
    worker_id: int
    elapsed: float
    probability: float


_Entry = Tuple[float, int, int, Assignment]


class DynamicAssignmentComponent:
    """The Eq. (2) monitor loop."""

    def __init__(
        self,
        engine: EventClock,
        policy: SchedulingPolicy,
        task_management: TaskManagementComponent,
        profiling: WorkerTable,
        estimator: DeadlineEstimator,
        on_withdraw: Callable[[Task], None],
        observability: Optional[ObservabilityLike] = None,
    ) -> None:
        self._engine = engine
        self._policy = policy
        self._tasks = task_management
        self._profiles = profiling
        self._estimator = estimator
        self._on_withdraw = on_withdraw
        self._process: Optional[PeriodicProcess] = None
        obs = resolve(observability)
        self._tracer = obs.tracer
        self._obs_sweeps = obs.registry.counter(
            "react_sweeps_total", "Eq. 2 monitor sweeps that evaluated >= 1 task"
        )
        self._obs_evaluations = obs.registry.counter(
            "react_sweep_evaluations_total", "Assigned tasks evaluated against Eq. 2"
        )
        self._obs_withdrawals = obs.registry.counter(
            "react_sweep_withdrawals_total", "Tasks withdrawn by the Eq. 2 rule"
        )
        self.withdrawals: List[Withdrawal] = []
        #: Chaos switch (:class:`repro.chaos.SweepOutageFault` / blackout):
        #: while True the periodic sweep fires but evaluates nothing, so no
        #: dawdling task is rescued until the outage lifts.
        self.suspended = False
        # The row index.  Without the probabilistic model there is no
        # monitor, and tracking is a no-op.
        self._enabled = policy.use_probabilistic_model
        #: rows whose horizon must be (re)computed at the next sweep
        self._pending: List[Assignment] = []
        #: (key, seq, epoch, row) for rows that can fire inside their window
        self._heap: List[_Entry] = []
        #: every tracked row by worker, for re-arming; dead rows pruned lazily
        self._rows_of: Dict[int, List[Assignment]] = {}
        self._n_rows = 0
        #: the threshold the armed horizons embed, and the last sweep instant
        self._threshold: Optional[float] = None
        self._last_now = -math.inf
        if self._enabled:
            profiling.add_profile_hook(weak_method(self._rearm_worker))

    def start(self) -> None:
        """Begin the periodic sweep (no-op when the model is disabled)."""
        if not self._policy.use_probabilistic_model:
            return
        if self._process is not None:
            raise RuntimeError("monitor already started")
        self._process = PeriodicProcess(
            self._engine,
            period=CHECK_INTERVAL,
            action=weak_method(self.sweep),
            kind=EventKind.REASSIGNMENT_CHECK,
        )

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None

    # ---------------------------------------------------------------- rows
    def track(self, row: Assignment) -> None:
        """Watch an assignment the Task Management Component just committed."""
        if not self._enabled:
            return
        self._pending.append(row)
        rows = self._rows_of.get(row.worker_id)
        if rows is None:
            self._rows_of[row.worker_id] = [row]
        else:
            rows.append(row)
        self._n_rows += 1

    def _rearm(self, row: Assignment) -> None:
        row.epoch += 1
        if not row.pending:
            row.pending = True
            self._pending.append(row)

    def _rearm_worker(self, worker_id: int) -> None:
        """The worker's history grew or he registered: re-arm his live rows."""
        rows = self._rows_of.get(worker_id)
        if rows is None:
            return
        live = [row for row in rows if row.live()]
        self._n_rows -= len(rows) - len(live)
        if live:
            self._rows_of[worker_id] = live
        else:
            del self._rows_of[worker_id]
        for row in live:
            self._rearm(row)

    def _arm_pending(self, now: float, threshold: float) -> None:
        """Compute the pending rows' horizons and queue them, or park them."""
        profiles = self._profiles
        arming: List[Assignment] = []
        for row in self._pending:
            row.pending = False
            if not row.live() or row.worker_id not in profiles:
                continue  # dead, or departed: his return re-arms the row
            if row.ttd <= now - row.assigned_at:
                continue  # closed window: Eq. 2 reports 0.0 untrained, never fires
            arming.append(row)
        self._pending.clear()
        if not arming:
            return
        horizons = self._estimator.withdrawal_skip_horizons(
            profiles.rows_of([row.worker_id for row in arming]),
            [row.ttd for row in arming],
            threshold,
        )
        heap = self._heap
        for row, horizon in zip(arming, horizons):
            if horizon >= row.ttd:
                continue  # the window closes before the row could fire
            row.horizon = horizon
            assigned_at = row.assigned_at
            key = assigned_at + horizon
            key -= _KEY_MARGIN * (abs(assigned_at) + horizon)
            heapq.heappush(heap, (key, row.seq, row.epoch, row))

    def _compact(self) -> None:
        """Drop dead rows and stale heap entries."""
        self._heap = [e for e in self._heap if e[2] == e[3].epoch and e[3].live()]
        heapq.heapify(self._heap)
        rows_of: Dict[int, List[Assignment]] = {}
        for worker_id, rows in self._rows_of.items():
            live = [row for row in rows if row.live()]
            if live:
                rows_of[worker_id] = live
        self._rows_of = rows_of
        self._n_rows = sum(len(rows) for rows in rows_of.values())

    # --------------------------------------------------------------- sweep
    def sweep(self, now: float) -> int:
        """Evaluate Eq. (2) for the running tasks that can fire; withdraw the hopeless.

        The sweep first arms the pending rows, then pops every row whose
        heap key has passed.  The heap only chooses which rows to look at.
        Each popped row goes through the exact tests of a scan over every
        assigned task: it is skipped while its worker is deregistered,
        while its window is closed, and while ``now - assigned_at`` is under
        its horizon.  Every other assigned task is provably one of those
        cases, so the rows left are the ones a full scan would evaluate.
        They are ordered by assignment sequence (the assigned pool's
        iteration order) and evaluated in one batched estimator call
        (:meth:`~repro.core.deadline.DeadlineEstimator.window_probability_batch`).

        Withdrawals then happen in that order.  A withdrawal feeds a
        censored observation into the worker's history.  In the rare case
        that the same worker backs *another* assigned task later in the
        order (the silent-abandonment re-match race), that task is
        re-evaluated in this sweep against his updated table row (a
        one-row batch call), whether or not it was due, instead of using
        the batch value.  A row that was due and not withdrawn stays due:
        with its history unchanged, Eq. 2 only falls as time passes.

        The evaluation counters keep counting every assigned task: a row
        left out *is* an Eq. 2 decision, just one reached without
        recomputing the probability.

        Returns the number of withdrawals performed this sweep.
        """
        if self.suspended:
            return 0
        n = self._tasks.assigned_count
        if n == 0:
            return 0
        threshold = self._policy.reassign_threshold
        if not (0.0 <= threshold <= 1.0):
            raise ValueError(f"threshold must be in [0,1], got {threshold}")
        if threshold != self._threshold or now < self._last_now:
            # Horizons embed the threshold (ablation harnesses mutate it
            # mid-run), and an earlier instant reopens parked windows.
            self._threshold = threshold
            self._heap.clear()
            for rows in self._rows_of.values():
                for row in rows:
                    if row.live():
                        self._rearm(row)
        self._last_now = now

        self._arm_pending(now, threshold)

        heap = self._heap
        profiles = self._profiles
        popped: List[_Entry] = []
        due: List[Assignment] = []
        while heap and heap[0][0] <= now:
            entry = heapq.heappop(heap)
            row = entry[3]
            if entry[2] != row.epoch or not row.live():
                continue  # stale entry
            if row.worker_id not in profiles:
                continue  # departed: parked until he registers again
            elapsed = now - row.assigned_at
            if row.ttd <= elapsed:
                continue  # closed window: parked
            popped.append(entry)
            if elapsed >= row.horizon:
                due.append(row)

        pulled = 0
        if due:
            due.sort(key=lambda row: row.seq)
            pulled = self._evaluate(now, threshold, due)
        for entry in popped:
            if entry[2] == entry[3].epoch and entry[3].live():
                heapq.heappush(self._heap, entry)
        if len(self._heap) > 2 * n + 256 or self._n_rows > 2 * n + 256:
            self._compact()

        self._obs_sweeps.inc()
        self._obs_evaluations.inc(n)
        if pulled:
            self._obs_withdrawals.inc(pulled)
        self._tracer.instant(
            "sweep",
            cat="monitor",
            tid=MONITOR_TRACK,
            evaluated=n,
            withdrawn=pulled,
        )
        return pulled

    def _evaluate(self, now: float, threshold: float, due: List[Assignment]) -> int:
        """Apply the rule to the due rows (in sequence order); count withdrawals."""
        estimator = self._estimator
        table = self._profiles
        elapsed = [now - row.assigned_at for row in due]
        probs, trained = estimator.window_probability_batch(
            table.rows_of([row.worker_id for row in due]),
            np.asarray(elapsed, dtype=np.float64),
            np.asarray([row.ttd for row in due], dtype=np.float64),
        )
        # (seq, batch index or -1, row), already in heap order.
        order = [(row.seq, i, row) for i, row in enumerate(due)]
        queued = {row.seq for row in due}
        withdrawn_workers: set[int] = set()
        pulled = 0
        while order:
            seq, i, row = heapq.heappop(order)
            task = row.task
            worker_id = row.worker_id
            if worker_id in withdrawn_workers:
                # This worker's history changed earlier in the sweep;
                # re-evaluate against his updated row.
                elapsed_i = now - row.assigned_at
                again, again_trained = estimator.window_probability_batch(
                    table.rows_of([worker_id]),
                    np.array([elapsed_i], dtype=np.float64),
                    np.array([row.ttd], dtype=np.float64),
                )
                if not again_trained[0] or again[0] >= threshold:
                    continue
                probability = float(again[0])
            else:
                if not trained[i] or probs[i] >= threshold:
                    continue
                probability = float(probs[i])
                elapsed_i = elapsed[i]
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
            # His other tasks still ahead in the order are re-evaluated
            # too, due or not.
            for other in self._rows_of.get(worker_id, ()):
                if other.seq > seq and other.seq not in queued and other.live():
                    queued.add(other.seq)
                    heapq.heappush(order, (other.seq, -1, other))
            pulled += 1
            self._on_withdraw(task)
        return pulled
