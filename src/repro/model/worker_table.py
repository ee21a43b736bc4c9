"""The Profiling Component (§III-A): one dense row per registered worker.

"Responsible to keep track of the workers' information and statistics":
a row is the platform's whole record of a worker — his location, status
(``online``, and the ``task`` he executes), completion times
(``execution_times``, one Python list per row, and its length ``n_obs``),
assignment count, and per-category ``positive`` and ``finished`` feedback
counts with the Eq. 1 ``accuracy`` they give.  This is the
*platform-observable* worker state; the latent ground-truth behaviour
lives with the simulator (:mod:`repro.model.worker`), never here.  Every
REACT batch reads the same few of these fields of every available worker,
so :class:`WorkerTable` keeps them as NumPy columns and a batch gathers
them with one fancy index per column.

Each update writes the changed cells of one row in O(1).  A new row
starts online and free, with an empty history or with the
:class:`WorkerHistory` a departing row handed over (a churn return, a
split migration).  The fit columns (the fitted model ``fit``, its
power-law ``alpha`` and ``k_min``, and the observation count it was
fitted at) are the exception — the
:class:`~repro.core.deadline.DeadlineEstimator` refits stale rows
lazily, right before it reads them.  A fit leaves with its row, and a
returning worker is refitted from his history.

Slots enumerate in registration order.  A registration appends a row, a
departure marks its row dead, and compaction squeezes the dead rows out
without reordering the live ones.  A returning worker therefore lands
after everyone who registered before his return, exactly where a
registration-ordered dict would put him; a free list that reused slots
would not, and matchers that break ties by row order would decide
differently.
"""

from __future__ import annotations

import math
from array import array
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..stats.duration_models import DurationModel
from ..stats.powerlaw import PowerLawFit
from .task import TaskCategory
from .worker import WorkerProfile

#: Column of each category in :attr:`WorkerTable.accuracy`.
CATEGORY_INDEX: Dict[TaskCategory, int] = {c: i for i, c in enumerate(TaskCategory)}
_N_CATEGORIES = len(CATEGORY_INDEX)

#: Fewest dead rows that trigger a compaction (when they outnumber the live).
_MIN_DEAD = 32

#: Numeric columns: ``array`` typecode, NumPy dtype, and cells per row.
#: Each column is a NumPy view over a Python ``array``.  Writers store one
#: cell at a time through the ``array`` (attribute ``_<name>``), a plain
#: Python store several times cheaper than a NumPy scalar write, and
#: batches gather through the view.
_NUMERIC: Dict[str, Tuple[str, type, int]] = {
    "worker_id": ("q", np.int64, 1),
    "live": ("b", np.bool_, 1),
    "online": ("b", np.bool_, 1),
    #: Task the worker is executing; -1 when he is free.
    "task": ("q", np.int64, 1),
    "n_obs": ("q", np.int64, 1),
    "assignment_count": ("q", np.int64, 1),
    "latitude": ("d", np.float64, 1),
    "longitude": ("d", np.float64, 1),
    #: Per-category feedback counts, and the Eq. 1 accuracy they give
    #: (0.0 where ``finished`` is 0).
    "positive": ("q", np.int64, _N_CATEGORIES),
    "finished": ("q", np.int64, _N_CATEGORIES),
    "accuracy": ("d", np.float64, _N_CATEGORIES),
    #: Observation count the fit was made at; -1 when there is none.
    "fit_n_obs": ("q", np.int64, 1),
    #: Power-law fit parameters; NaN when untrained or not a power law.
    "alpha": ("d", np.float64, 1),
    "k_min": ("d", np.float64, 1),
}

#: Object columns: the row's observed durations and its fitted duration model.
_OBJECT = ("execution_times", "fit")

#: Per-category counts of a worker with no feedback yet.
_NO_COUNTS = array("q", [0] * _N_CATEGORIES)


class WorkerHistory(NamedTuple):
    """A row's history, as a departing row hands it to the row that continues it.

    ``execution_times`` is the row's own list, handed over, not copied;
    ``positive`` and ``finished`` hold one count per category, in
    :data:`CATEGORY_INDEX` order.
    """

    execution_times: List[float]
    assignment_count: int
    positive: "array[int]"
    finished: "array[int]"


class WorkerTable:
    """The registered workers of one REACT server's region, one row (slot) each.

    Columns (NumPy arrays, row = slot): ``worker_id``, ``live``,
    ``online``, ``task``, ``execution_times`` (a list of the observed
    durations: completions and censored holds), ``n_obs`` (its length),
    ``assignment_count``, ``latitude``, ``longitude``, ``positive``,
    ``finished`` and ``accuracy`` (slot × category), ``fit`` (the fitted
    :class:`~repro.stats.duration_models.DurationModel`, or None),
    ``fit_n_obs``, ``alpha`` and ``k_min``.
    Slots at or past :attr:`size` hold no worker.  Membership, ``len``
    and iteration (worker ids, in registration order) cover the
    registered workers.
    """

    # Set by _allocate: each numeric column and its Python ``array`` store.
    worker_id: np.ndarray
    live: np.ndarray
    online: np.ndarray
    task: np.ndarray
    n_obs: np.ndarray
    assignment_count: np.ndarray
    latitude: np.ndarray
    longitude: np.ndarray
    positive: np.ndarray
    finished: np.ndarray
    accuracy: np.ndarray
    fit_n_obs: np.ndarray
    alpha: np.ndarray
    k_min: np.ndarray
    execution_times: np.ndarray
    fit: np.ndarray
    _worker_id: "array[int]"
    _live: "array[int]"
    _online: "array[int]"
    _task: "array[int]"
    _n_obs: "array[int]"
    _assignment_count: "array[int]"
    _latitude: "array[float]"
    _longitude: "array[float]"
    _positive: "array[int]"
    _finished: "array[int]"
    _accuracy: "array[float]"
    _fit_n_obs: "array[int]"
    _alpha: "array[float]"
    _k_min: "array[float]"

    def __init__(self, capacity: int = 64) -> None:
        self._size = 0
        self._dead = 0
        self._slot_of: Dict[int, int] = {}
        #: Live rows that are online and free (maintained, O(1) to read).
        self.n_available = 0
        #: The estimator whose fits the fit columns hold (see :meth:`claim_fits`).
        self.fit_owner: Optional[object] = None
        #: Chaos hook (:class:`repro.chaos.StaleProfileFault`): maps a raw
        #: ``(worker_id, execution_time)`` observation to the value actually
        #: stored, letting fault injection feed the profiler stale or
        #: corrupted measurements without touching the true outcome.
        self.observation_hook: Optional[Callable[[int, float], float]] = None
        self._profile_hooks: List[Callable[[int], None]] = []
        self._allocate(max(int(capacity), 1))

    # ---------------------------------------------------------------- rows
    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, worker_id: object) -> bool:
        return worker_id in self._slot_of

    def __iter__(self) -> Iterator[int]:
        return iter(self._slot_of)

    @property
    def size(self) -> int:
        """Slots in use, dead rows included; every slot is below this."""
        return self._size

    def slot(self, worker_id: int) -> int:
        """The live row of ``worker_id``; raises ``KeyError`` if absent."""
        return self._slot_of[worker_id]

    def rows(self, slots: Union[np.ndarray, Sequence[int]]) -> "WorkerRows":
        return WorkerRows(self, np.asarray(slots, dtype=np.int64))

    def rows_of(self, worker_ids: Iterable[int]) -> "WorkerRows":
        """The rows of the given (registered) workers, in the given order."""
        slot_of = self._slot_of
        return self.rows([slot_of[worker_id] for worker_id in worker_ids])

    def available_slots(self) -> np.ndarray:
        """Slots of the online, free workers, in registration order (so
        batch construction is deterministic).

        Slots stay valid until the next registration change; resolve them
        with :meth:`rows` right away.
        """
        n = self._size
        return (self.online[:n] & (self.task[:n] < 0)).nonzero()[0]

    def current_task(self, worker_id: int) -> Optional[int]:
        """The task the worker is executing; None if idle or not registered."""
        slot = self._slot_of.get(worker_id)
        if slot is None or self._task[slot] < 0:
            return None
        return self._task[slot]

    def is_online(self, worker_id: int) -> bool:
        """Whether the worker is registered and online."""
        slot = self._slot_of.get(worker_id)
        return slot is not None and bool(self._online[slot])

    def is_free(self, worker_id: int) -> bool:
        """Whether the worker is registered and in :meth:`available_slots`."""
        slot = self._slot_of.get(worker_id)
        return slot is not None and bool(self._online[slot]) and self._task[slot] < 0

    def live_slots(self) -> np.ndarray:
        """Slots of every registered worker, in registration order."""
        return self.live[: self._size].nonzero()[0]

    def trained_count(self, min_history: int) -> int:
        """How many registered workers have at least ``min_history`` observations."""
        return int(np.count_nonzero(self.n_obs[self.live_slots()] >= min_history))

    def profiles(self) -> List[WorkerProfile]:
        """The registered workers' identities, in registration order."""
        live = self.live_slots()
        return [
            WorkerProfile(*row)
            for row in zip(
                self.worker_id[live].tolist(),
                self.latitude[live].tolist(),
                self.longitude[live].tolist(),
            )
        ]

    def history(self, worker_id: int) -> WorkerHistory:
        """The worker's history; ``execution_times`` is the row's own list."""
        slot = self._slot_of[worker_id]
        base = slot * _N_CATEGORIES
        return WorkerHistory(
            self.execution_times[slot],
            self._assignment_count[slot],
            self._positive[base : base + _N_CATEGORIES],
            self._finished[base : base + _N_CATEGORIES],
        )

    # ------------------------------------------------------------- writers
    def register(self, profile: WorkerProfile, history: Optional[WorkerHistory] = None) -> None:
        """Add an online, free row for ``profile``.

        The row continues ``history`` (taking over its list), or starts
        empty.  Raises ``ValueError`` if the worker is already registered.
        """
        worker_id = profile.worker_id
        if worker_id in self._slot_of:
            raise ValueError(f"worker {worker_id} is already registered")
        slot = self._size
        if slot == len(self.fit):
            self._allocate(2 * slot)
        self._size = slot + 1
        self._slot_of[worker_id] = slot
        self._worker_id[slot] = worker_id
        self._live[slot] = True
        self._online[slot] = True
        self._task[slot] = -1
        self.n_available += 1
        self._latitude[slot] = profile.latitude
        self._longitude[slot] = profile.longitude
        if history is None:
            history = WorkerHistory([], 0, _NO_COUNTS, _NO_COUNTS)
        self.execution_times[slot] = history.execution_times
        self._n_obs[slot] = len(history.execution_times)
        self._assignment_count[slot] = history.assignment_count
        base = slot * _N_CATEGORIES
        self._positive[base : base + _N_CATEGORIES] = history.positive
        self._finished[base : base + _N_CATEGORIES] = history.finished
        for column, finished in enumerate(history.finished):
            if finished:
                self._accuracy[base + column] = history.positive[column] / finished
        self._changed(worker_id)

    def add_profile_hook(self, hook: Callable[[int], None]) -> None:
        """Subscribe to a worker (re-)registering or his history growing.

        Only this table's writers store duration observations, so the hook
        sees every change to the input of a worker's duration fit.  The
        Eq. 2 monitor uses it to recompute the withdrawal horizons of the
        worker's assigned tasks (a churn worker may return with his history).

        The table holds ``hook`` strongly.  A subscriber that also holds the
        table passes a :func:`~repro.sim.weak.weak_method`, so the two form
        no reference cycle.
        """
        self._profile_hooks.append(hook)

    def _changed(self, worker_id: int) -> None:
        for hook in self._profile_hooks:
            hook(worker_id)

    def deregister(self, worker_id: int) -> WorkerHistory:
        """Remove a worker (churn); raises ``KeyError`` if unknown.

        His row, and with it his fitted duration model, goes dead; his
        history is returned.  Compacts once dead rows dominate.
        """
        history = self.history(worker_id)
        self.set_online(worker_id, False)  # keeps the dead row out of the free set
        slot = self._slot_of.pop(worker_id)
        self._live[slot] = False
        self._dead += 1
        if self._dead >= _MIN_DEAD and self._dead > self._size - self._dead:
            self._compact()
        return history

    def set_online(self, worker_id: int, online: bool) -> None:
        """A registered worker goes offline (held, departing) or back online."""
        slot = self._slot_of[worker_id]
        if self._online[slot] != online:
            self._online[slot] = online
            if self._task[slot] < 0:
                self.n_available += 1 if online else -1

    def release(self, worker_id: int) -> None:
        """The worker is free again without returning a result (walk-away)."""
        slot = self._slot_of[worker_id]
        if self._task[slot] >= 0:
            self._task[slot] = -1
            if self._online[slot]:
                self.n_available += 1

    def assign(self, worker_id: int, task_id: int) -> None:
        """The worker took ``task_id``: one more assignment.

        Raises ``ValueError`` unless he is online and free, or if
        ``task_id`` is negative (a negative cell means free).
        """
        if task_id < 0:
            raise ValueError(f"task id {task_id} is negative")
        slot = self._slot_of[worker_id]
        if not self._online[slot] or self._task[slot] >= 0:
            raise ValueError(f"worker {worker_id} is not available")
        self._task[slot] = task_id
        self.n_available -= 1
        self._assignment_count[slot] += 1

    def complete(
        self,
        worker_id: int,
        execution_time: float,
        category: TaskCategory,
        positive_feedback: bool,
    ) -> None:
        """The worker finished a task in ``execution_time``: his history
        grew by the duration and one ``category`` feedback, and he is free.

        The :attr:`observation_hook` sees the duration first; raises
        ``ValueError`` unless what it stores is finite and positive.
        """
        if self.observation_hook is not None:
            execution_time = self.observation_hook(worker_id, execution_time)
        if not 0.0 < execution_time < math.inf:
            raise ValueError(
                f"execution_time must be finite and positive, got {execution_time}"
            )
        slot = self._slot_of[worker_id]
        times = self.execution_times[slot]
        times.append(float(execution_time))
        self._n_obs[slot] = len(times)
        cell = slot * _N_CATEGORIES + CATEGORY_INDEX[category]
        finished = self._finished[cell] + 1
        self._finished[cell] = finished
        if positive_feedback:
            self._positive[cell] += 1
        # Python int division: Σ PositiveTask / Σ FinishedTask, exactly.
        self._accuracy[cell] = self._positive[cell] / finished
        self.release(worker_id)
        self._changed(worker_id)

    def _censor(self, worker_id: int, elapsed: float) -> None:
        """Fold a censored hold time into the history (a no-op for ``elapsed <= 0``)."""
        if elapsed > 0:
            slot = self._slot_of[worker_id]
            times = self.execution_times[slot]
            times.append(float(elapsed))
            self._n_obs[slot] = len(times)
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

    # --------------------------------------------------------- fit columns
    def claim_fits(self, owner: object) -> None:
        """Hand the fit columns to ``owner``, clearing another owner's fits."""
        if self.fit_owner is not owner:
            self.fit_owner = owner
            self.fit[:] = None
            self.fit_n_obs[:] = -1
            self.alpha[:] = math.nan
            self.k_min[:] = math.nan

    def set_fit(self, slot: int, fit: DurationModel) -> None:
        """Record the row's fit, made at its current observation count."""
        self._fit_n_obs[slot] = self._n_obs[slot]
        self.fit[slot] = fit
        if isinstance(fit, PowerLawFit):
            self._alpha[slot] = fit.alpha
            self._k_min[slot] = fit.k_min
        else:
            self._alpha[slot] = math.nan
            self._k_min[slot] = math.nan

    # ------------------------------------------------------------ internals
    def _allocate(self, capacity: int) -> None:
        """(Re)allocate every column at ``capacity`` rows, keeping the rows."""
        n = self._size
        for name, (typecode, dtype, width) in _NUMERIC.items():
            store = array(typecode, bytes(capacity * width * array(typecode).itemsize))
            view = np.frombuffer(store, dtype=dtype)
            if width > 1:
                view = view.reshape(capacity, width)
            if n:
                view[:n] = getattr(self, name)[:n]
            setattr(self, "_" + name, store)
            setattr(self, name, view)
        for name in _OBJECT:
            column = np.empty(capacity, dtype=object)
            if n:
                column[:n] = getattr(self, name)[:n]
            setattr(self, name, column)
        self._clear(n, capacity)

    def _clear(self, start: int, stop: int) -> None:
        """Reset unused slots to what :meth:`register` does not write."""
        self.live[start:stop] = False
        self.online[start:stop] = False
        self.task[start:stop] = -1
        self.execution_times[start:stop] = None
        self.fit[start:stop] = None
        self.positive[start:stop] = 0
        self.finished[start:stop] = 0
        self.accuracy[start:stop] = 0.0
        self.fit_n_obs[start:stop] = -1
        self.alpha[start:stop] = math.nan
        self.k_min[start:stop] = math.nan

    def _compact(self) -> None:
        """Squeeze out dead rows, keeping the live rows' relative order."""
        keep = self.live_slots()
        n = len(keep)
        for name in (*_NUMERIC, *_OBJECT):
            column = getattr(self, name)
            column[:n] = column[keep]
        self._clear(n, self._size)
        self._size = n
        self._dead = 0
        self._slot_of = dict(zip(self.worker_id[:n].tolist(), range(n)))


class WorkerRows:
    """The worker axis of one batch: a table and the slots it gathers.

    Row ``i`` of every gathered column belongs to ``slots[i]``.
    """

    __slots__ = ("table", "slots")

    def __init__(self, table: WorkerTable, slots: np.ndarray) -> None:
        self.table = table
        self.slots = slots

    def __len__(self) -> int:
        return len(self.slots)

    @property
    def worker_ids(self) -> np.ndarray:
        return self.table.worker_id[self.slots]

    @property
    def assignment_count(self) -> np.ndarray:
        return self.table.assignment_count[self.slots]

    @property
    def latitude(self) -> np.ndarray:
        return self.table.latitude[self.slots]

    @property
    def longitude(self) -> np.ndarray:
        return self.table.longitude[self.slots]

    @property
    def fits(self) -> np.ndarray:
        """The rows' fitted duration models (an object array, row order)."""
        return self.table.fit[self.slots]

    def accuracy(self, categories: Sequence[TaskCategory]) -> np.ndarray:
        """(rows × categories) Eq. 1 accuracy; 0.0 where there is no feedback."""
        columns = [CATEGORY_INDEX[category] for category in categories]
        return self.table.accuracy[self.slots][:, columns]
