"""Columnar worker state: one dense row per registered worker.

Every REACT batch reads the same few fields of every available worker —
his status, the observation and assignment counts behind the cold-start
rule and Eq. 3, the Eq. 1 accuracy for the batch's categories,
the location for a distance weight, and the worker's fitted duration model.
:class:`WorkerTable` keeps those fields as NumPy columns so a batch gathers
them with one fancy index per column instead of a Python loop over
:class:`~repro.model.worker.WorkerProfile` objects.

The :class:`~repro.platform.profiling.ProfilingComponent` is the table's
only writer: each of its updates writes the changed cells of one row in
O(1).  The row is the only record of a worker's status (``online``, and
the ``task`` he executes): a new row starts online and free.  The fit
columns (the fitted model ``fit``, its power-law ``alpha`` and ``k_min``,
and the observation count it was fitted at) are the exception — the
:class:`~repro.core.deadline.DeadlineEstimator` refits stale rows
lazily, right before it reads them.  The row is the only copy
of a worker's fit: it leaves with his row, and a returning worker is
refitted from his history.

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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

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
    "accuracy": ("d", np.float64, _N_CATEGORIES),
    #: Observation count the fit was made at; -1 when there is none.
    "fit_n_obs": ("q", np.int64, 1),
    #: Power-law fit parameters; NaN when untrained or not a power law.
    "alpha": ("d", np.float64, 1),
    "k_min": ("d", np.float64, 1),
}

#: Object columns: the row's profile and its fitted duration model.
_OBJECT = ("profile", "fit")


class WorkerTable:
    """Dense per-worker columns, addressed by slot.

    Columns (NumPy arrays, row = slot): ``worker_id``, ``profile`` (the
    :class:`WorkerProfile` object), ``live``, ``online``, ``task``,
    ``n_obs``, ``assignment_count``, ``latitude``, ``longitude``,
    ``accuracy`` (slot × category), ``fit`` (the fitted
    :class:`~repro.stats.duration_models.DurationModel`, or None),
    ``fit_n_obs``, ``alpha`` and ``k_min``.
    Slots at or past :attr:`size` hold no worker.
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
    accuracy: np.ndarray
    fit_n_obs: np.ndarray
    alpha: np.ndarray
    k_min: np.ndarray
    profile: np.ndarray
    fit: np.ndarray
    _worker_id: "array[int]"
    _live: "array[int]"
    _online: "array[int]"
    _task: "array[int]"
    _n_obs: "array[int]"
    _assignment_count: "array[int]"
    _latitude: "array[float]"
    _longitude: "array[float]"
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
        self._allocate(max(int(capacity), 1))

    @classmethod
    def from_profiles(cls, profiles: Iterable[WorkerProfile]) -> "WorkerTable":
        """A standalone table holding one row per profile, in order.

        For evaluating ad-hoc profile lists; a repeated worker id gets one
        row per occurrence.
        """
        ordered = list(profiles)
        table = cls(capacity=len(ordered))
        for profile in ordered:
            table.append(profile)
        return table

    # ---------------------------------------------------------------- rows
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
        """Slots of the online, free workers, in registration order."""
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

    # ------------------------------------------------------------- writers
    def append(self, profile: WorkerProfile) -> int:
        """Add an online, free row snapshotting ``profile``; returns its slot."""
        slot = self._size
        if slot == len(self.profile):
            self._allocate(2 * slot)
        self._size = slot + 1
        worker_id = profile.worker_id
        self._slot_of[worker_id] = slot
        self._worker_id[slot] = worker_id
        self.profile[slot] = profile
        self._live[slot] = True
        self._online[slot] = True
        self._task[slot] = -1
        self.n_available += 1
        self._n_obs[slot] = len(profile.execution_times)
        self._assignment_count[slot] = profile.assignment_count
        self._latitude[slot] = profile.latitude
        self._longitude[slot] = profile.longitude
        if profile.category_stats:
            base = slot * _N_CATEGORIES
            for category, stats in profile.category_stats.items():
                self._accuracy[base + CATEGORY_INDEX[category]] = stats.accuracy
        return slot

    def remove(self, worker_id: int) -> None:
        """Mark ``worker_id``'s row dead; compacts once dead rows dominate."""
        self.set_online(worker_id, False)  # keeps the dead row out of the free set
        slot = self._slot_of.pop(worker_id)
        self._live[slot] = False
        self._dead += 1
        if self._dead >= _MIN_DEAD and self._dead > self._size - self._dead:
            self._compact()

    def set_online(self, worker_id: int, online: bool) -> None:
        slot = self._slot_of[worker_id]
        if self._online[slot] != online:
            self._online[slot] = online
            if self._task[slot] < 0:
                self.n_available += 1 if online else -1

    def release(self, worker_id: int) -> None:
        """The worker is free again."""
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
        self, worker_id: int, n_obs: int, category: TaskCategory, accuracy: float
    ) -> None:
        """The worker finished a task: his history grew and he is free."""
        slot = self._slot_of[worker_id]
        self._n_obs[slot] = n_obs
        self._accuracy[slot * _N_CATEGORIES + CATEGORY_INDEX[category]] = accuracy
        self.release(worker_id)

    def set_n_obs(self, worker_id: int, n_obs: int) -> None:
        self._n_obs[self._slot_of[worker_id]] = n_obs

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
        """Reset unused slots to what :meth:`append` does not write."""
        self.live[start:stop] = False
        self.online[start:stop] = False
        self.task[start:stop] = -1
        self.profile[start:stop] = None
        self.fit[start:stop] = None
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
    def profiles(self) -> np.ndarray:
        """The rows' profile objects (an object array, row order)."""
        return self.table.profile[self.slots]

    @property
    def fits(self) -> np.ndarray:
        """The rows' fitted duration models (an object array, row order)."""
        return self.table.fit[self.slots]

    def accuracy(self, categories: Sequence[TaskCategory]) -> np.ndarray:
        """(rows × categories) Eq. 1 accuracy; 0.0 where there is no feedback."""
        columns = [CATEGORY_INDEX[category] for category in categories]
        return self.table.accuracy[self.slots][:, columns]


#: What the batch evaluators accept: table rows, or plain profiles.
Workers = Union[WorkerRows, Sequence[WorkerProfile]]


def as_rows(workers: Workers) -> WorkerRows:
    """``workers`` as table rows; a profile list gets a standalone table."""
    if isinstance(workers, WorkerRows):
        return workers
    table = WorkerTable.from_profiles(workers)
    return table.rows(np.arange(table.size, dtype=np.int64))


def profile_mismatches(table: WorkerTable, profiles: List[WorkerProfile]) -> List[str]:
    """Where ``table`` disagrees with the registered ``profiles`` (in order).

    Empty when every profile has a live row whose history columns equal
    it, the live rows enumerate the profiles in the given (registration)
    order, and the maintained free count matches the status columns.  Used
    by the runtime invariant audit.
    """
    problems: List[str] = []
    live = table.live_slots()
    order = table.worker_id[live].tolist()
    expected = [profile.worker_id for profile in profiles]
    if order != expected:
        problems.append(f"row order {order} != registration order {expected}")
    n_available = len(table.available_slots())
    if table.n_available != n_available:
        problems.append(f"n_available={table.n_available} but {n_available} are free")
    for profile in profiles:
        slot = table._slot_of.get(profile.worker_id)
        if slot is None or table.profile[slot] is not profile:
            problems.append(f"worker {profile.worker_id} has no row")
            continue
        accuracy = [0.0] * len(CATEGORY_INDEX)
        for category, stats in profile.category_stats.items():
            accuracy[CATEGORY_INDEX[category]] = stats.accuracy
        row = {
            "n_obs": int(table.n_obs[slot]),
            "assignment_count": int(table.assignment_count[slot]),
            "latitude": float(table.latitude[slot]),
            "longitude": float(table.longitude[slot]),
            "accuracy": table.accuracy[slot].tolist(),
        }
        truth = {
            "n_obs": len(profile.execution_times),
            "assignment_count": profile.assignment_count,
            "latitude": profile.latitude,
            "longitude": profile.longitude,
            "accuracy": accuracy,
        }
        for field, value in truth.items():
            if row[field] != value:
                problems.append(
                    f"worker {profile.worker_id}: {field} row={row[field]} profile={value}"
                )
    return problems
