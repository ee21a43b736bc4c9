"""Unit tests for the columnar worker table and its single writer."""

from array import array

import numpy as np
import pytest

from repro.core.weights import AccuracyWeight
from repro.model.task import Task, TaskCategory
from repro.model.worker import WorkerProfile
from repro.model.worker_table import CATEGORY_INDEX, WorkerHistory, WorkerTable
from repro.platform.invariants import InvariantViolation, check_server_invariants
from repro.stats.duration_models import EmpiricalFamily
from repro.stats.powerlaw import PowerLawFit

from ..platform.helpers import build_server


def _ids(component):
    return component.rows(component.available_slots()).worker_ids.tolist()


def _table(*worker_ids):
    table = WorkerTable()
    for worker_id in worker_ids:
        table.register(WorkerProfile(worker_id=worker_id))
    return table


def _free_count_is_exact(component):
    return component.n_available == len(component.available_slots())


class TestAccuracyColumn:
    """The accuracy column is ``positive / finished`` of the row's counts,
    the Python division Eq. 1 defines: the per-batch weight matrix reads
    the column, so a different rounding would change matching decisions."""

    def test_column_tracks_every_completion(self):
        component = _table(0, 1)
        column = CATEGORY_INDEX[TaskCategory.PRICE_CHECK]
        positives = 0
        for finished, positive in enumerate((True, False, True, True, False), start=1):
            positives += positive
            component.assign(1, task_id=1)
            component.complete(1, 5.0, TaskCategory.PRICE_CHECK, positive)
            slot = component.slot(1)
            assert component.accuracy[slot, column] == positives / finished
        assert component.accuracy[component.slot(1), column] == 0.6

    def test_constructor_injected_stats_seed_the_row(self):
        counts = array("q", [0] * len(CATEGORY_INDEX))
        positive, finished = counts[:], counts[:]
        positive[CATEGORY_INDEX[TaskCategory.GENERIC]] = 3
        finished[CATEGORY_INDEX[TaskCategory.GENERIC]] = 4
        table = WorkerTable()
        table.register(WorkerProfile(worker_id=1), WorkerHistory([], 0, positive, finished))
        assert table.accuracy[0, CATEGORY_INDEX[TaskCategory.GENERIC]] == 0.75
        assert table.accuracy[0].sum() == 0.75  # no other category has feedback

    def test_unknown_category_reads_zero(self):
        component = _table(0, 1)
        component.complete(1, 5.0, TaskCategory.GENERIC, True)
        rows = component.rows_of([1])
        assert rows.accuracy([TaskCategory.ENTERTAINMENT, TaskCategory.GENERIC]).tolist() == [
            [0.0, 1.0]
        ]

    def test_weight_matrix_agrees_with_category_stats(self):
        component = _table(0, 1)
        for positive in (True, True, False):
            component.complete(1, 5.0, TaskCategory.IMAGE_LABELING, positive)
        task = Task(
            latitude=0.0,
            longitude=0.0,
            deadline=60.0,
            category=TaskCategory.IMAGE_LABELING,
        )
        matrix = AccuracyWeight().matrix(component.rows_of([1]), [task])
        assert matrix[0, 0] == 2.0 / 3.0


class TestSlotOrder:
    def test_returning_worker_is_last(self):
        component = _table(0, 1, 2, 3)
        component.complete(1, 5.0, TaskCategory.GENERIC, True)
        history = component.deregister(1)
        component.register(WorkerProfile(worker_id=1), history)
        assert _ids(component) == [0, 2, 3, 1]
        assert list(component) == [0, 2, 3, 1]
        assert component.history(1).execution_times == [5.0]

    def test_compaction_keeps_registration_order(self):
        component = _table(*range(100))
        for worker_id in range(100):
            component.complete(worker_id, float(worker_id + 1), TaskCategory.GENERIC, True)
        departed = [(w, component.deregister(w)) for w in range(0, 100, 3)]
        departed += [(w, component.deregister(w)) for w in range(1, 100, 3)]
        assert component.size < 100  # dead rows were squeezed out
        for worker_id, history in departed[::2]:
            component.register(WorkerProfile(worker_id=worker_id), history)
        expected = list(range(2, 100, 3)) + [w for w, _ in departed[::2]]
        assert _ids(component) == expected
        assert list(component) == expected
        # every row still holds its own worker's history
        assert all(
            component.history(w).execution_times == [float(w + 1)] for w in expected
        )
        assert _free_count_is_exact(component)

    def test_growth_keeps_rows(self):
        component = WorkerTable()
        for worker_id in range(200):
            profile = WorkerProfile(worker_id=worker_id, latitude=float(worker_id % 90))
            component.register(profile)
            component.complete(worker_id, 1.0 + worker_id, TaskCategory.GENERIC, True)
        rows = component.rows(component.available_slots())
        assert rows.latitude.tolist() == [float(w % 90) for w in range(200)]
        assert component.profiles()[199] == WorkerProfile(199, 19.0, 0.0)
        assert component.history(0).execution_times == [1.0]
        assert component.history(199).execution_times == [200.0]

    def test_repeated_profiles_get_one_row_each(self):
        table = _table(3)
        rows = table.rows([0, 0])
        assert rows.worker_ids.tolist() == [3, 3]
        assert rows.accuracy([TaskCategory.GENERIC]).tolist() == [[0.0], [0.0]]


class TestAvailableCount:
    def test_count_follows_every_writer(self):
        component = _table(0, 1, 2)
        assert component.n_available == 3
        component.assign(0, task_id=1)
        component.set_online(1, False)
        assert component.n_available == 1
        component.assign(2, task_id=2)
        assert component.n_available == 0
        component.release(0)
        component.set_online(1, True)
        assert component.n_available == 2
        component.deregister(0)
        assert component.n_available == 1
        assert _free_count_is_exact(component)

    def test_offline_busy_worker_counts_once_back(self):
        component = _table(0)
        component.assign(0, task_id=1)
        component.set_online(0, False)
        component.complete(0, 4.0, TaskCategory.GENERIC, True)
        assert component.n_available == 0  # free, but still offline
        assert _free_count_is_exact(component)
        component.set_online(0, True)
        assert component.n_available == 1
        assert _free_count_is_exact(component)


class TestDrift:
    def test_free_count_is_recounted_from_the_status_columns(self):
        _engine, server = build_server(n_workers=2)
        table = server.profiling
        table.online[table.slot(1)] = False  # bypasses the writers
        with pytest.raises(InvariantViolation, match="n_available"):
            check_server_invariants(server)

    @pytest.mark.parametrize("censored", [0.0, 12.5])
    def test_censored_observation_reaches_the_row(self, censored):
        component = _table(0)
        component.assign(0, task_id=1)
        component.record_withdrawal(0, elapsed=censored, task_id=1)
        slot = component.slot(0)
        assert component.n_obs[slot] == (1 if censored else 0)
        assert component.history(0).execution_times == ([12.5] if censored else [])
        assert _free_count_is_exact(component)


def test_fit_columns_reset_for_a_new_owner():
    table = _table(0)
    table.claim_fits("first")
    fit = PowerLawFit(alpha=2.5, k_min=3.0, n_samples=3)
    table.set_fit(0, fit)
    table.claim_fits("first")
    assert table.alpha[0] == 2.5 and table.fit[0] is fit
    table.claim_fits("second")
    assert np.isnan(table.alpha[0]) and table.fit_n_obs[0] == -1
    assert table.fit[0] is None


def test_non_power_law_fit_has_nan_parameters():
    table = _table(0)
    fit = EmpiricalFamily().fit([4.0, 5.0, 9.0])
    table.set_fit(0, fit)
    assert table.fit[0] is fit and table.fit_n_obs[0] == 0
    assert np.isnan(table.alpha[0]) and np.isnan(table.k_min[0])


def test_fit_moves_with_its_row_and_leaves_with_it():
    table = _table(*range(40))
    fits = {i: PowerLawFit(alpha=2.0 + i, k_min=1.0, n_samples=3) for i in range(40)}
    for i, fit in fits.items():
        table.set_fit(table.slot(i), fit)
    for i in range(0, 39):  # dead rows outnumber the live: compaction
        table.deregister(i)
    assert table.size < 40  # compacted
    assert table.fit[table.slot(39)] is fits[39]
    assert table.alpha[table.slot(39)] == 41.0
    table.register(WorkerProfile(worker_id=0))  # a returning worker: fresh row
    slot = table.slot(0)
    assert table.fit[slot] is None and table.fit_n_obs[slot] == -1
