"""Unit tests for the columnar worker table and its single writer."""

import numpy as np
import pytest

from repro.core.weights import AccuracyWeight
from repro.model.task import Task, TaskCategory
from repro.model.worker import CategoryStats, WorkerProfile
from repro.model.worker_table import (
    CATEGORY_INDEX,
    WorkerTable,
    as_rows,
    profile_mismatches,
)
from repro.platform.profiling import ProfilingComponent
from repro.stats.duration_models import EmpiricalFamily
from repro.stats.powerlaw import PowerLawFit


def _component(n):
    component = ProfilingComponent()
    for worker_id in range(n):
        component.register(WorkerProfile(worker_id=worker_id))
    return component


def _ids(component):
    return component.table.rows(component.available_workers()).worker_ids.tolist()


def _in_sync(component):
    return profile_mismatches(component.table, list(component)) == []


class TestAccuracyColumn:
    """The accuracy column stays in lock-step with ``category_stats`` (the
    source of truth): the per-batch Eq. 1 weight matrix reads the column, so
    divergence would silently change matching decisions."""

    def test_column_tracks_every_completion(self):
        component = _component(2)
        column = CATEGORY_INDEX[TaskCategory.PRICE_CHECK]
        for positive in (True, False, True, True, False):
            component.record_assignment(1, task_id=1)
            component.record_completion(1, 5.0, TaskCategory.PRICE_CHECK, positive)
            stats = component.get(1).category_stats[TaskCategory.PRICE_CHECK]
            slot = component.table.slot(1)
            assert component.table.accuracy[slot, column] == stats.accuracy
        assert component.get(1).accuracy(TaskCategory.PRICE_CHECK) == 0.6
        assert _in_sync(component)

    def test_constructor_injected_stats_seed_the_row(self):
        stats = CategoryStats(positive=3, finished=4)
        profile = WorkerProfile(worker_id=1, category_stats={TaskCategory.GENERIC: stats})
        table = WorkerTable.from_profiles([profile])
        assert table.accuracy[0, CATEGORY_INDEX[TaskCategory.GENERIC]] == 0.75
        assert profile.accuracy(TaskCategory.GENERIC) == 0.75

    def test_unknown_category_reads_zero(self):
        profile = WorkerProfile(worker_id=1)
        profile.record_completion(5.0, TaskCategory.GENERIC, True)
        assert profile.accuracy(TaskCategory.ENTERTAINMENT) == 0.0
        rows = as_rows([profile])
        assert rows.accuracy([TaskCategory.ENTERTAINMENT, TaskCategory.GENERIC]).tolist() == [
            [0.0, 1.0]
        ]

    def test_weight_matrix_agrees_with_category_stats(self):
        profile = WorkerProfile(worker_id=1)
        for positive in (True, True, False):
            profile.record_completion(5.0, TaskCategory.IMAGE_LABELING, positive)
        task = Task(
            latitude=0.0,
            longitude=0.0,
            deadline=60.0,
            category=TaskCategory.IMAGE_LABELING,
        )
        matrix = AccuracyWeight().matrix([profile], [task])
        truth = profile.category_stats[TaskCategory.IMAGE_LABELING].accuracy
        assert matrix[0, 0] == truth == 2.0 / 3.0


class TestSlotOrder:
    def test_returning_worker_is_last(self):
        component = _component(4)
        profile = component.deregister(1)
        component.register(profile)
        assert _ids(component) == [0, 2, 3, 1]
        assert _in_sync(component)

    def test_compaction_keeps_registration_order(self):
        component = _component(100)
        departed = [component.deregister(w) for w in range(0, 100, 3)]
        departed += [component.deregister(w) for w in range(1, 100, 3)]
        assert component.table.size < 100  # dead rows were squeezed out
        for profile in departed[::2]:
            component.register(profile)
        expected = list(range(2, 100, 3)) + [p.worker_id for p in departed[::2]]
        assert _ids(component) == expected
        assert [p.worker_id for p in component] == expected
        assert _in_sync(component)

    def test_growth_keeps_rows(self):
        component = ProfilingComponent()
        for worker_id in range(200):
            profile = WorkerProfile(worker_id=worker_id, latitude=float(worker_id))
            component.register(profile)
        rows = component.table.rows(component.available_workers())
        assert rows.latitude.tolist() == [float(w) for w in range(200)]
        assert _in_sync(component)

    def test_repeated_profiles_get_one_row_each(self):
        profile = WorkerProfile(worker_id=3)
        rows = as_rows([profile, profile])
        assert rows.worker_ids.tolist() == [3, 3]
        assert rows.profiles.tolist() == [profile, profile]


class TestAvailableCount:
    def test_count_follows_every_writer(self):
        component = _component(3)
        assert component.available_count == 3
        component.record_assignment(0, task_id=1)
        component.set_online(1, False)
        assert component.available_count == 1
        assert component.any_available()
        component.record_assignment(2, task_id=2)
        assert not component.any_available()
        component.release(0)
        component.set_online(1, True)
        assert component.available_count == 2
        component.deregister(0)
        assert component.available_count == 1
        assert _in_sync(component)

    def test_offline_busy_worker_counts_once_back(self):
        component = _component(1)
        component.record_assignment(0, task_id=1)
        component.set_online(0, False)
        component.record_completion(0, 4.0, TaskCategory.GENERIC, True)
        assert component.available_count == 0  # free, but still offline
        assert _in_sync(component)
        component.set_online(0, True)
        assert component.available_count == 1
        assert _in_sync(component)


class TestDrift:
    def test_direct_profile_write_is_reported(self):
        component = _component(2)
        component.get(1).online = False
        problems = profile_mismatches(component.table, list(component))
        assert any("online" in problem for problem in problems)

    def test_history_written_around_the_component_is_reported(self):
        component = _component(1)
        component.get(0).record_completion(3.0, TaskCategory.GENERIC, True)
        problems = profile_mismatches(component.table, list(component))
        assert any("n_obs" in problem for problem in problems)
        assert any("accuracy" in problem for problem in problems)

    @pytest.mark.parametrize("censored", [0.0, 12.5])
    def test_censored_observation_reaches_the_row(self, censored):
        component = _component(1)
        component.record_assignment(0, task_id=1)
        component.record_withdrawal(0, elapsed=censored, task_id=1)
        slot = component.table.slot(0)
        assert component.table.n_obs[slot] == (1 if censored else 0)
        assert _in_sync(component)


def test_fit_columns_reset_for_a_new_owner():
    table = WorkerTable.from_profiles([WorkerProfile(worker_id=0)])
    table.claim_fits("first")
    fit = PowerLawFit(alpha=2.5, k_min=3.0, n_samples=3)
    table.set_fit(0, fit)
    table.claim_fits("first")
    assert table.alpha[0] == 2.5 and table.fit[0] is fit
    table.claim_fits("second")
    assert np.isnan(table.alpha[0]) and table.fit_n_obs[0] == -1
    assert table.fit[0] is None


def test_non_power_law_fit_has_nan_parameters():
    table = WorkerTable.from_profiles([WorkerProfile(worker_id=0)])
    fit = EmpiricalFamily().fit([4.0, 5.0, 9.0])
    table.set_fit(0, fit)
    assert table.fit[0] is fit and table.fit_n_obs[0] == 0
    assert np.isnan(table.alpha[0]) and np.isnan(table.k_min[0])


def test_fit_moves_with_its_row_and_leaves_with_it():
    table = WorkerTable.from_profiles([WorkerProfile(worker_id=i) for i in range(40)])
    fits = {i: PowerLawFit(alpha=2.0 + i, k_min=1.0, n_samples=3) for i in range(40)}
    for i, fit in fits.items():
        table.set_fit(table.slot(i), fit)
    for i in range(0, 39):  # dead rows outnumber the live: compaction
        table.remove(i)
    assert table.size < 40  # compacted
    assert table.fit[table.slot(39)] is fits[39]
    assert table.alpha[table.slot(39)] == 41.0
    table.append(WorkerProfile(worker_id=0))  # a returning worker: fresh row
    slot = table.slot(0)
    assert table.fit[slot] is None and table.fit_n_obs[slot] == -1
