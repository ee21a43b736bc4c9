"""Unit tests for assignment-graph construction (Eq. 3 pruning, cold start,
reward filtering)."""

import numpy as np
import pytest

from repro.core.deadline import DeadlineEstimator
from repro.core.weights import AccuracyWeight, ConstantWeight
from repro.graph.builders import MAX_WEIGHT, AssignmentGraphBuilder, RewardRange
from repro.model.task import Task, TaskCategory
from repro.model.worker import WorkerProfile
from repro.model.worker_table import WorkerTable


def _worker(worker_id, times=(), accuracy_positive=0, assignments=None):
    """A worker for :func:`_rows`: his durations (the first
    ``accuracy_positive`` with positive feedback) and assignment count
    (default: one per duration)."""
    return worker_id, times, accuracy_positive, len(times) if assignments is None else assignments


def _rows(*workers):
    """The workers' table rows, recorded through the Profiling Component."""
    profiling = WorkerTable()
    for worker_id, times, positives, assignments in workers:
        profiling.register(WorkerProfile(worker_id=worker_id))
        for i, t in enumerate(times):
            profiling.complete(worker_id, t, TaskCategory.GENERIC, i < positives)
        for _ in range(assignments):
            profiling.assign(worker_id, task_id=0)
            profiling.release(worker_id)
    return profiling.rows_of([worker[0] for worker in workers])


def _task(deadline=90.0, submitted_at=0.0, reward=0.05):
    return Task(
        latitude=0.0, longitude=0.0, deadline=deadline,
        reward=reward, submitted_at=submitted_at,
    )


@pytest.fixture
def builder():
    return AssignmentGraphBuilder(
        weight_function=AccuracyWeight(),
        estimator=DeadlineEstimator(min_history=3),
        edge_probability_bound=0.1,
    )


class TestColdStart:
    def test_cold_worker_connects_everywhere_with_max_weight(self, builder):
        cold = _worker(0, assignments=0)
        tasks = [_task(), _task()]
        graph, report = builder.build(_rows(cold), tasks, now=0.0)
        assert graph.n_edges == 2
        assert np.all(graph.edge_weights == MAX_WEIGHT)
        assert report.cold_start_workers == 1

    def test_cold_worker_skips_expired_tasks(self, builder):
        cold = _worker(0, assignments=0)
        expired = _task(deadline=10.0, submitted_at=0.0)
        graph, _ = builder.build(_rows(cold), [expired], now=50.0)
        assert graph.n_edges == 0

    def test_worker_with_z_assignments_not_cold(self, builder):
        # 3 assignments but no completions: no boost, accuracy weight 0.
        veteran = _worker(0, assignments=3)
        graph, report = builder.build(_rows(veteran), [_task()], now=0.0)
        assert report.cold_start_workers == 0
        # no history -> estimator says prob 1.0 -> edge kept at weight 0
        assert graph.n_edges == 1
        assert graph.edge_weights[0] == 0.0


class TestProbabilisticPruning:
    def test_slow_worker_pruned_for_tight_deadline(self, builder):
        # History of ~100 s holds; a 60 s deadline is hopeless (Eq. 3 = 0).
        slow = _worker(0, times=(100.0, 105.0, 110.0))
        graph, report = builder.build(_rows(slow), [_task(deadline=60.0)], now=0.0)
        assert graph.n_edges == 0
        assert report.pruned_by_probability >= 1

    def test_fast_worker_kept(self, builder):
        fast = _worker(0, times=(5.0, 6.0, 7.0), accuracy_positive=3)
        graph, _ = builder.build(_rows(fast), [_task(deadline=60.0)], now=0.0)
        assert graph.n_edges == 1

    def test_bound_zero_keeps_all_nonexpired(self):
        builder = AssignmentGraphBuilder(
            weight_function=ConstantWeight(0.5),
            estimator=DeadlineEstimator(min_history=3),
            edge_probability_bound=0.0,
        )
        slow = _worker(0, times=(100.0, 105.0, 110.0))
        graph, _ = builder.build(_rows(slow), [_task(deadline=60.0)], now=0.0)
        assert graph.n_edges == 1

    def test_expired_task_gets_no_edges_from_trained(self, builder):
        fast = _worker(0, times=(5.0, 6.0, 7.0))
        graph, _ = builder.build(_rows(fast), [_task(deadline=30.0)], now=60.0)
        assert graph.n_edges == 0


class TestWeights:
    def test_accuracy_weight_applied(self, builder):
        worker = _worker(0, times=(5.0, 6.0, 7.0), accuracy_positive=2)
        graph, _ = builder.build(_rows(worker), [_task()], now=0.0)
        assert graph.edge_weights[0] == pytest.approx(2 / 3)

    def test_weight_shape_mismatch_detected(self):
        class Broken(AccuracyWeight):
            def matrix(self, workers, tasks):
                return np.zeros((1, 1))

        builder = AssignmentGraphBuilder(
            weight_function=Broken(), estimator=DeadlineEstimator()
        )
        workers = [_worker(0, times=(5.0, 6.0, 7.0)), _worker(1, times=(5.0, 6.0, 7.0))]
        with pytest.raises(ValueError, match="shape"):
            builder.build(_rows(*workers), [_task()], now=0.0)


class TestRewardFiltering:
    def test_reward_range_prunes_edges(self):
        builder = AssignmentGraphBuilder(
            weight_function=ConstantWeight(0.5),
            estimator=DeadlineEstimator(min_history=3),
            edge_probability_bound=0.0,
            reward_ranges={0: RewardRange(low=0.10, high=1.0)},
        )
        picky = _worker(0, times=(5.0, 6.0, 7.0))
        cheap = _task(reward=0.05)
        rich = _task(reward=0.20)
        graph, report = builder.build(_rows(picky), [cheap, rich], now=0.0)
        assert graph.n_edges == 1
        assert graph.edge_tasks[0] == 1
        assert report.pruned_by_reward == 1

    def test_workers_without_range_unaffected(self):
        builder = AssignmentGraphBuilder(
            weight_function=ConstantWeight(0.5),
            estimator=DeadlineEstimator(min_history=3),
            edge_probability_bound=0.0,
            reward_ranges={99: RewardRange(low=0.10)},
        )
        worker = _worker(0, times=(5.0, 6.0, 7.0))
        graph, _ = builder.build(_rows(worker), [_task(reward=0.01)], now=0.0)
        assert graph.n_edges == 1

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            RewardRange(low=0.5, high=0.1)


class TestEmptyInputs:
    def test_no_workers(self, builder):
        graph, report = builder.build(_rows(), [_task()], now=0.0)
        assert graph.is_empty
        assert report.candidate_edges == 0

    def test_no_tasks(self, builder):
        graph, _ = builder.build(_rows(_worker(0)), [], now=0.0)
        assert graph.is_empty

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            AssignmentGraphBuilder(
                weight_function=AccuracyWeight(),
                estimator=DeadlineEstimator(),
                edge_probability_bound=1.5,
            )
