"""Unit tests for the Eq. 2/3 deadline estimator."""

import numpy as np
import pytest

from repro.core.deadline import DeadlineEstimator
from repro.model.task import TaskCategory
from repro.model.worker import WorkerProfile
from repro.model.worker_table import WorkerTable
from repro.platform.policies import SchedulingPolicy


def _rows(*histories):
    """Worker-table rows holding ``histories`` (one worker each), recorded
    through the Profiling Component."""
    profiling = WorkerTable()
    for worker_id, times in enumerate(histories):
        profiling.register(WorkerProfile(worker_id=worker_id))
        for t in times:
            profiling.complete(worker_id, t, TaskCategory.GENERIC, True)
    return profiling.rows_of(range(len(histories)))


@pytest.fixture
def estimator():
    return DeadlineEstimator(min_history=3)


class TestTraining:
    def test_untrained_worker_has_no_fit(self, estimator):
        assert estimator.fit_worker([5.0, 6.0]) is None

    def test_trained_worker_fit(self, estimator):
        fit = estimator.fit_worker([5.0, 6.0, 20.0])
        assert fit is not None
        assert fit.k_min == 5.0

    def test_untrained_completion_probability_is_one(self, estimator):
        est = estimator.completion_probability([5.0], 60.0)
        assert est.probability == 1.0
        assert not est.trained

    def test_fit_cache_invalidates_on_new_history(self, estimator):
        # The worker's table row is the fit cache: current until his
        # history grows.
        profiling = WorkerTable()
        profiling.register(WorkerProfile(worker_id=0))
        for t in (5.0, 6.0, 20.0):
            profiling.complete(0, t, TaskCategory.GENERIC, True)
        rows = profiling.rows_of([0])
        ttd = np.array([60.0])
        estimator.completion_probability_matrix(rows, ttd)
        first = rows.fits[0]
        estimator.completion_probability_matrix(rows, ttd)
        assert rows.fits[0] is first  # cached
        assert (estimator.cache_misses, estimator.cache_hits) == (1, 1)
        profiling.complete(0, 50.0, TaskCategory.GENERIC, True)
        estimator.completion_probability_matrix(rows, ttd)
        second = rows.fits[0]
        assert second is not first
        assert second.n_samples == 4
        assert (estimator.cache_misses, estimator.cache_hits) == (2, 1)


class TestEquation3:
    def test_expired_deadline_probability_zero(self, estimator):
        est = estimator.completion_probability([5.0, 6.0, 7.0], -1.0)
        assert est.probability == 0.0

    def test_generous_deadline_high_probability(self, estimator):
        est = estimator.completion_probability([5.0, 6.0, 7.0], 1000.0)
        assert est.probability > 0.9

    def test_deadline_below_typical_time_low_probability(self, estimator):
        # History ~100 s; 50 s deadline is below k_min -> CCDF 1 -> prob 0.
        est = estimator.completion_probability([100.0, 105.0, 110.0], 50.0)
        assert est.probability == 0.0

    def test_matrix_matches_scalar(self, estimator):
        histories = [[5.0, 6.0, 7.0], [50.0, 60.0, 70.0]]
        ttds = np.array([30.0, 80.0, -5.0])
        matrix = estimator.completion_probability_matrix(_rows(*histories), ttds)
        assert matrix.shape == (2, 3)
        for i, worker in enumerate(histories):
            for j, ttd in enumerate(ttds):
                scalar = estimator.completion_probability(worker, float(ttd))
                assert matrix[i, j] == pytest.approx(scalar.probability)

    def test_matrix_untrained_rows_one_except_expired(self, estimator):
        matrix = estimator.completion_probability_matrix(
            _rows([5.0]), np.array([10.0, -1.0, 0.0])
        )
        assert list(matrix[0]) == [1.0, 0.0, 0.0]


class TestEquation2:
    def test_window_shrinks_as_time_passes(self, estimator):
        history = [5.0, 6.0, 7.0, 9.0, 12.0]
        ttd = 60.0
        probs = [
            estimator.window_probability(history, t, ttd).probability
            for t in (0.0, 10.0, 30.0, 55.0)
        ]
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        assert probs[-1] < probs[0]

    def test_empty_window_zero(self, estimator):
        history = [5.0, 6.0, 7.0]
        est = estimator.window_probability(history, elapsed=60.0, time_to_deadline=60.0)
        assert est.probability == 0.0

    def test_negative_elapsed_rejected(self, estimator):
        with pytest.raises(ValueError):
            estimator.window_probability([5.0, 6.0, 7.0], -1.0, 60.0)

    def test_identity_with_ccdf(self, estimator):
        """Eq. 2 equals P(t) - P(TTD) on the fitted CCDF."""
        history = [5.0, 6.0, 7.0, 30.0]
        fit = estimator.fit_worker(history)
        t, ttd = 10.0, 60.0
        expected = float(fit.ccdf(t)) - float(fit.ccdf(ttd))
        est = estimator.window_probability(history, t, ttd)
        assert est.probability == pytest.approx(max(0.0, expected))


class TestReassignmentRule:
    """The sweep pulls a task when Eq. 2 is trained and below the threshold."""

    def test_untrained_never_reassigned(self, estimator):
        est = estimator.window_probability([5.0], 9.0, 10.0)
        assert not est.trained
        assert est.probability == 1.0

    def test_fresh_assignment_not_reassigned(self, estimator):
        history = [5.0, 6.0, 7.0]
        assert estimator.window_probability(history, 1.0, 60.0).probability >= 0.1

    def test_overdue_worker_reassigned(self, estimator):
        # Worker typically finishes in 5-7 s; 50 s elapsed with 60 s budget
        # leaves a sliver of probability mass -> reassign at 10%.
        history = [5.0, 6.0, 7.0]
        est = estimator.window_probability(history, 50.0, 60.0)
        assert est.trained
        assert est.probability < 0.1

    def test_expired_task_left_with_worker(self, estimator):
        """No reassignment once the deadline passed (paper §V-C discussion:
        no other worker could beat it either)."""
        history = [5.0, 6.0, 7.0]
        assert not estimator.window_probability(history, 70.0, 60.0).trained

    def test_threshold_zero_never_fires(self, estimator):
        history = [5.0, 6.0, 7.0]
        assert estimator.window_probability(history, 55.0, 60.0).probability >= 0.0

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError, match="reassign_threshold"):
            SchedulingPolicy(name="bad", reassign_threshold=1.5)

    def test_min_history_zero_activates_immediately(self):
        estimator = DeadlineEstimator(min_history=0)
        history = [5.0]
        assert estimator.fit_worker(history) is not None
