"""Unit tests for the metrics collector."""

import pytest

from repro.stats.metrics import MetricsCollector, TaskOutcome


def _outcome(task_id=0, met=True, positive=True, completed=10.0, **kw):
    defaults = dict(
        task_id=task_id,
        submitted_at=0.0,
        completed_at=completed,
        deadline=60.0,
        met_deadline=met,
        positive_feedback=positive,
        assignments=1,
        final_worker=1,
        worker_time=5.0,
        total_time=10.0,
    )
    defaults.update(kw)
    return TaskOutcome(**defaults)


class TestCounting:
    def test_completion_updates_series(self):
        m = MetricsCollector()
        for _ in range(3):
            m.record_received()
        m.record_completion(_outcome(0, met=True, positive=True))
        m.record_completion(_outcome(1, met=False, positive=False))
        assert m.completed == 2
        assert m.completed_on_time == 1
        assert m.positive_feedbacks == 1
        assert m.deadline_series == [(3, 1), (3, 1)]
        assert m.feedback_series == [(3, 1), (3, 1)]

    def test_on_time_fraction_over_received(self):
        """Figs. 9-10 normalize by *received*, not completed."""
        m = MetricsCollector()
        for _ in range(4):
            m.record_received()
        m.record_completion(_outcome(met=True))
        assert m.on_time_fraction == 0.25
        assert m.positive_feedback_fraction == 0.25

    def test_empty_fractions_zero(self):
        m = MetricsCollector()
        assert m.on_time_fraction == 0.0
        assert m.positive_feedback_fraction == 0.0

    def test_reassignment_counting(self):
        m = MetricsCollector()
        m.record_assignment(first=True)
        m.record_assignment(first=False)
        m.record_assignment(first=False)
        assert m.assigned == 3
        assert m.reassignments == 2

    def test_matcher_accounting(self):
        m = MetricsCollector()
        m.record_matcher_run(1.5)
        m.record_matcher_run(0.5)
        assert m.matcher_invocations == 2
        assert m.matcher_simulated_seconds == 2.0


class TestAverages:
    def test_average_worker_time(self):
        m = MetricsCollector()
        m.record_received()
        m.record_received()
        m.record_completion(_outcome(0, worker_time=4.0))
        m.record_completion(_outcome(1, worker_time=8.0))
        assert m.average_worker_time() == 6.0

    def test_averages_none_when_empty(self):
        m = MetricsCollector()
        assert m.average_worker_time() is None
        assert m.average_total_time() is None

    def test_expired_tasks_excluded_from_averages(self):
        m = MetricsCollector()
        m.record_received()
        m.record_expired_unassigned(
            _outcome(0, met=False, positive=False, completed=None,
                     worker_time=None, total_time=None)
        )
        assert m.average_worker_time() is None
        assert m.expired_unassigned == 1


class TestConservation:
    def test_valid_accounting_passes(self):
        m = MetricsCollector()
        m.record_received()
        m.record_received()
        m.record_completion(_outcome(0))
        m.check_conservation()

    def test_overcount_detected(self):
        m = MetricsCollector()
        m.record_completion(_outcome(0))
        with pytest.raises(AssertionError, match="accounting"):
            m.check_conservation()

    def test_summary_keys_stable(self):
        m = MetricsCollector()
        summary = m.summary()
        expected = {
            "received", "completed", "completed_on_time", "on_time_fraction",
            "positive_feedbacks", "positive_feedback_fraction", "reassignments",
            "expired_unassigned", "expiry_returns", "avg_worker_time",
            "avg_total_time", "matcher_invocations", "matcher_simulated_seconds",
        }
        assert expected <= set(summary)
