"""Unit tests for event primitives: the order the engine gives them and
the handle it returns."""

from repro.sim.events import EventKind


def _fired_order(engine, specs):
    """Schedule ``(time, kind, label)`` specs in order; return the labels
    in the order they fire."""
    fired = []
    for time, kind, label in specs:
        engine.schedule_at(time, kind, lambda e: fired.append(e.payload), payload=label)
    engine.run()
    return fired


class TestEventOrdering:
    def test_orders_by_time(self, engine):
        specs = [(2.0, EventKind.CALLBACK, "late"), (1.0, EventKind.CALLBACK, "early")]
        assert _fired_order(engine, specs) == ["early", "late"]

    def test_priority_breaks_time_ties(self, engine):
        specs = [
            (5.0, EventKind.BATCH_TRIGGER, "batch"),
            (5.0, EventKind.TASK_ARRIVAL, "arrival"),
            (5.0, EventKind.TASK_COMPLETION, "completion"),
        ]
        assert _fired_order(engine, specs) == ["completion", "arrival", "batch"]

    def test_sequence_breaks_full_ties(self, engine):
        specs = [(5.0, EventKind.CALLBACK, "first"), (5.0, EventKind.CALLBACK, "second")]
        assert _fired_order(engine, specs) == ["first", "second"]


class TestCancellation:
    def test_cancel_sets_flag(self, engine):
        event = engine.schedule(1.0, EventKind.CALLBACK, lambda e: None)
        assert not event.cancelled
        engine.cancel(event)
        assert event.cancelled


class TestEventKindPriorities:
    def test_completion_precedes_batch_events(self):
        """Completions must be visible before a same-instant batch decision."""
        assert EventKind.TASK_COMPLETION < EventKind.BATCH_TRIGGER
        assert EventKind.TASK_COMPLETION < EventKind.BATCH_COMPLETE

    def test_arrival_precedes_batch_trigger(self):
        assert EventKind.TASK_ARRIVAL < EventKind.BATCH_TRIGGER

    def test_reassignment_check_precedes_batch(self):
        """Withdrawals at time t should be seen by the batch at time t."""
        assert EventKind.REASSIGNMENT_CHECK < EventKind.BATCH_TRIGGER
