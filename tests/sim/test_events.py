"""Unit tests for event primitives."""

import pytest

from repro.sim.events import Event, EventKind


def _noop(event):
    pass


class TestEventOrdering:
    def test_orders_by_time(self):
        early = Event(time=1.0, kind=EventKind.CALLBACK, callback=_noop)
        late = Event(time=2.0, kind=EventKind.CALLBACK, callback=_noop)
        assert early < late
        assert not late < early

    def test_priority_breaks_time_ties(self):
        completion = Event(time=5.0, kind=EventKind.TASK_COMPLETION, callback=_noop)
        arrival = Event(time=5.0, kind=EventKind.TASK_ARRIVAL, callback=_noop)
        batch = Event(time=5.0, kind=EventKind.BATCH_TRIGGER, callback=_noop)
        assert completion < arrival < batch

    def test_sequence_breaks_full_ties(self):
        first = Event(time=5.0, kind=EventKind.CALLBACK, callback=_noop)
        second = Event(time=5.0, kind=EventKind.CALLBACK, callback=_noop)
        assert first < second
        assert first.seq < second.seq

    def test_explicit_priority_overrides_kind(self):
        urgent = Event(
            time=5.0, kind=EventKind.CALLBACK, callback=_noop, priority=0
        )
        normal = Event(time=5.0, kind=EventKind.TASK_COMPLETION, callback=_noop)
        assert urgent.sort_key() < normal.sort_key()


class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Event(time=-1.0, kind=EventKind.CALLBACK, callback=_noop)

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Event(time=float("nan"), kind=EventKind.CALLBACK, callback=_noop)

    def test_default_priority_from_kind(self):
        event = Event(time=0.0, kind=EventKind.BATCH_TRIGGER, callback=_noop)
        assert event.priority == int(EventKind.BATCH_TRIGGER)


class TestCancellation:
    def test_cancel_sets_flag(self):
        event = Event(time=0.0, kind=EventKind.CALLBACK, callback=_noop)
        assert not event.cancelled
        event.cancel()
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
