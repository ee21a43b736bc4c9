"""Unit tests for the discrete-event engine."""

import math

import pytest

from repro.sim.engine import SimulationError
from repro.sim.events import EventKind


class TestScheduling:
    def test_events_fire_in_time_order(self, engine):
        fired = []
        engine.schedule(3.0, EventKind.CALLBACK, lambda e: fired.append("c"))
        engine.schedule(1.0, EventKind.CALLBACK, lambda e: fired.append("a"))
        engine.schedule(2.0, EventKind.CALLBACK, lambda e: fired.append("b"))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, engine):
        times = []
        engine.schedule(2.5, EventKind.CALLBACK, lambda e: times.append(engine.now))
        engine.run()
        assert times == [2.5]
        assert engine.now == 2.5

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError, match="past"):
            engine.schedule(-0.1, EventKind.CALLBACK, lambda e: None)

    def test_schedule_at_absolute_time(self, engine):
        fired = []
        engine.schedule_at(4.0, EventKind.CALLBACK, lambda e: fired.append(engine.now))
        engine.run()
        assert fired == [4.0]

    def test_schedule_at_past_rejected(self, engine):
        engine.schedule(5.0, EventKind.CALLBACK, lambda e: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, EventKind.CALLBACK, lambda e: None)

    def test_nan_delay_rejected(self, engine):
        with pytest.raises(SimulationError, match="past"):
            engine.schedule(float("nan"), EventKind.CALLBACK, lambda e: None)

    def test_schedule_at_nan_rejected(self, engine):
        with pytest.raises(SimulationError, match="before now"):
            engine.schedule_at(float("nan"), EventKind.CALLBACK, lambda e: None)

    def test_nan_time_cannot_break_dispatch_order(self, engine):
        # A NaN key compares False both ways, so a heap holding one can
        # dispatch out of time order and leave the clock at NaN.
        fired = []
        for t in (1.0, 3.0, float("nan"), 5.0):
            try:
                engine.schedule_at(t, EventKind.CALLBACK, lambda e: fired.append(engine.now))
            except SimulationError:
                pass
        engine.run()
        assert fired == [1.0, 3.0, 5.0]
        assert engine.now == 5.0

    def test_zero_delay_fires_at_current_time(self, engine):
        fired = []

        def chain(event):
            if len(fired) < 3:
                fired.append(engine.now)
                engine.schedule(0.0, EventKind.CALLBACK, chain)

        engine.schedule(1.0, EventKind.CALLBACK, chain)
        engine.run()
        assert fired == [1.0, 1.0, 1.0]

    def test_payload_delivered(self, engine):
        received = []
        engine.schedule(
            1.0, EventKind.CALLBACK, lambda e: received.append(e.payload), payload=42
        )
        engine.run()
        assert received == [42]


class TestRunControl:
    def test_until_pauses_and_resumes(self, engine):
        fired = []
        engine.schedule(1.0, EventKind.CALLBACK, lambda e: fired.append(1))
        engine.schedule(5.0, EventKind.CALLBACK, lambda e: fired.append(5))
        end = engine.run(until=2.0)
        assert end == 2.0
        assert fired == [1]
        engine.run()
        assert fired == [1, 5]

    def test_until_advances_clock_when_heap_drains(self, engine):
        engine.schedule(1.0, EventKind.CALLBACK, lambda e: None)
        end = engine.run(until=10.0)
        assert end == 10.0
        assert engine.now == 10.0

    def test_stop_halts_loop(self, engine):
        fired = []

        def stopper(event):
            fired.append(engine.now)
            engine.stop()

        engine.schedule(1.0, EventKind.CALLBACK, stopper)
        engine.schedule(2.0, EventKind.CALLBACK, lambda e: fired.append(engine.now))
        engine.run()
        assert fired == [1.0]

    def test_run_not_reentrant(self, engine):
        def reenter(event):
            with pytest.raises(SimulationError, match="reentrant"):
                engine.run()

        engine.schedule(1.0, EventKind.CALLBACK, reenter)
        engine.run()

    def test_nan_until_rejected(self, engine):
        """A NaN horizon compares False with every event time, so a run
        with a periodic process would never stop."""
        fired = []
        engine.schedule(1.0, EventKind.CALLBACK, fired.append)
        with pytest.raises(SimulationError, match="NaN"):
            engine.run(until=math.nan)
        assert fired == []


class TestCancellation:
    def test_cancelled_event_skipped(self, engine):
        fired = []
        event = engine.schedule(1.0, EventKind.CALLBACK, lambda e: fired.append(1))
        engine.cancel(event)
        engine.run()
        assert fired == []
        assert engine.dispatched == 0

    def test_peek_time_skips_cancelled(self, engine):
        first = engine.schedule(1.0, EventKind.CALLBACK, lambda e: None)
        engine.schedule(2.0, EventKind.CALLBACK, lambda e: None)
        engine.cancel(first)
        assert engine.peek_time() == 2.0


class TestTracing:
    def test_same_time_priority_dispatch_order(self, engine):
        fired = []
        engine.schedule(1.0, EventKind.BATCH_TRIGGER, lambda e: fired.append("batch"))
        engine.schedule(1.0, EventKind.TASK_COMPLETION, lambda e: fired.append("done"))
        engine.schedule(1.0, EventKind.TASK_ARRIVAL, lambda e: fired.append("arrive"))
        engine.run()
        assert fired == ["done", "arrive", "batch"]


class TestDrain:
    def test_drain_yields_pending_non_cancelled(self, engine):
        fired = []
        keep = engine.schedule(1.0, EventKind.CALLBACK, fired.append, payload=object())
        drop = engine.schedule(2.0, EventKind.CALLBACK, fired.append)
        engine.cancel(drop)
        assert engine.drain() == 1
        assert engine.pending == 0
        # A dropped event is disarmed: its callback no longer reaches the
        # caller and its payload is released.
        keep.callback(keep)
        assert fired == [] and keep.payload is None
        engine.run()
        assert engine.dispatched == 0
