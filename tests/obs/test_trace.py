"""Unit tests for the sim-time tracer."""

from repro.obs.trace import (
    NULL_TRACER,
    TraceEvent,
    Tracer,
    worker_track,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestRecording:
    def test_instant_stamps_sim_time(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        clock.now = 12.5
        tracer.instant("task.submitted", cat="task", task_id=7)
        (event,) = tracer.events
        assert event.ph == "i"
        assert event.ts == 12.5
        assert dict(event.args) == {"task_id": 7}

    def test_complete_records_duration(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        clock.now = 30.0
        tracer.complete("batch", start=10.0, cat="scheduler")
        (event,) = tracer.events
        assert event.ph == "X"
        assert event.ts == 10.0
        assert event.dur == 20.0

    def test_negative_duration_clamped(self):
        tracer = Tracer(clock=lambda: 0.0)
        tracer.complete("x", start=5.0, end=1.0)
        assert tracer.events[0].dur == 0.0

    def test_set_clock_late_binding(self):
        tracer = Tracer()
        tracer.set_clock(lambda: 42.0)
        tracer.instant("x")
        assert tracer.events[0].ts == 42.0

    def test_query_helpers(self):
        tracer = Tracer(clock=lambda: 0.0)
        tracer.instant("a", cat="one")
        tracer.instant("b", cat="two")
        tracer.instant("a", cat="two")
        assert [e.cat for e in tracer.by_name("a")] == ["one", "two"]
        assert len(tracer) == 3


class TestRingBuffer:
    def test_oldest_events_evicted_at_capacity(self):
        tracer = Tracer(clock=lambda: 0.0, max_events=3)
        for i in range(5):
            tracer.instant(f"e{i}")
        assert [e.name for e in tracer.events] == ["e2", "e3", "e4"]
        assert tracer.dropped == 2
        assert tracer.recorded == 5

    def test_unbounded_when_max_events_none(self):
        tracer = Tracer(clock=lambda: 0.0, max_events=None)
        for i in range(10):
            tracer.instant("e")
        assert len(tracer) == 10 and tracer.dropped == 0


class TestEventSerialization:
    def test_round_trip(self):
        event = TraceEvent(
            name="batch", cat="scheduler", ph="X", ts=1.5, dur=0.5, tid=1,
            args=(("matched", 3),),
        )
        assert TraceEvent.from_dict(event.to_dict()) == event


class TestNullTracer:
    def test_all_methods_are_noops(self):
        NULL_TRACER.instant("x", cat="c", a=1)
        NULL_TRACER.complete("x", start=0.0)
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.by_name("x") == []
        assert NULL_TRACER.recorded == 0


def test_worker_track_offset():
    assert worker_track(0) == 100
    assert worker_track(7) == 107
