"""Boundary semantics of the event loop at coincident instants.

Pins the contracts of the plain ``(time, kind, seq)`` loop: ``until``
inclusivity at exactly the head time, a cancellation inside a coincident
group, stop/resume mid-instant reproducing the ``(time, kind, seq)``
dispatch order, preemption by a same-time higher-priority event, and
``pending_active``/``peek_time`` consistency.  Test names say *cohort* for
the events that share one ``(time, kind)``.
"""

from repro.sim.events import EventKind

BATCH = EventKind.BATCH_TRIGGER


def _label(fired, name):
    return lambda event: fired.append(name)


def _record(fired):
    return lambda event: fired.append(event.payload)


class TestUntilBoundary:
    def test_until_equal_to_head_time_fires_head(self, engine):
        fired = []
        engine.schedule(5.0, EventKind.CALLBACK, _label(fired, "at"))
        engine.schedule(5.0 + 1e-9, EventKind.CALLBACK, _label(fired, "after"))
        stopped_at = engine.run(until=5.0)
        assert fired == ["at"]
        assert stopped_at == 5.0 and engine.now == 5.0
        engine.run()
        assert fired == ["at", "after"]

    def test_until_equal_to_cohort_time_fires_whole_cohort(self, engine):
        """Every event of the instant at exactly ``until`` fires."""
        fired = []
        for name in ("x", "y", "z"):
            engine.schedule(2.0, EventKind.CALLBACK, _record(fired), payload=name)
        engine.schedule(2.0 + 1e-9, EventKind.CALLBACK, _label(fired, "later"))
        engine.run(until=2.0)
        assert fired == ["x", "y", "z"]
        assert engine.now == 2.0
        engine.run()
        assert fired == ["x", "y", "z", "later"]

    def test_until_past_drained_heap_advances_clock(self, engine):
        engine.schedule(1.0, EventKind.CALLBACK, lambda e: None)
        assert engine.run(until=10.0) == 10.0
        assert engine.now == 10.0


class TestCancellationInsideACohort:
    def test_cancelled_cohort_member_skipped_inside_batch(self, engine):
        """An earlier coincident event cancelling a later one is honoured."""
        fired = []
        victim = {}

        def killer(event):
            fired.append("killer")
            engine.cancel(victim["event"])

        # Same (time, kind): the killer was scheduled first.
        engine.schedule(1.0, EventKind.CALLBACK, killer)
        engine.schedule(1.0, EventKind.CALLBACK, _record(fired), payload="a")
        victim["event"] = engine.schedule(1.0, EventKind.CALLBACK, _record(fired), payload="b")
        engine.schedule(1.0, EventKind.CALLBACK, _record(fired), payload="c")
        engine.run()
        assert fired == ["killer", "a", "c"]
        assert engine.dispatched == 3


class TestStopResumeAcrossCohorts:
    def test_stop_mid_cohort_resumes_in_sequential_order(self, engine):
        """``stop()`` mid-instant leaves the rest queued; the next run
        resumes in ``(time, kind, seq)`` order."""
        fired = []

        def stopper(event):
            fired.append("s")
            engine.stop()

        engine.schedule(1.0, BATCH, _record(fired), payload="a0")
        engine.schedule(1.0, BATCH, stopper)
        engine.schedule(1.0, BATCH, _record(fired), payload="a1")
        engine.schedule(1.0, EventKind.BATCH_COMPLETE, _record(fired), payload="b")
        engine.schedule(1.0, BATCH, _record(fired), payload="a2")
        engine.run()
        assert fired == ["a0", "s"]
        assert engine.now == 1.0
        engine.run()
        assert fired == ["a0", "s", "a1", "a2", "b"]

    def test_cohort_dispatch_order_matches_sequential(self, engine):
        """Dispatch order is the sorted ``(time, kind, seq)`` order."""
        fired = []
        keys = [(1.0, 5), (1.0, 5), (2.0, 0), (1.0, 3), (1.0, 5), (0.5, 9), (1.0, 3)]
        for i, (time, kind) in enumerate(keys):
            engine.schedule(time, EventKind(kind), _record(fired), payload=i)
        engine.run()
        expected = sorted(range(len(keys)), key=lambda i: (*keys[i], i))
        assert fired == expected == [5, 3, 6, 0, 1, 4, 2]

    def test_same_time_higher_priority_event_preempts_cohort(self, engine):
        """An event scheduling a same-time higher-priority event yields to
        it before the rest of its coincident group."""
        fired = []

        def first(event):
            fired.append("a1")
            engine.schedule(0.0, EventKind.TASK_COMPLETION, _label(fired, "urgent"))
            engine.schedule(0.0, BATCH, _label(fired, "tail"))

        engine.schedule(1.0, BATCH, first)
        engine.schedule(1.0, BATCH, _record(fired), payload="b1")
        engine.schedule(1.0, BATCH, _record(fired), payload="b2")
        engine.run()
        assert fired == ["a1", "urgent", "b1", "b2", "tail"]


class TestPendingActiveAndPeek:
    def test_pending_active_excludes_cancelled(self, engine):
        events = [
            engine.schedule(float(i + 1), EventKind.CALLBACK, lambda e: None)
            for i in range(3)
        ]
        assert engine.pending == 3 and engine.pending_active == 3
        engine.cancel(events[1])
        assert engine.pending == 3
        assert engine.pending_active == 2

    def test_peek_time_pops_cancelled_heads_consistently(self, engine):
        head = engine.schedule(1.0, EventKind.CALLBACK, lambda e: None)
        engine.schedule(2.0, EventKind.CALLBACK, lambda e: None)
        engine.cancel(head)
        assert engine.peek_time() == 2.0
        # The lazy pop removed the cancelled head: both counters agree now.
        assert engine.pending == engine.pending_active == 1
