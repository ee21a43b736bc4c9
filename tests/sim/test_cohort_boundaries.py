"""Boundary semantics of the event loop at coincident instants.

Pins the contracts of the plain ``(time, priority, seq)`` loop: ``until``
inclusivity at exactly the head time, ``max_events`` accounting in the
presence of cancelled events (including a cap inside a coincident group),
stop/resume mid-instant reproducing the ``(time, priority, seq)`` dispatch
order, preemption by a same-time higher-priority event, and the
cancellation bookkeeping: ``pending_active``/``peek_time`` consistency and
in-place heap compaction under a running loop.  Test names say *cohort*
for the events that share one ``(time, priority)``.
"""

from repro.sim.engine import COMPACT_MIN_PENDING
from repro.sim.events import EventKind


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


class TestMaxEventsWithCancellation:
    def test_cancelled_events_do_not_consume_budget(self, engine):
        fired = []
        events = [
            engine.schedule(1.0, EventKind.CALLBACK, _label(fired, f"e{i}"))
            for i in range(5)
        ]
        events[0].cancel()
        events[2].cancel()
        engine.run(max_events=2)
        assert fired == ["e1", "e3"]
        assert engine.dispatched == 2
        engine.run()
        assert fired == ["e1", "e3", "e4"]

    def test_budget_caps_cohort_and_remainder_resumes(self, engine):
        """``max_events`` stops inside a coincident group; the rest of the
        group fires on the next run, in seq order."""
        fired = []
        for i in range(4):
            engine.schedule(1.0, EventKind.CALLBACK, _record(fired), payload=i)
        engine.run(max_events=2)
        assert fired == [0, 1]
        assert engine.now == 1.0
        engine.run()
        assert fired == [0, 1, 2, 3]

    def test_cancelled_cohort_member_skipped_inside_batch(self, engine):
        """An earlier coincident event cancelling a later one is honoured."""
        fired = []
        victim = {}

        def killer(event):
            fired.append("killer")
            victim["event"].cancel()

        # Same (time, priority): the killer has the smallest seq.
        engine.schedule(1.0, EventKind.CALLBACK, killer, priority=7)
        engine.schedule(1.0, EventKind.CALLBACK, _record(fired), payload="a", priority=7)
        victim["event"] = engine.schedule(
            1.0, EventKind.CALLBACK, _record(fired), payload="b", priority=7
        )
        engine.schedule(1.0, EventKind.CALLBACK, _record(fired), payload="c", priority=7)
        engine.run()
        assert fired == ["killer", "a", "c"]
        assert engine.dispatched == 3


class TestStopResumeAcrossCohorts:
    def test_stop_mid_cohort_resumes_in_sequential_order(self, engine):
        """``stop()`` mid-instant leaves the rest queued; the next run
        resumes in ``(time, priority, seq)`` order."""
        fired = []

        def stopper(event):
            fired.append("s")
            engine.stop()

        engine.schedule(1.0, EventKind.CALLBACK, _record(fired), payload="a0", priority=5)
        engine.schedule(1.0, EventKind.CALLBACK, stopper, priority=5)
        engine.schedule(1.0, EventKind.CALLBACK, _record(fired), payload="a1", priority=5)
        engine.schedule(1.0, EventKind.CALLBACK, _record(fired), payload="b", priority=6)
        engine.schedule(1.0, EventKind.CALLBACK, _record(fired), payload="a2", priority=5)
        engine.run()
        assert fired == ["a0", "s"]
        assert engine.now == 1.0
        engine.run()
        assert fired == ["a0", "s", "a1", "a2", "b"]

    def test_cohort_dispatch_order_matches_sequential(self, engine):
        """Dispatch order is the sorted ``(time, priority, seq)`` order."""
        fired = []
        keys = [(1.0, 5), (1.0, 5), (2.0, 0), (1.0, 3), (1.0, 5), (0.5, 9), (1.0, 3)]
        events = []
        for i, (time, priority) in enumerate(keys):
            events.append(
                engine.schedule(
                    time, EventKind.CALLBACK, _record(fired), payload=i, priority=priority
                )
            )
        engine.run()
        expected = [e.payload for e in sorted(events, key=lambda e: e.sort_key())]
        assert fired == expected == [5, 3, 6, 0, 1, 4, 2]

    def test_same_time_higher_priority_event_preempts_cohort(self, engine):
        """An event scheduling a same-time higher-priority event yields to
        it before the rest of its coincident group."""
        fired = []

        def first(event):
            fired.append("a1")
            engine.schedule(0.0, EventKind.CALLBACK, _label(fired, "urgent"), priority=0)
            engine.schedule(0.0, EventKind.CALLBACK, _label(fired, "tail"), priority=5)

        engine.schedule(1.0, EventKind.CALLBACK, first, priority=5)
        engine.schedule(1.0, EventKind.CALLBACK, _record(fired), payload="b1", priority=5)
        engine.schedule(1.0, EventKind.CALLBACK, _record(fired), payload="b2", priority=5)
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

    def test_compaction_keeps_counters_consistent(self, engine):
        keep = [
            engine.schedule(float(i + 1), EventKind.CALLBACK, lambda e: None)
            for i in range(COMPACT_MIN_PENDING)
        ]
        doomed = [
            engine.schedule(1000.0 + i, EventKind.CALLBACK, lambda e: None)
            for i in range(COMPACT_MIN_PENDING + 8)
        ]
        for event in doomed:
            engine.cancel(event)
        # Compaction fired mid-loop: most cancelled entries were dropped
        # (the few cancelled *after* the rebuild legitimately remain).
        assert engine.pending < len(keep) + len(doomed)
        assert engine.pending_active == len(keep)
        assert engine.peek_time() == 1.0

    def test_compaction_inside_a_callback_keeps_the_running_heap(self, engine):
        """A callback's cancel may compact the heap under ``run``: events
        scheduled afterwards still fire in this run, in time order, once."""
        fired = []
        doomed = [
            engine.schedule(10.0, EventKind.CALLBACK, _label(fired, "doomed"))
            for _ in range(2 * COMPACT_MIN_PENDING)
        ]

        def cancel_all(_event):
            for event in doomed:
                engine.cancel(event)
            engine.schedule(1.0, EventKind.CALLBACK, _label(fired, "late"))

        engine.schedule(1.0, EventKind.CALLBACK, cancel_all)
        engine.schedule(5.0, EventKind.CALLBACK, _label(fired, "mid"))
        engine.run()
        assert fired == ["late", "mid"]
        assert engine.pending == 0
        engine.run()
        assert fired == ["late", "mid"]

    def test_cancelling_a_coincident_peer_does_not_skew_compaction(self, engine):
        """A callback that cancels its coincident peer leaves the cancel
        count balanced: the peer is popped and skipped, so later cancels
        alone decide when the heap compacts."""
        for i in range(40):
            victim = {}

            def killer(event, victim=victim):
                engine.cancel(victim["event"])

            time = float(i + 1)
            engine.schedule_at(time, EventKind.CALLBACK, killer)
            victim["event"] = engine.schedule_at(time, EventKind.CALLBACK, _label([], "x"))
        engine.run()
        assert engine.dispatched == 40 and engine.pending == 0
        events = [
            engine.schedule(float(i + 1), EventKind.CALLBACK, lambda e: None)
            for i in range(100)
        ]
        for event in events[:11]:
            engine.cancel(event)
        # 11 of 100 cancelled is far below the compaction threshold.
        assert engine.pending == 100
        assert engine.pending_active == 89
