"""Boundary semantics of the batched event-cohort engine.

Pins the contracts the cohort refactor must preserve: ``until`` inclusivity
at exactly the head time, ``max_events`` accounting in the presence of
cancelled events (including mid-cohort budget caps), and stop/resume across
cohorts reproducing the sequential ``(time, priority, seq)`` dispatch order
bit for bit.  Also covers the allocation-hygiene pieces the loop leans on:
``pending_active``/``peek_time`` consistency, :class:`EventPool` recycling,
in-place heap compaction under a running loop, and the no-heap-mutation rule
for cohort handlers (``drain()`` during dispatch must refuse).
"""

import pytest

from repro.sim.engine import COMPACT_MIN_PENDING, Engine, SimulationError
from repro.sim.events import EventKind, EventPool


def _label(fired, name):
    return lambda event: fired.append(name)


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
        seen = []
        handler_calls = []

        def cb(event):  # pragma: no cover - routed through the handler
            raise AssertionError("cohort handler should intercept")

        engine.register_cohort_handler(
            cb, lambda now, events: handler_calls.append([e.payload for e in events])
        )
        for name in ("x", "y", "z"):
            engine.schedule(2.0, EventKind.CALLBACK, cb, payload=name)
        engine.schedule(2.0 + 1e-9, EventKind.CALLBACK, _label(seen, "later"))
        engine.run(until=2.0)
        assert handler_calls == [["x", "y", "z"]]
        assert seen == [] and engine.now == 2.0

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
        handler_calls = []

        def cb(event):  # pragma: no cover - routed through the handler
            raise AssertionError("cohort handler should intercept")

        engine.register_cohort_handler(
            cb, lambda now, events: handler_calls.append([e.payload for e in events])
        )
        for i in range(4):
            engine.schedule(1.0, EventKind.CALLBACK, cb, payload=i)
        engine.run(max_events=2)
        assert handler_calls == [[0, 1]]
        engine.run()
        assert handler_calls == [[0, 1], [2, 3]]

    def test_cancelled_cohort_member_skipped_inside_batch(self, engine):
        """An early member cancelling a later one is honoured mid-cohort."""
        handler_calls = []
        victim = {}

        def killer(event):
            victim["event"].cancel()

        def cb(event):  # pragma: no cover - routed through the handler
            raise AssertionError("cohort handler should intercept")

        engine.register_cohort_handler(
            cb, lambda now, events: handler_calls.append([e.payload for e in events])
        )
        # Same (time, priority): killer has seq before the cohort members.
        engine.schedule(1.0, EventKind.CALLBACK, killer, priority=7)
        engine.schedule(1.0, EventKind.CALLBACK, cb, payload="a", priority=7)
        victim["event"] = engine.schedule(
            1.0, EventKind.CALLBACK, cb, payload="b", priority=7
        )
        engine.schedule(1.0, EventKind.CALLBACK, cb, payload="c", priority=7)
        engine.run()
        assert handler_calls == [["a", "c"]]


class TestStopResumeAcrossCohorts:
    def test_stop_mid_cohort_resumes_in_sequential_order(self, engine):
        fired = []

        def make_stopper(event):
            fired.append("s")
            engine.stop()

        shared = lambda e: None  # noqa: E731
        calls = []
        engine.register_cohort_handler(
            shared, lambda now, events: calls.append([e.payload for e in events])
        )
        engine.schedule(1.0, EventKind.CALLBACK, make_stopper, priority=5)
        engine.schedule(1.0, EventKind.CALLBACK, shared, payload="a1", priority=5)
        engine.schedule(1.0, EventKind.CALLBACK, shared, payload="a2", priority=5)
        engine.run()
        # stop() fired before the batch: the whole tail went back on the heap.
        assert fired == ["s"] and calls == []
        engine.run()
        # The resumed run re-forms the cohort batch in seq order.
        assert calls == [["a1", "a2"]]

    def test_cohort_dispatch_order_matches_sequential(self):
        """Same schedule, with and without cohort handlers: same label order."""

        def drive(batched: bool):
            engine = Engine()
            fired = []
            shared = lambda e: fired.append(e.payload)  # noqa: E731
            if batched:
                engine.register_cohort_handler(
                    shared,
                    lambda now, events: fired.extend(e.payload for e in events),
                )
            other = lambda e: fired.append(e.payload)  # noqa: E731
            engine.schedule(1.0, EventKind.CALLBACK, shared, payload="a1", priority=5)
            engine.schedule(1.0, EventKind.CALLBACK, shared, payload="a2", priority=5)
            engine.schedule(1.0, EventKind.CALLBACK, other, payload="b1", priority=5)
            engine.schedule(1.0, EventKind.CALLBACK, shared, payload="a3", priority=5)
            engine.schedule(1.0, EventKind.CALLBACK, other, payload="b2", priority=3)
            engine.schedule(2.0, EventKind.CALLBACK, shared, payload="a4")
            engine.run()
            return fired

        assert drive(batched=True) == drive(batched=False)

    def test_same_time_higher_priority_event_preempts_cohort(self, engine):
        """A member scheduling a same-time higher-priority event yields to it."""
        fired = []
        shared = lambda e: None  # noqa: E731

        def handler(now, events):
            for event in events:
                fired.append(event.payload)
                if event.payload == "a1":
                    engine.schedule(
                        0.0, EventKind.CALLBACK, _label(fired, "urgent"), priority=0
                    )

        engine.register_cohort_handler(shared, handler)
        other = lambda e: fired.append(e.payload)  # noqa: E731
        engine.schedule(1.0, EventKind.CALLBACK, shared, payload="a1", priority=5)
        engine.schedule(1.0, EventKind.CALLBACK, other, payload="b1", priority=5)
        engine.schedule(1.0, EventKind.CALLBACK, other, payload="b2", priority=5)
        engine.run()
        # The handler call is atomic, but the *next* cohort member (b1) must
        # wait for the urgent event — exactly the sequential order.
        assert fired == ["a1", "urgent", "b1", "b2"]


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


class TestEventPool:
    def test_acquire_reuses_released_events_with_fresh_seq(self):
        pool = EventPool()
        first = pool.acquire(1.0, EventKind.CALLBACK, lambda e: None)
        assert pool.created == 1 and first.transient
        seq = first.seq
        pool.release(first)
        second = pool.acquire(2.0, EventKind.CALLBACK, lambda e: None, payload="p")
        assert second is first
        assert pool.reused == 1
        assert second.seq > seq
        assert not second.cancelled and second.payload == "p"

    def test_release_severs_payload_and_callback(self):
        pool = EventPool()
        event = pool.acquire(1.0, EventKind.CALLBACK, lambda e: None, payload=object())
        pool.release(event)
        assert event.payload is None
        with pytest.raises(RuntimeError, match="pool-released"):
            event.callback(event)

    def test_maxsize_bounds_free_list(self):
        pool = EventPool(maxsize=1)
        a = pool.acquire(1.0, EventKind.CALLBACK, lambda e: None)
        b = pool.acquire(1.0, EventKind.CALLBACK, lambda e: None)
        pool.release(a)
        pool.release(b)
        assert len(pool) == 1

    def test_engine_recycles_transient_events(self, engine):
        engine.schedule(1.0, EventKind.CALLBACK, lambda e: None, transient=True)
        engine.run()
        assert engine.event_pool.created == 1
        assert len(engine.event_pool) == 1
        engine.schedule(1.0, EventKind.CALLBACK, lambda e: None, transient=True)
        engine.run()
        assert engine.event_pool.reused == 1
        assert engine.event_pool.created == 1


class TestCohortHandlerHeapContract:
    def test_drain_during_cohort_dispatch_refuses(self, engine):
        """Cohort handlers must not structurally mutate the engine heap."""
        shared = lambda e: None  # noqa: E731
        caught = {}

        def handler(now, events):
            try:
                list(engine.drain())
            except SimulationError as exc:
                caught["error"] = exc

        engine.register_cohort_handler(shared, handler)
        engine.schedule(1.0, EventKind.CALLBACK, shared)
        engine.schedule(1.0, EventKind.CALLBACK, shared)
        engine.run()
        assert "must not mutate" in str(caught["error"])

    def test_drain_during_single_event_handler_refuses(self, engine):
        shared = lambda e: None  # noqa: E731
        caught = {}

        def handler(now, events):
            try:
                list(engine.drain())
            except SimulationError as exc:
                caught["error"] = exc

        engine.register_cohort_handler(shared, handler)
        engine.schedule(1.0, EventKind.CALLBACK, shared)
        engine.run()
        assert "error" in caught
