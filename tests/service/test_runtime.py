"""WallClockRuntime unit tests beyond the shared conformance battery.

The cross-clock contract (ordering, coincident events, cancellation,
``now`` semantics) lives in ``test_clock_protocol.py``; this file covers the
runtime-only surface: lifecycle (close/drained/run_for), the lazy
cancellation counters, and constructor validation.
"""

import asyncio

import pytest

from repro.service.runtime import ServiceRuntimeError, WallClockRuntime
from repro.sim.events import EventKind

#: Clock seconds per wall second: scenarios finish in milliseconds.
SCALE = 200.0


def run_async(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30.0))


class TestConstruction:
    def test_time_scale_validated(self):
        async def main():
            for bad in (0.0, -1.0, float("nan")):
                with pytest.raises(ValueError, match="time_scale"):
                    WallClockRuntime(time_scale=bad)

        run_async(main())

    def test_requires_running_loop(self):
        with pytest.raises(RuntimeError):
            WallClockRuntime()

    def test_properties(self):
        async def main():
            runtime = WallClockRuntime(time_scale=SCALE)
            assert runtime.time_scale == SCALE
            assert not runtime.closed
            assert runtime.pending == 0
            assert runtime.dispatched == 0
            assert runtime.peek_time() is None

        run_async(main())


class TestLifecycle:
    def test_close_refuses_further_scheduling(self):
        async def main():
            runtime = WallClockRuntime(time_scale=SCALE)
            runtime.schedule(5.0, EventKind.CALLBACK, lambda _e: None)
            runtime.close()
            assert runtime.closed
            assert runtime.pending == 0  # pending events dropped
            with pytest.raises(ServiceRuntimeError):
                runtime.schedule(1.0, EventKind.CALLBACK, lambda _e: None)
            with pytest.raises(ServiceRuntimeError):
                runtime.schedule_at(1.0, EventKind.CALLBACK, lambda _e: None)

        run_async(main())

    def test_close_inside_a_callback_drops_the_rest(self):
        fired = []

        async def main():
            runtime = WallClockRuntime(time_scale=SCALE)

            def closer(_event):
                fired.append("closer")
                runtime.close()

            runtime.schedule_at(1.0, EventKind.CALLBACK, closer)
            runtime.schedule_at(1.0, EventKind.CALLBACK, lambda _e: fired.append("peer"))
            runtime.schedule_at(2.0, EventKind.CALLBACK, lambda _e: fired.append("later"))
            await runtime.drained()
            await runtime.run_for(3.0)
            assert runtime.closed
            assert runtime.pending == 0

        run_async(main())
        assert fired == ["closer"]

    def test_close_is_idempotent(self):
        async def main():
            runtime = WallClockRuntime(time_scale=SCALE)
            runtime.close()
            runtime.close()

        run_async(main())

    def test_drained_resolves_immediately_when_idle(self):
        async def main():
            runtime = WallClockRuntime(time_scale=SCALE)
            await runtime.drained()  # empty heap: no wait
            runtime.close()
            await runtime.drained()  # closed: no wait

        run_async(main())

    def test_drained_waits_for_chained_events(self):
        fired = []

        async def main():
            runtime = WallClockRuntime(time_scale=SCALE)

            def second(_event):
                fired.append("second")

            def first(_event):
                fired.append("first")
                runtime.schedule(1.0, EventKind.CALLBACK, second)

            runtime.schedule(1.0, EventKind.CALLBACK, first)
            await runtime.drained()

        run_async(main())
        assert fired == ["first", "second"]

    def test_drained_resolves_on_close_with_pending_work(self):
        async def main():
            runtime = WallClockRuntime(time_scale=SCALE)
            # Far-future event the test never waits out.
            runtime.schedule(10_000.0, EventKind.CALLBACK, lambda _e: None)
            waiter = asyncio.ensure_future(runtime.drained())
            await asyncio.sleep(0)
            assert not waiter.done()
            runtime.close()
            await asyncio.wait_for(waiter, timeout=5.0)

        run_async(main())

    def test_cancelling_the_last_event_releases_drained_waiters(self):
        """The waiter must not sit out the cancelled event's due time."""

        async def main():
            runtime = WallClockRuntime(time_scale=1.0)
            event = runtime.schedule(30.0, EventKind.CALLBACK, lambda _e: None)
            waiter = asyncio.ensure_future(runtime.drained())
            await asyncio.sleep(0)
            assert not waiter.done()
            runtime.cancel(event)
            await asyncio.wait_for(waiter, timeout=1.0)
            assert runtime.pending_active == 0
            runtime.close()

        run_async(main())

    def test_run_for_lets_timers_fire(self):
        fired = []

        async def main():
            runtime = WallClockRuntime(time_scale=SCALE)
            runtime.schedule(1.0, EventKind.CALLBACK, lambda _e: fired.append(1))
            await runtime.run_for(5.0)

        run_async(main())
        assert fired == [1]


class TestQueueIntrospection:
    def test_pending_counts_cancelled_pending_active_does_not(self):
        async def main():
            runtime = WallClockRuntime(time_scale=SCALE)
            keep = runtime.schedule_at(5.0, EventKind.CALLBACK, lambda _e: None)
            drop = runtime.schedule_at(2.0, EventKind.CALLBACK, lambda _e: None)
            runtime.cancel(drop)
            assert runtime.pending == 2
            assert runtime.pending_active == 1
            # peek_time skips the cancelled head and reports the live event.
            assert runtime.peek_time() == keep.time == 5.0
            runtime.close()

        run_async(main())

    def test_now_is_monotone_between_reads(self):
        async def main():
            runtime = WallClockRuntime(time_scale=SCALE)
            readings = [runtime.now for _ in range(50)]
            assert readings == sorted(readings)

        run_async(main())


class TestLateCohorts:
    def test_late_cohort_is_not_preempted_by_a_later_event(self):
        """Blocking the loop past both due times, then reading ``now``, lifts
        the floor past the 1.0 instant; the later 2.0 event must not preempt
        it, or the instant re-queues itself forever."""
        import time

        fired = []

        async def main():
            runtime = WallClockRuntime(time_scale=1000.0)
            for label, at, kind in (
                ("low", 1.0, EventKind.BATCH_TRIGGER),
                ("high", 2.0, EventKind.TASK_COMPLETION),
            ):
                callback = (lambda lab: lambda _e: fired.append(lab))(label)
                runtime.schedule_at(at, kind, callback)
            time.sleep(0.01)  # 10 clock seconds pass with the loop blocked
            assert runtime.now >= 2.0
            await asyncio.wait_for(runtime.drained(), 2.0)

        run_async(main())
        assert fired == ["low", "high"]

    def test_late_cohort_handler_receives_the_frozen_runtime_now(self):
        """Every callback of a late instant reads the runtime's frozen
        ``now`` — the lifted floor — not the instant's scheduled time."""
        import time

        calls = []

        async def main():
            runtime = WallClockRuntime(time_scale=1000.0)

            def member(event):
                calls.append((event.payload, runtime.now))

            for label in ("a", "b"):
                runtime.schedule_at(1.0, EventKind.CALLBACK, member, payload=label)
            time.sleep(0.01)  # 10 clock seconds pass with the loop blocked
            floor = runtime.now  # lifts the floor past the 1.0 instant
            assert floor >= 2.0
            await asyncio.wait_for(runtime.drained(), 2.0)
            assert runtime.dispatched == 2
            return floor

        floor = run_async(main())
        assert [label for label, _now in calls] == ["a", "b"]
        assert calls[0][1] == calls[1][1] >= floor > 1.0


class TestSlicedDraining:
    def test_backlogged_drain_does_not_starve_the_loop(self):
        """A chain that can't catch up must still let other loop work run.

        Each firing burns more wall time than the next event's delay is
        worth, so the drain loop is permanently behind: without the
        DRAIN_SLICE_WALL yield, ``_fire`` would never return and the
        concurrent sleep below would never complete (the loop is starved
        exactly the way a backlogged gateway starves its sockets).
        """
        import time

        async def main():
            runtime = WallClockRuntime(time_scale=SCALE)
            fired = [0]

            def spin(_event):
                fired[0] += 1
                # 2 ms of wall work, then reschedule 1 ms (wall) out: the
                # chain outruns the clock forever.
                time.sleep(0.002)
                runtime.schedule(0.001 * SCALE, EventKind.CALLBACK, spin)

            runtime.schedule(0.0, EventKind.CALLBACK, spin)
            # This sleep only completes if the drain yields the loop.
            await asyncio.wait_for(asyncio.sleep(0.2), timeout=5.0)
            assert fired[0] > 0
            runtime.close()

        run_async(main())
