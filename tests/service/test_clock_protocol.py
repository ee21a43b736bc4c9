"""Clock-protocol conformance: one battery, two EventClock implementations.

Every scenario here runs verbatim against the DES
:class:`~repro.sim.engine.Engine` and the asyncio
:class:`~repro.service.runtime.WallClockRuntime` (at a high ``time_scale``
so a few clock seconds are a few wall milliseconds).  This is the contract
that lets the four platform components run unmodified under either clock:
dispatch ordering, coincident events, cancellation, callback chaining, and
``now`` monotonicity must agree.

Wall-clock caveat baked into the assertions: the runtime's ``now`` can run
*ahead* of an event's scheduled time (a timer can only fire late), so the
battery asserts ``now >= event.time`` plus per-instant frozen equality,
not exact equality — the DES engine trivially satisfies the same predicate.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.runtime import WallClockRuntime
from repro.sim.engine import Engine, SimulationError
from repro.sim.events import EventKind

CLOCKS = ("engine", "wallclock")

#: Clock seconds the wall runtime compresses into one wall second.
TIME_SCALE = 500.0


def run_scenario(clock_kind, setup, horizon=50.0):
    """Build a scenario on a fresh clock, run it to quiescence, check it.

    ``setup(clock) -> check`` schedules events and returns the assertion
    callback, invoked as ``check(clock)`` after every event dispatched.
    """
    if clock_kind == "engine":
        engine = Engine()
        check = setup(engine)
        engine.run(until=horizon)
        check(engine)
        return

    async def main():
        runtime = WallClockRuntime(time_scale=TIME_SCALE)
        check = setup(runtime)
        await asyncio.wait_for(runtime.drained(), timeout=30.0)
        return runtime, check

    runtime, check = asyncio.run(main())
    check(runtime)


@pytest.fixture(params=CLOCKS)
def clock_kind(request):
    return request.param


class TestOrdering:
    def test_dispatch_in_time_order(self, clock_kind):
        fired = []

        def setup(clock):
            for label, delay in (("c", 3.0), ("a", 1.0), ("b", 2.0)):
                clock.schedule(
                    delay,
                    EventKind.CALLBACK,
                    (lambda lab: lambda _e: fired.append(lab))(label),
                )
            return lambda clock: None

        run_scenario(clock_kind, setup)
        assert fired == ["a", "b", "c"]

    def test_coincident_events_fire_in_schedule_order(self, clock_kind):
        fired = []

        def setup(clock):
            for label in ("first", "second", "third"):
                clock.schedule_at(
                    2.0,
                    EventKind.CALLBACK,
                    (lambda lab: lambda _e: fired.append(lab))(label),
                )
            return lambda clock: None

        run_scenario(clock_kind, setup)
        assert fired == ["first", "second", "third"]

    def test_priority_orders_coincident_events(self, clock_kind):
        """The kind with the lower value dispatches first at one instant."""
        fired = []

        def setup(clock):
            clock.schedule_at(
                2.0, EventKind.FAULT_INJECTION, lambda _e: fired.append("low")
            )
            clock.schedule_at(
                2.0, EventKind.WORKER_ARRIVAL, lambda _e: fired.append("high")
            )
            return lambda clock: None

        run_scenario(clock_kind, setup)
        assert fired == ["high", "low"]

    def test_callback_chaining(self, clock_kind):
        """An event scheduled from inside a callback fires later."""
        fired = []

        def setup(clock):
            def second(_event):
                fired.append("second")

            def first(_event):
                fired.append("first")
                clock.schedule(1.0, EventKind.CALLBACK, second)

            clock.schedule(1.0, EventKind.CALLBACK, first)
            return lambda clock: None

        run_scenario(clock_kind, setup)
        assert fired == ["first", "second"]


class TestCancellation:
    def test_cancelled_event_never_fires(self, clock_kind):
        fired = []

        def setup(clock):
            victim = clock.schedule(
                2.0, EventKind.CALLBACK, lambda _e: fired.append("victim")
            )
            clock.schedule(
                1.0, EventKind.CALLBACK, lambda _e: clock.cancel(victim)
            )
            return lambda clock: None

        run_scenario(clock_kind, setup)
        assert fired == []

    def test_cancellation_within_a_cohort(self, clock_kind):
        """An earlier coincident member can cancel a later one."""
        fired = []

        def setup(clock):
            victim_box = []

            def killer(_event):
                fired.append("killer")
                clock.cancel(victim_box[0])

            # Same (time, kind), scheduled first: the killer fires first
            # and flags its coincident peer before dispatch reaches it.
            clock.schedule_at(2.0, EventKind.CALLBACK, killer)
            victim = clock.schedule_at(
                2.0, EventKind.CALLBACK, lambda _e: fired.append("victim")
            )
            victim_box.append(victim)
            return lambda clock: None

        run_scenario(clock_kind, setup)
        assert fired == ["killer"]


class TestNowSemantics:
    def test_now_monotone_and_frozen_per_cohort(self, clock_kind):
        samples = []

        def setup(clock):
            def sample(_event):
                samples.append(clock.now)

            # Two instants of two coincident events each.
            for t in (1.0, 2.0):
                clock.schedule_at(t, EventKind.CALLBACK, sample)
                clock.schedule_at(t, EventKind.CALLBACK, sample)
            return lambda clock: None

        run_scenario(clock_kind, setup)
        assert len(samples) == 4
        # Monotone nondecreasing across all dispatches.
        assert samples == sorted(samples)
        # Frozen per instant: coincident events see the same ``now``.
        assert samples[0] == samples[1]
        assert samples[2] == samples[3]
        # Never before the scheduled time.
        assert samples[0] >= 1.0 and samples[2] >= 2.0

    def test_now_does_not_retreat_after_dispatch(self, clock_kind):
        observed = []

        def setup(clock):
            clock.schedule(1.0, EventKind.CALLBACK, lambda _e: observed.append(clock.now))

            def check(clock):
                assert clock.now >= observed[0]

            return check

        run_scenario(clock_kind, setup)

    def test_schedule_into_past_raises(self, clock_kind):
        def setup(clock):
            with pytest.raises(SimulationError):
                clock.schedule(-1.0, EventKind.CALLBACK, lambda _e: None)
            with pytest.raises(SimulationError):
                clock.schedule_at(-5.0, EventKind.CALLBACK, lambda _e: None)
            return lambda clock: None

        run_scenario(clock_kind, setup)


#: Differential grid: clock times GRID_ORIGIN + k * GRID_STEP.  The origin is
#: 10 wall milliseconds out at TIME_SCALE, so every schedule_at of the setup
#: lands in the wall runtime's future.
GRID_ORIGIN = 5.0
GRID_STEP = 1.0
GRID = 4

_KINDS = st.sampled_from(
    [EventKind.TASK_COMPLETION, EventKind.TASK_ARRIVAL, EventKind.CALLBACK]
)
_ACTIONS = st.one_of(
    st.none(),
    # Cancel the target-th scheduled event (often a later coincident peer).
    st.tuples(st.just("cancel"), st.integers(0, 11)),
    # schedule_at a child `ahead` grid points on (0 = this instant).
    st.tuples(st.just("chain"), st.integers(0, 2), _KINDS),
)
_SCHEDULES = st.lists(
    st.tuples(st.integers(0, GRID - 1), _KINDS, _ACTIONS),
    min_size=1,
    max_size=12,
)


def _dispatch_log(clock, schedule):
    """Schedule ``schedule`` on ``clock``; return the dispatch log.

    Each event logs ``(label, clock.now)`` and runs its action when it fires.
    """
    log, handles = [], []

    def fire(event):
        label, slot, action = event.payload
        log.append((label, clock.now))
        if action is None:
            return
        if action[0] == "cancel":
            clock.cancel(handles[action[1] % len(handles)])
            return
        _, ahead, kind = action
        child = min(slot + ahead, GRID - 1)
        clock.schedule_at(
            GRID_ORIGIN + child * GRID_STEP, kind, fire, payload=(label + ">", child, None)
        )

    for index, (slot, kind, action) in enumerate(schedule):
        handles.append(
            clock.schedule_at(
                GRID_ORIGIN + slot * GRID_STEP, kind, fire, payload=(f"e{index}", slot, action)
            )
        )
    return log


class TestDifferentialDispatch:
    @settings(max_examples=30, deadline=None)
    @given(schedule=_SCHEDULES)
    def test_engine_and_wallclock_dispatch_identically(self, schedule):
        """One generated schedule, both clocks: the dispatch label order and
        the ``now`` each callback observes must be identical."""
        engine = Engine()
        expected = _dispatch_log(engine, schedule)
        engine.run(until=GRID_ORIGIN + GRID * GRID_STEP)

        async def main():
            runtime = WallClockRuntime(time_scale=TIME_SCALE)
            log = _dispatch_log(runtime, schedule)
            await asyncio.wait_for(runtime.drained(), timeout=30.0)
            runtime.close()
            return log

        assert asyncio.run(main()) == expected
