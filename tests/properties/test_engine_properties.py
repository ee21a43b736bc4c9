"""Property-based tests on the event engine's ordering guarantees."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.events import EventKind

delays = st.lists(
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    min_size=1,
    max_size=60,
)


class TestOrdering:
    @given(delays=delays)
    @settings(max_examples=80, deadline=None)
    def test_dispatch_times_monotone(self, delays):
        engine = Engine()
        observed = []
        for d in delays:
            engine.schedule(d, EventKind.CALLBACK, lambda e: observed.append(engine.now))
        engine.run()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)

    @given(delays=delays)
    @settings(max_examples=50, deadline=None)
    def test_clock_never_goes_backwards_with_reentrant_scheduling(self, delays):
        engine = Engine()
        observed = []

        def chain(event):
            observed.append(engine.now)
            if event.payload:
                # schedule a follow-up at a pseudo-random future offset
                engine.schedule(
                    event.payload % 7.0, EventKind.CALLBACK, chain, payload=None
                )

        for d in delays:
            engine.schedule(d, EventKind.CALLBACK, chain, payload=d)
        engine.run()
        assert observed == sorted(observed)

    @given(
        delays=delays,
        horizon=st.floats(min_value=0.0, max_value=1000.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_pause_resume_equals_single_run(self, delays, horizon):
        def collect(engine):
            out = []
            for d in delays:
                engine.schedule(d, EventKind.CALLBACK, lambda e: out.append(engine.now))
            return out

        continuous = Engine()
        a = collect(continuous)
        continuous.run()

        paused = Engine()
        b = collect(paused)
        paused.run(until=horizon)
        paused.run()

        assert a == b

    @given(same_time=st.floats(min_value=0.0, max_value=100.0), n=st.integers(2, 20))
    @settings(max_examples=50, deadline=None)
    def test_fifo_among_equal_priority_events(self, same_time, n):
        engine = Engine()
        order = []
        for i in range(n):
            engine.schedule(
                same_time, EventKind.CALLBACK, lambda e: order.append(e.payload), payload=i
            )
        engine.run()
        assert order == list(range(n))


#: Times on a 0.1 grid: coincident instants are common, and so are pairs
#: for which ``now + (time - now) != time`` in floating point.
grid_times = st.integers(0, 40).map(lambda k: k / 10)

#: One scheduled event: when, which kind, through ``schedule_at`` or
#: ``schedule``, whether it is cancelled before the run, and what its
#: callback does (cancel the n-th event scheduled so far, or schedule a
#: child at an absolute time through ``schedule_at``).
event_specs = st.tuples(
    grid_times,
    st.sampled_from(EventKind),
    st.booleans(),
    st.booleans(),
    st.one_of(
        st.none(),
        st.tuples(st.just("cancel"), st.integers(0, 30)),
        st.tuples(st.just("child"), grid_times, st.sampled_from(EventKind)),
    ),
)
schedules = st.lists(event_specs, min_size=1, max_size=25)


def _drive(engine, specs):
    """Wire ``specs`` to ``engine``.

    Returns the dispatch log the run fills with ``(label, now)`` pairs,
    ``arm(index)``, which schedules one spec, and ``cancel_before_run()``.
    """
    log, handles = [], []

    def fire(event):
        label, action = event.payload
        log.append((label, engine.now))
        if action is None:
            return
        if action[0] == "cancel":
            engine.cancel(handles[action[1] % len(handles)])
        else:
            _, time, kind = action
            child_time = max(time, engine.now)
            handles.append(engine.schedule_at(child_time, kind, fire, payload=(label + ">", None)))

    def arm(index):
        time, kind, absolute, _, action = specs[index]
        schedule = engine.schedule_at if absolute else engine.schedule
        handles.append(schedule(time, kind, fire, payload=(f"e{index}", action)))

    def cancel_before_run():
        for index, spec in enumerate(specs):
            if spec[3]:
                engine.cancel(handles[index])

    return log, arm, cancel_before_run


def _oracle(specs):
    """The dispatch log, computed without a heap: repeatedly fire the live
    event with the least ``(time, int(kind), order of scheduling)``."""
    pending = []  # [time, kind, order, label, action, cancelled]
    for index, (time, kind, _absolute, cancel_before, action) in enumerate(specs):
        pending.append([time, int(kind), index, f"e{index}", action, cancel_before])
    scheduled = list(pending)
    log = []
    while True:
        live = [entry for entry in pending if not entry[5]]
        if not live:
            return log
        head = min(live, key=lambda entry: entry[:3])
        pending.remove(head)
        now, _, _, label, action, _ = head
        log.append((label, now))
        if action is None:
            continue
        if action[0] == "cancel":
            scheduled[action[1] % len(scheduled)][5] = True
        else:
            _, time, kind = action
            child = [max(time, now), int(kind), len(scheduled), label + ">", None, False]
            scheduled.append(child)
            pending.append(child)


class TestDispatchOrderContract:
    @given(specs=schedules)
    @settings(max_examples=300, deadline=None)
    def test_fired_sequence_matches_the_sorted_oracle(self, specs):
        engine = Engine()
        log, arm, cancel_before_run = _drive(engine, specs)
        for index in range(len(specs)):
            arm(index)
        cancel_before_run()
        engine.run()
        assert log == _oracle(specs)
        assert engine.dispatched == len(log)

    @given(first=schedules, second=schedules)
    @settings(max_examples=100, deadline=None)
    def test_interleaved_engines_dispatch_as_they_do_alone(self, first, second):
        one, two = Engine(), Engine()
        log_one, arm_one, cancel_one = _drive(one, first)
        log_two, arm_two, cancel_two = _drive(two, second)
        for index in range(max(len(first), len(second))):
            if index < len(first):
                arm_one(index)
            if index < len(second):
                arm_two(index)
        cancel_one()
        cancel_two()
        # Alternate the two loops one instant at a time.
        while one.peek_time() is not None or two.peek_time() is not None:
            for engine in (one, two):
                head = engine.peek_time()
                if head is not None:
                    engine.run(until=head)
        assert log_one == _oracle(first)
        assert log_two == _oracle(second)
