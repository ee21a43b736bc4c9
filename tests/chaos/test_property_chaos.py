"""Property-based chaos: random fault schedules never break the platform.

Hypothesis generates arbitrary (bounded) fault schedules — overlapping
windows, repeated kinds, extreme parameters — and the whole workload runs
under a 1-second invariant audit grid.  Any I1-I4, I6, I7 violation or metric
conservation failure raises mid-run and Hypothesis shrinks the schedule to
a minimal reproduction; the ``note`` output prints the exact schedule and
seeds so the failure replays deterministically.
"""

from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from repro.chaos import (
    AbandonmentWave,
    BlackoutFault,
    FaultSchedule,
    MatcherStallFault,
    NoShowFault,
    StaleProfileFault,
    SweepOutageFault,
)
from repro.experiments.chaos import ChaosConfig, run_chaos
from repro.platform.policies import react_policy

#: Small but non-trivial workload: enough tasks that every component does
#: real work, small enough that a dozen examples stay fast.
CONFIG = ChaosConfig(
    n_workers=20, arrival_rate=0.5, n_tasks=60, drain_time=250.0, seed=11
)

_STARTS = st.floats(min_value=5.0, max_value=150.0, allow_nan=False)
_WINDOWS = st.floats(min_value=1.0, max_value=40.0, allow_nan=False)

_FAULTS = st.one_of(
    st.builds(
        AbandonmentWave,
        start=_STARTS,
        fraction=st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
    ),
    st.builds(
        NoShowFault,
        start=_STARTS,
        duration=_WINDOWS,
        probability=st.floats(min_value=0.2, max_value=1.0, allow_nan=False),
        hold_time=st.floats(min_value=5.0, max_value=40.0, allow_nan=False),
    ),
    st.builds(
        StaleProfileFault,
        start=_STARTS,
        duration=_WINDOWS,
        distortion=st.floats(min_value=0.1, max_value=25.0, allow_nan=False),
    ),
    st.builds(
        MatcherStallFault,
        start=_STARTS,
        duration=_WINDOWS,
        extra_latency=st.floats(min_value=1.0, max_value=40.0, allow_nan=False),
    ),
    st.builds(SweepOutageFault, start=_STARTS, duration=_WINDOWS),
    st.builds(BlackoutFault, start=_STARTS, duration=_WINDOWS),
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,  # conftest's autouse id reset
    ],
)
@given(
    faults=st.lists(_FAULTS, min_size=1, max_size=4),
    injector_seed=st.integers(min_value=0, max_value=2**16),
)
def test_random_fault_schedules_hold_every_invariant(faults, injector_seed):
    schedule = FaultSchedule(faults=tuple(faults), seed=injector_seed)
    note(f"workload seed={CONFIG.seed} schedule={schedule!r}")

    # The run audits I1-I4, I6, I7 every simulated second and checks metric
    # conservation at the end; any violation raises and Hypothesis shrinks.
    result = run_chaos(react_policy(cycles=200), CONFIG, schedule=schedule)

    assert result.invariant_audits >= int(CONFIG.horizon(schedule)) - 1
    summary = result.summary
    assert summary["received"] == CONFIG.n_tasks
    # Terminal accounting: nothing lost, nothing double-counted.  (The
    # drain may legitimately leave a task parked if a fault window reaches
    # past the arrival horizon, but it must still be *somewhere*.)
    terminal = summary["completed"] + summary["expired_unassigned"]
    pending = (
        summary["pending_unassigned"]
        + summary["pending_assigned"]
        + summary["pending_deferred"]
    )
    assert terminal + pending == CONFIG.n_tasks
    # Every activation got a matching deactivation for windowed faults.
    activations = sum(1 for e in result.fault_log if e.action == "activate")
    deactivations = sum(1 for e in result.fault_log if e.action == "deactivate")
    windowed = sum(1 for f in schedule if f.duration > 0)
    assert activations == len(schedule)
    assert deactivations == windowed
