"""Deterministic reproduction of the completion/withdrawal stamp race.

The bug: a worker who silently abandons task T1 is released at his sampled
walk-away time while T1 stays platform-side ASSIGNED (§IV-B semantics).
If the scheduler then hands him a newer task T2 *before* the Eq. 2 sweep
(or a blackout orphaning pass) finally withdraws T1, the withdrawal used
to blindly ``release()`` him — kicking the worker off T2, marking him
available while T2 is still assigned to him (an I5 violation one hop
later), and letting the matcher double-book him.

The fix threads the withdrawn task's id through
``ProfilingComponent.record_withdrawal``; the worker's availability is
only touched when his profile still claims that very task.  Injected
matcher stalls widen the race window (T1 sits ASSIGNED longer while the
worker is already re-matched), so the integration half of this module
drives exactly that scenario under a 1-second invariant audit.
"""

from repro.chaos import AbandonmentWave, FaultSchedule, MatcherStallFault
from repro.experiments.chaos import ChaosConfig, run_chaos
from repro.model.worker import WorkerProfile
from repro.platform.policies import react_policy
from repro.platform.profiling import ProfilingComponent


def _abandoner_rematched_to_newer_task() -> tuple[ProfilingComponent, WorkerProfile]:
    """Worker 7: abandoned T1 (still ASSIGNED platform-side), now on T2."""
    component = ProfilingComponent()
    profile = WorkerProfile(worker_id=7)
    component.register(profile)
    component.record_assignment(7, task_id=1)
    profile.release()  # sampled walk-away: freed without returning a result
    component.record_assignment(7, task_id=2)
    return component, profile


def test_stale_withdrawal_leaves_worker_on_newer_task():
    component, profile = _abandoner_rematched_to_newer_task()

    # The Eq. 2 sweep finally pulls T1 back and *names* it.
    component.record_withdrawal(7, elapsed=42.0, task_id=1)

    assert profile.current_task == 2, "withdrawal of T1 must not touch T2"
    assert not profile.available, "worker is still executing T2"
    assert 42.0 in profile.execution_times, "censored hold is still recorded"


def test_current_task_withdrawal_still_releases():
    """The guard only filters *stale* withdrawals, not live ones."""
    component = ProfilingComponent()
    profile = WorkerProfile(worker_id=3)
    component.register(profile)
    component.record_assignment(3, task_id=9)

    component.record_withdrawal(3, elapsed=10.0, task_id=9)

    assert profile.current_task is None
    assert profile.available


def test_no_double_booking_under_stall_and_abandonment():
    """Integration: the widened race window stays invariant-clean.

    A matcher stall keeps withdrawn-but-assigned tasks in flight longer
    while an abandonment wave manufactures exactly the abandon -> re-match
    -> late-withdrawal interleaving; the run's 1-second audit grid checks
    I1-I7 (including the I3/I5 double-booking invariants) throughout.
    """
    config = ChaosConfig(
        n_workers=30, arrival_rate=0.8, n_tasks=120, drain_time=250.0, seed=31
    )
    schedule = FaultSchedule(
        faults=(
            MatcherStallFault(start=40.0, duration=80.0, extra_latency=20.0),
            AbandonmentWave(start=60.0, fraction=1.0),
            AbandonmentWave(start=90.0, fraction=1.0),
        ),
        seed=2,
    )
    result = run_chaos(react_policy(cycles=200), config, schedule=schedule)

    assert result.summary["chaos_abandonments"] > 0
    assert result.invariant_audits >= int(config.horizon(schedule)) - 1
    summary = result.summary
    assert summary["completed"] + summary["expired_unassigned"] == config.n_tasks
