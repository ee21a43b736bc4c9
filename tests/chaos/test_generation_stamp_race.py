"""Deterministic reproduction of the completion/withdrawal stamp race.

The bug: a worker who silently abandons task T1 is released at his sampled
walk-away time while T1 stays platform-side ASSIGNED (§IV-B semantics).
If the scheduler then hands him a newer task T2 *before* the Eq. 2 sweep
(or a blackout orphaning pass) finally withdraws T1, the withdrawal used
to blindly ``release()`` him — kicking the worker off T2, marking him
free while T2 is still assigned to him, and letting the matcher
double-book him.

The fix threads the withdrawn task's id through
``WorkerTable.record_withdrawal``; the worker is only released
when his worker-table row still claims that very task.  Injected
matcher stalls widen the race window (T1 sits ASSIGNED longer while the
worker is already re-matched), so the integration half of this module
drives exactly that scenario under a 1-second invariant audit.
"""

from repro.chaos import AbandonmentWave, FaultSchedule, MatcherStallFault
from repro.experiments.chaos import ChaosConfig, run_chaos
from repro.model.worker import WorkerProfile
from repro.model.worker_table import WorkerTable
from repro.platform.policies import react_policy


def _abandoner_rematched_to_newer_task() -> WorkerTable:
    """Worker 7: abandoned T1 (still ASSIGNED platform-side), now on T2."""
    component = WorkerTable()
    component.register(WorkerProfile(worker_id=7))
    component.assign(7, task_id=1)
    component.release(7)  # sampled walk-away: freed without returning a result
    component.assign(7, task_id=2)
    return component


def test_stale_withdrawal_leaves_worker_on_newer_task():
    component = _abandoner_rematched_to_newer_task()

    # The Eq. 2 sweep finally pulls T1 back and *names* it.
    component.record_withdrawal(7, elapsed=42.0, task_id=1)

    assert component.current_task(7) == 2, "withdrawal of T1 must not touch T2"
    assert not component.is_free(7), "worker is still executing T2"
    assert 42.0 in component.history(7).execution_times, (
        "censored hold is still recorded"
    )


def test_current_task_withdrawal_still_releases():
    """The guard only filters *stale* withdrawals, not live ones."""
    component = WorkerTable()
    component.register(WorkerProfile(worker_id=3))
    component.assign(3, task_id=9)

    component.record_withdrawal(3, elapsed=10.0, task_id=9)

    assert component.current_task(3) is None
    assert component.is_free(3)


def test_no_double_booking_under_stall_and_abandonment():
    """Integration: the widened race window stays invariant-clean.

    A matcher stall keeps withdrawn-but-assigned tasks in flight longer
    while an abandonment wave manufactures exactly the abandon -> re-match
    -> late-withdrawal interleaving; the run's 1-second audit grid checks
    every invariant (including I3/I4 on each worker's current task)
    throughout.
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
