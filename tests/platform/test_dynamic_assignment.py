"""Unit tests for the Dynamic Assignment Component (Eq. 2 monitor)."""

import pytest

from repro.chaos import FaultInjector, FaultSchedule, SweepOutageFault
from repro.model.task import TaskCategory, TaskPhase
from repro.model.worker import WorkerProfile
from repro.platform.dynamic_assignment import Withdrawal
from repro.platform.policies import react_policy, traditional_policy

from .helpers import build_server, dawdler_behavior, submit


def _train_profile(server, worker_id, times):
    """Inject a completion history into an idle registered worker's row."""
    for t in times:
        server.profiling.complete(worker_id, t, TaskCategory.GENERIC, True)


def _history(server, worker_id):
    return server.profiling.history(worker_id).execution_times


class TestMonitorSweep:
    def test_trained_dawdler_withdrawn_before_deadline(self):
        engine, server = build_server(
            n_workers=1,
            behavior=dawdler_behavior(delay_cap=130.0),
            policy=react_policy(batch_threshold=1, batch_period=1000.0),
        )
        _train_profile(server, 0, [3.0, 4.0, 5.0])
        task = submit(server, engine, deadline=90.0)
        engine.run(until=80.0)
        withdrawals = server.dynamic_assignment.withdrawals
        # the only candidate worker is the dawdler, so the task cycles
        # through pull -> re-assign -> pull; every pull is recorded
        assert len(withdrawals) >= 1
        w = withdrawals[0]
        assert w.worker_id == 0
        assert w.task_id == task.task_id
        assert w.probability < 0.1
        # first pull lands well before the deadline, leaving rescue time
        assert w.time < 90.0
        assert task.assignments >= 1

    def test_untrained_worker_never_withdrawn(self):
        engine, server = build_server(
            n_workers=1,
            behavior=dawdler_behavior(delay_cap=130.0),
            policy=react_policy(batch_threshold=1, batch_period=1000.0),
        )
        submit(server, engine, deadline=90.0)
        engine.run(until=85.0)
        assert len(server.dynamic_assignment.withdrawals) == 0

    def test_monitor_disabled_under_traditional(self):
        engine, server = build_server(
            n_workers=1,
            behavior=dawdler_behavior(delay_cap=130.0),
            policy=traditional_policy(),
        )
        _train_profile(server, 0, [3.0, 4.0, 5.0])
        submit(server, engine, deadline=90.0)
        engine.run(until=200.0)
        assert len(server.dynamic_assignment.withdrawals) == 0

    def test_withdrawn_task_returns_to_queue(self):
        engine, server = build_server(
            n_workers=1,
            behavior=dawdler_behavior(delay_cap=130.0),
            policy=react_policy(batch_threshold=5, batch_period=1000.0),
        )
        _train_profile(server, 0, [3.0, 4.0, 5.0])
        task = submit(server, engine, deadline=90.0)
        # manually trigger a batch so the single task is assigned
        server.scheduling.periodic_trigger(engine.now)
        engine.run(until=60.0)
        if server.dynamic_assignment.withdrawals:
            assert task.phase in (TaskPhase.UNASSIGNED, TaskPhase.EXPIRED)

    def test_threshold_one_pulls_immediately(self):
        """threshold=1.0 means any non-certain completion is pulled at the
        first sweep after assignment."""
        engine, server = build_server(
            n_workers=1,
            behavior=dawdler_behavior(delay_cap=130.0),
            policy=react_policy(
                batch_threshold=1, batch_period=1000.0, reassign_threshold=1.0
            ),
        )
        _train_profile(server, 0, [3.0, 4.0, 5.0])
        submit(server, engine, deadline=90.0)
        engine.run(until=3.0)
        assert len(server.dynamic_assignment.withdrawals) >= 1
        assert server.dynamic_assignment.withdrawals[0].time <= 2.0

    def test_sweep_returns_pull_count(self):
        engine, server = build_server(
            n_workers=2,
            behavior=dawdler_behavior(delay_cap=130.0),
            policy=react_policy(
                batch_threshold=1, batch_period=1000.0, reassign_threshold=1.0
            ),
        )
        for wid in (0, 1):
            _train_profile(server, wid, [3.0, 4.0, 5.0])
        submit(server, engine, deadline=90.0)
        submit(server, engine, deadline=90.0)
        engine.run(until=0.5)  # assignments published, monitor not yet fired
        pulled = server.dynamic_assignment.sweep(engine.now + 1.0)
        assert pulled == 2


def _one_dawdler(**policy_overrides):
    """One trained worker (history 3, 4, 5 s) who sits ~250 s on each task.

    Eq. 2 with a 300 s window crosses the 10% threshold between 8 and 9
    seconds of elapsed time for this history.
    """
    engine, server = build_server(
        n_workers=1,
        behavior=dawdler_behavior(delay_cap=250.0),
        policy=react_policy(batch_threshold=1, batch_period=1000.0, **policy_overrides),
    )
    _train_profile(server, 0, [3.0, 4.0, 5.0])
    return engine, server


def _abandoned_task(server, engine):
    """A task the worker silently walked away from: still ASSIGNED to him."""
    task = submit(server, engine, deadline=300.0)
    engine.run(until=engine.now)
    assert server.inject_abandonment(task.task_id)
    engine.run(until=engine.now)
    assert task.phase is TaskPhase.ASSIGNED
    assert server.profiling.is_free(0)
    return task


class TestSweepHardCases:
    """Decisions the Eq. 2 sweep must reach however it picks its rows."""

    def test_withdrawal_reevaluates_the_workers_later_task_in_the_same_sweep(self):
        engine, server = _one_dawdler()
        monitor = server.dynamic_assignment
        monitor.stop()
        abandoned = _abandoned_task(server, engine)
        newer = submit(server, engine, deadline=300.0)
        engine.run(until=engine.now)
        assert newer.assigned_worker == 0
        before = list(_history(server, 0))
        # Against the pre-sweep history both rows sit under the threshold ...
        assert server.estimator.window_probability(before, 10.0, 300.0).probability < 0.1
        assert monitor.sweep(10.0) == 1
        assert [w.task_id for w in monitor.withdrawals] == [abandoned.task_id]
        # ... but the abandoned task's censored 10 s hold joins the history
        # first, and the newer task is judged against that updated history.
        after = _history(server, 0)
        assert after == before + [10.0]
        assert server.estimator.window_probability(after, 10.0, 300.0).probability >= 0.1
        assert newer.phase is TaskPhase.ASSIGNED

    def test_withdrawal_can_also_pull_a_later_task_that_was_not_due(self):
        """The updated history may push a row that was safe under the threshold."""
        engine, server = build_server(
            n_workers=1,
            behavior=dawdler_behavior(delay_cap=250.0),
            policy=react_policy(batch_threshold=1, batch_period=1000.0),
        )
        _train_profile(server, 0, [5.3, 6.8, 13.9])
        monitor = server.dynamic_assignment
        monitor.stop()
        abandoned = submit(server, engine, deadline=236.2)
        engine.run(until=0.0)
        assert server.inject_abandonment(abandoned.task_id)
        engine.run(until=183.0)
        closing = submit(server, engine, deadline=8.08)
        engine.run(until=183.0)
        assert closing.assigned_worker == 0
        history = list(_history(server, 0))
        # Before the sweep, the closing task's 7 s row is safe: its
        # horizon lies ahead and Eq. 2 is above the threshold.
        rows = server.profiling.rows_of([0])
        assert server.estimator.withdrawal_skip_horizons(rows, [8.08], 0.1)[0] > 7.0
        assert server.estimator.window_probability(history, 7.0, 8.08).probability >= 0.1
        assert monitor.sweep(190.0) == 2
        assert [(w.task_id, w.elapsed) for w in monitor.withdrawals] == [
            (abandoned.task_id, 190.0),
            (closing.task_id, 7.0),
        ]

    def test_threshold_mutated_mid_run_applies_from_the_next_sweep(self):
        engine, server = _one_dawdler(reassign_threshold=0.0)
        task = submit(server, engine, deadline=300.0)
        engine.run(until=20.5)
        assert server.dynamic_assignment.withdrawals == []
        object.__setattr__(server.policy, "reassign_threshold", 0.1)
        engine.run(until=21.0)
        assert [(w.time, w.task_id) for w in server.dynamic_assignment.withdrawals] == [
            (21.0, task.task_id)
        ]

    def test_worker_returning_with_the_same_id_gets_his_rows_evaluated(self):
        engine, server = _one_dawdler()
        task = _abandoned_task(server, engine)
        behavior = server.behavior_of(0)
        history = server.remove_worker(0)
        engine.run(until=30.5)
        # Nobody to evaluate the row against while he is away.
        assert server.dynamic_assignment.withdrawals == []
        assert task.phase is TaskPhase.ASSIGNED and task.assigned_worker == 0
        server.add_worker(WorkerProfile(worker_id=0), behavior, history)
        engine.run(until=31.0)
        assert [
            (w.time, w.task_id, w.worker_id) for w in server.dynamic_assignment.withdrawals
        ] == [(31.0, task.task_id, 0)]

    def test_rows_due_during_a_sweep_outage_fire_on_the_first_sweep_after(self):
        engine, server = _one_dawdler()
        FaultInjector(
            engine, server, FaultSchedule((SweepOutageFault(start=0.5, duration=30.0),))
        ).arm()
        task = submit(server, engine, deadline=300.0)
        engine.run(until=30.5)
        assert server.dynamic_assignment.withdrawals == []
        engine.run(until=31.0)
        withdrawals = server.dynamic_assignment.withdrawals
        assert [(w.time, w.task_id, w.elapsed) for w in withdrawals] == [
            (31.0, task.task_id, 31.0)
        ]

    def test_direct_sweep_accepts_any_now(self):
        engine, server = _one_dawdler()
        monitor = server.dynamic_assignment
        monitor.stop()
        task = submit(server, engine, deadline=90.0)
        engine.run(until=0.0)
        assert monitor.sweep(5.0) == 0  # under the crossing time
        assert monitor.sweep(500.0) == 0  # window closed: never withdrawn
        assert monitor.sweep(40.0) == 1  # an earlier instant: the window is open
        expected = server.estimator.window_probability([3.0, 4.0, 5.0], 40.0, 90.0).probability
        assert monitor.withdrawals == [Withdrawal(40.0, task.task_id, 0, 40.0, expected)]


class TestLifecycle:
    def test_double_start_rejected(self):
        engine, server = build_server()
        with pytest.raises(RuntimeError):
            server.dynamic_assignment.start()

    def test_stop_is_idempotent(self):
        engine, server = build_server()
        server.dynamic_assignment.stop()
        server.dynamic_assignment.stop()
