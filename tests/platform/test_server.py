"""Integration-grained unit tests for the REACT region server."""

from repro.model.task import TaskPhase
from repro.platform.policies import react_policy, traditional_policy

from .helpers import (
    abandoner_behavior,
    build_server,
    dawdler_behavior,
    reliable_behavior,
    submit,
)


class TestHappyPath:
    def test_task_completes_on_time(self):
        engine, server = build_server(n_workers=2)
        task = submit(server, engine, deadline=60.0)
        engine.run(until=30.0)
        assert task.phase is TaskPhase.COMPLETED
        assert task.met_deadline
        assert server.metrics.completed_on_time == 1
        server.metrics.check_conservation()

    def test_profile_records_execution(self):
        engine, server = build_server(n_workers=1)
        submit(server, engine)
        engine.run(until=30.0)
        times = server.profiling.history(0).execution_times
        assert len(times) == 1
        assert 2.0 <= times[0] <= 4.0

    def test_multiple_tasks_serialized_on_one_worker(self):
        engine, server = build_server(n_workers=1)
        tasks = [submit(server, engine, deadline=120.0) for _ in range(3)]
        engine.run(until=120.0)
        assert all(t.phase is TaskPhase.COMPLETED for t in tasks)
        # completions happen one at a time: 3 completions within ~12s + batch lag
        assert server.metrics.completed == 3

    def test_feedback_positive_for_perfect_quality(self):
        engine, server = build_server(n_workers=1, behavior=reliable_behavior(quality=1.0))
        submit(server, engine)
        engine.run(until=30.0)
        assert server.metrics.positive_feedbacks == 1

    def test_feedback_negative_for_zero_quality(self):
        engine, server = build_server(n_workers=1, behavior=reliable_behavior(quality=0.0))
        submit(server, engine)
        engine.run(until=30.0)
        assert server.metrics.completed == 1
        assert server.metrics.positive_feedbacks == 0


class TestDawdlersAndReassignment:
    def _train(self, server, engine, n=3, deadline=300.0):
        """Run n quick tasks through every worker to build history."""
        for _ in range(n):
            for _ in range(len(server.profiling)):
                submit(server, engine, deadline=deadline)
        engine.run(until=engine.now + 100.0)

    def test_trained_dawdler_task_reassigned(self):
        # Worker 0 reliable, builds history; then becomes effectively the
        # monitor's target when he dawdles.  We simulate by having one
        # dawdling worker among reliable ones after training.
        engine, server = build_server(n_workers=3)
        self._train(server, engine)
        trained = server.metrics.completed
        assert trained >= 9

        # Swap worker 0's behaviour to dawdling (the profile keeps its fast
        # history, so Eq. 2 will fire once he sits on a task too long).
        server._behaviors[0] = dawdler_behavior(delay_cap=130.0)
        server._behaviors[1] = dawdler_behavior(delay_cap=130.0)
        server._behaviors[2] = dawdler_behavior(delay_cap=130.0)
        task = submit(server, engine, deadline=90.0)
        engine.run(until=engine.now + 300.0)
        # the task was withdrawn at least once (Eq. 2 or expiry)
        assert task.assignments >= 2 or len(server.dynamic_assignment.withdrawals) > 0

    def test_abandoned_task_pulled_at_expiry(self):
        engine, server = build_server(
            n_workers=1, behavior=abandoner_behavior(delay_cap=130.0)
        )
        task = submit(server, engine, deadline=50.0)
        engine.run(until=45.0)
        assert task.phase is TaskPhase.ASSIGNED
        engine.run(until=engine.now + 20.0)
        # expiry pull happened; with only an abandoner available the task
        # churns, but it must not be stuck with the original worker
        assert server.metrics.expiry_returns >= 1

    def test_abandoner_released_at_walkaway(self):
        engine, server = build_server(
            n_workers=1,
            behavior=abandoner_behavior(delay_cap=30.0),
            policy=react_policy(batch_threshold=1, expire_running_tasks=False,
                                use_probabilistic_model=False),
        )
        submit(server, engine, deadline=600.0)
        engine.run(until=40.0)
        # worker walked away at 30 s: free again, task still "assigned"
        assert server.profiling.is_free(0)
        assert server.task_management.assigned_count == 1

    def test_withdrawal_records_censored_history(self):
        engine, server = build_server(
            n_workers=1, behavior=abandoner_behavior(delay_cap=130.0)
        )
        submit(server, engine, deadline=40.0)
        engine.run(until=100.0)
        # no result ever came back, so every observation is a censored hold
        history = server.profiling.history(0)
        assert len(history.execution_times) >= 1
        assert sum(history.finished) == 0


class TestTraditionalPolicy:
    def test_no_reassignment_ever(self):
        engine, server = build_server(
            n_workers=2,
            behavior=dawdler_behavior(delay_cap=130.0),
            policy=traditional_policy(),
        )
        task = submit(server, engine, deadline=60.0)
        for _ in range(12):
            submit(server, engine, deadline=60.0)
        engine.run(until=engine.now + 400.0)
        assert server.metrics.reassignments == 0
        assert server.metrics.expiry_returns == 0
        # dawdled tasks complete late rather than being rescued
        assert task.phase is TaskPhase.COMPLETED
        assert not task.met_deadline

    def test_abandoned_task_lost_forever(self):
        engine, server = build_server(
            n_workers=1,
            behavior=abandoner_behavior(),
            policy=traditional_policy(),
        )
        for _ in range(10):
            submit(server, engine, deadline=60.0)
        engine.run(until=engine.now + 1000.0)
        assert server.metrics.completed == 0


class TestWorkerChurn:
    def test_remove_idle_worker(self):
        engine, server = build_server(n_workers=2)
        server.remove_worker(1)
        assert len(server.profiling) == 1

    def _abandoner_departs(self, **policy_overrides):
        """The abandoner walks away at 30 s (released; the task stays
        ASSIGNED to him), then departs: the task names an unregistered
        worker through the Eq. 2 sweeps and the running expiry."""
        engine, server = build_server(
            n_workers=1,
            behavior=abandoner_behavior(delay_cap=30.0),
            policy=react_policy(batch_threshold=1, **policy_overrides),
        )
        task = submit(server, engine, deadline=600.0)
        engine.run(until=40.0)
        server.remove_worker(0)
        engine.run(until=700.0)
        return server, task

    def test_departed_abandoner_task_returns_at_expiry(self):
        server, task = self._abandoner_departs()
        assert server.metrics.expiry_returns == 1
        assert task.phase is not TaskPhase.ASSIGNED and task.assigned_worker is None

    def test_departed_abandoner_task_stays_assigned_without_expiry(self):
        server, task = self._abandoner_departs(expire_running_tasks=False)
        assert task.phase is TaskPhase.ASSIGNED
        assert server.metrics.expiry_returns == 0

    def test_completion_of_removed_worker_is_noop(self):
        engine, server = build_server(n_workers=1)
        submit(server, engine, deadline=600.0)
        engine.run(until=1.0)
        server.remove_worker(0)
        engine.run(until=60.0)  # pending completion event fires harmlessly
        server.metrics.check_conservation()


class TestLifecycleGuards:
    def test_stop_then_start_again(self):
        engine, server = build_server()
        server.stop()
        server.start()
