"""When the running expiry is armed (AMT deadline pull-back, §II).

The push delivery knows when a drawn result lands, so it arms the expiry
only when that result cannot come first: the draw is an abandonment, or its
duration reaches the remaining deadline (``>=``: at equality event priority
orders completion and expiry).  The pull delivery never knows, so it always
arms; Traditional never expires running tasks at all.  A chaos abandonment
of an execution whose expiry was skipped arms it at its original instant.
"""

from repro.model.task import TaskPhase
from repro.model.worker import WorkerProfile
from repro.platform.cost import ZeroCost
from repro.platform.policies import react_policy, traditional_policy
from repro.service.bridge import LiveRegionServer
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

from .helpers import (
    abandoner_behavior,
    build_server,
    dawdler_behavior,
    reliable_behavior,
    submit,
)


def _armed(engine, server):
    """Assignment records of the queued, uncancelled running-expiry events."""
    return [
        entry[3].payload
        for entry in engine._heap
        if entry[3].callback == server._on_running_expiry and not entry[3].cancelled
    ]


def _current(server, task):
    """The task's current assignment record, as a one-item list."""
    assignment = server.task_management.assignment(task.task_id)
    assert assignment is not None and assignment.live()
    assert (assignment.worker_id, assignment.generation) == (0, 1)
    return [assignment]


def _assigned(behavior, deadline, policy=None, hook=None):
    """One worker, one task, run until the task is out with the worker."""
    engine, server = build_server(n_workers=1, behavior=behavior, policy=policy)
    server.execution_hook = hook
    task = submit(server, engine, deadline=deadline)
    engine.run(until=0.5)
    assert task.phase is TaskPhase.ASSIGNED
    return engine, server, task


class TestPushDelivery:
    def test_abandoned_draw_arms(self):
        engine, server, task = _assigned(abandoner_behavior(delay_cap=30.0), 600.0)
        assert _armed(engine, server) == _current(server, task)

    def test_duration_beyond_deadline_arms(self):
        # A dawdler draws ~129-130 s against a 60 s deadline.
        engine, server, task = _assigned(dawdler_behavior(delay_cap=130.0), 60.0)
        assert _armed(engine, server) == _current(server, task)

    def test_duration_equal_to_remaining_arms(self):
        def finish_at_deadline(assignment):
            assignment.duration = assignment.task.absolute_deadline - assignment.assigned_at

        engine, server, task = _assigned(
            reliable_behavior(), 60.0, hook=finish_at_deadline
        )
        assert _armed(engine, server) == _current(server, task)

    def test_duration_before_deadline_skips(self):
        engine, server, task = _assigned(reliable_behavior(), 90.0)
        assert _armed(engine, server) == []
        assignment = server.task_management.assignment(task.task_id)
        assert assignment.skipped_expiry_at == task.absolute_deadline
        engine.run(until=200.0)
        assert task.phase is TaskPhase.COMPLETED
        assert server.metrics.expiry_returns == 0

    def test_decided_after_execution_hook(self):
        """A hook that turns a fast draw into a no-show gets the expiry."""

        def no_show(assignment):
            assignment.abandoned = True
            assignment.duration = 1.0

        engine, server, task = _assigned(reliable_behavior(), 90.0, hook=no_show)
        assert _armed(engine, server) == _current(server, task)

    def test_traditional_never_arms(self):
        engine, server, _ = _assigned(
            abandoner_behavior(), 600.0, policy=traditional_policy(batch_threshold=1)
        )
        assert _armed(engine, server) == []


class TestPullDelivery:
    def test_always_arms(self):
        engine = Engine()
        server = LiveRegionServer(
            clock=engine,
            policy=react_policy(batch_threshold=1),
            rng=RngRegistry(seed=3),
            cost_model=ZeroCost(),
        )
        server.add_worker(WorkerProfile(worker_id=0))
        server.start()
        task = submit(server, engine, deadline=90.0)
        engine.run(until=0.5)
        assert task.phase is TaskPhase.ASSIGNED
        assert _armed(engine, server) == _current(server, task)


class TestInjectedAbandonment:
    def test_skipped_expiry_returns_task_at_its_deadline(self):
        """The worker would finish at 20-30 s, inside the 60 s deadline, so
        no expiry was armed; a chaos abandonment at 5 s keeps the task
        ASSIGNED, and the deadline must still pull it back."""
        engine, server, task = _assigned(
            reliable_behavior(min_time=20.0, max_time=30.0), 60.0
        )
        assert _armed(engine, server) == []
        engine.run(until=5.0)
        before = server.metrics.expiry_returns
        assert server.inject_abandonment(task.task_id)
        assert _armed(engine, server) == _current(server, task)
        engine.run(until=task.absolute_deadline - 1e-6)
        assert task.phase is TaskPhase.ASSIGNED
        assert server.metrics.expiry_returns == before
        engine.run(until=task.absolute_deadline)
        assert server.metrics.expiry_returns == before + 1
        assert task.phase is not TaskPhase.ASSIGNED

    def test_armed_expiry_not_doubled(self):
        engine, server, task = _assigned(dawdler_behavior(delay_cap=130.0), 60.0)
        assert server.inject_abandonment(task.task_id)
        assert _armed(engine, server) == _current(server, task)
