"""LiveRegionServer on the deterministic DES engine.

The acceptance claim of the live-service PR is that the four platform
component classes run unmodified under either clock.  Here the live bridge
— pull-delivery inboxes, answer staleness, AMT expiry, liveness culling —
is exercised on the :class:`~repro.sim.engine.Engine`, where every timing
assertion is exact; the wall-clock side of the same claim is the gateway
suite plus the loadgen round-trip.
"""

import pytest

from repro.model.task import Task, TaskCategory, TaskPhase
from repro.model.worker import WorkerProfile
from repro.platform.policies import react_policy
from repro.service.bridge import LiveRegionServer
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


def build_live_server(**kwargs):
    engine = Engine()
    server = LiveRegionServer(
        clock=engine,
        policy=react_policy(batch_threshold=1),
        rng=RngRegistry(seed=7),
        **kwargs,
    )
    server.start()
    return engine, server


def make_task(deadline=60.0):
    return Task(
        latitude=5.0,
        longitude=5.0,
        deadline=deadline,
        reward=0.05,
        category=TaskCategory.GENERIC,
    )


def register(server, worker_id=1):
    profile = WorkerProfile(worker_id=worker_id, latitude=5.0, longitude=5.0)
    server.add_worker(profile)
    return profile


class TestDispatchAndAnswer:
    def test_end_to_end_on_the_des_engine(self):
        engine, server = build_live_server()
        register(server)
        task = make_task()
        server.submit_task(task)
        engine.run(until=1.0)  # dispatch the threshold-triggered batch

        notice = server.heartbeat(1)
        assert notice is not None
        assert notice.task_id == task.task_id
        assert notice.worker_id == 1
        assert notice.generation == 1
        assert notice.deadline_at == task.absolute_deadline
        # The inbox slot is consumed: the next poll is empty.
        assert server.heartbeat(1) is None

        engine.run(until=5.0)
        outcome = server.submit_answer(1, task.task_id, notice.generation)
        assert outcome.completed and outcome.met_deadline
        assert task.phase is TaskPhase.COMPLETED
        assert server.in_flight == 0

        summary = server.drain_and_summary()
        assert summary["received"] == 1
        assert summary["pending_unassigned"] == 0

    def test_answer_frees_worker_for_next_task(self):
        engine, server = build_live_server()
        register(server)
        first, second = make_task(), make_task()
        server.submit_task(first)
        engine.run(until=1.0)
        assert server.heartbeat(1).task_id == first.task_id
        server.submit_answer(1, first.task_id, 1)
        # The completion's maybe_trigger matches queued work to the freed
        # worker on the next engine step.
        server.submit_task(second)
        engine.run(until=2.0)
        assert server.heartbeat(1).task_id == second.task_id

    def test_answer_unknown_worker_and_task(self):
        engine, server = build_live_server()
        register(server)
        task = make_task()
        server.submit_task(task)
        assert server.submit_answer(99, task.task_id, 1).status == "unknown_worker"
        assert server.submit_answer(1, 10_000_000, 1).status == "unknown_task"


class TestRunningExpiry:
    def test_expiry_withdraws_and_releases_the_worker(self):
        engine, server = build_live_server()
        register(server)
        task = make_task(deadline=2.0)
        server.submit_task(task)
        engine.run(until=1.0)
        assert server.profiling.current_task(1) == task.task_id
        # The worker never polls; the deadline lapses with the task out.
        engine.run(until=10.0)
        assert task.phase is not TaskPhase.ASSIGNED
        assert server.profiling.current_task(1) is None
        assert server.metrics.expiry_returns == 1
        # The undelivered notice died with the assignment.
        assert server.heartbeat(1) is None

    def test_answer_after_expiry_is_stale(self):
        engine, server = build_live_server()
        register(server)
        task = make_task(deadline=2.0)
        server.submit_task(task)
        engine.run(until=1.0)
        notice = server.heartbeat(1)
        assert notice is not None
        engine.run(until=10.0)  # deadline passes while the worker dawdles
        outcome = server.submit_answer(1, task.task_id, notice.generation)
        assert outcome.status == "stale"
        assert not outcome.completed
        assert server.metrics.summary()["completed"] == 0


class TestWorkerLifecycle:
    def test_heartbeat_unknown_worker_raises(self):
        _, server = build_live_server()
        with pytest.raises(KeyError):
            server.heartbeat(42)

    def test_liveness_cull_deregisters_silent_workers(self):
        engine, server = build_live_server(liveness_timeout=5.0)
        register(server)
        engine.run(until=10.0)  # never heartbeats: culled after 5 s
        assert 1 not in server.profiling
        with pytest.raises(KeyError):
            server.heartbeat(1)

    def test_heartbeat_keeps_worker_alive(self):
        engine, server = build_live_server(liveness_timeout=5.0)
        register(server)
        for t in (3.0, 6.0, 9.0):
            engine.run(until=t)
            server.heartbeat(1)
        engine.run(until=12.0)
        assert 1 in server.profiling

    def test_add_worker_alias_ignores_behavior(self):
        _, server = build_live_server()
        server.add_worker(
            WorkerProfile(worker_id=3, latitude=5.0, longitude=5.0),
            behavior=object(),
        )
        assert 3 in server.profiling


class TestTaskStatus:
    def test_status_through_the_lifecycle(self):
        engine, server = build_live_server()
        register(server)
        task = make_task()
        server.submit_task(task)
        status = server.task_status(task.task_id)
        assert status["phase"] in ("unassigned", "assigned")
        assert status["met_deadline"] is None
        engine.run(until=1.0)
        server.submit_answer(1, task.task_id, 1)
        status = server.task_status(task.task_id)
        assert status["phase"] == "completed"
        assert status["met_deadline"] is True
        assert status["assignments"] == 1

    def test_unknown_task_raises(self):
        _, server = build_live_server()
        with pytest.raises(KeyError):
            server.task_status(123456789)


class TestConstruction:
    def test_liveness_validation(self):
        engine = Engine()
        with pytest.raises(ValueError, match="liveness_timeout"):
            LiveRegionServer(
                clock=engine,
                policy=react_policy(),
                rng=RngRegistry(seed=1),
                liveness_timeout=0.0,
            )

    def test_nan_liveness_timeout_rejected(self):
        with pytest.raises(ValueError, match="liveness_timeout"):
            LiveRegionServer(
                clock=Engine(),
                policy=react_policy(),
                rng=RngRegistry(seed=1),
                liveness_timeout=float("nan"),
            )

    def test_stop_disarms_timers(self):
        engine, server = build_live_server(liveness_timeout=5.0)
        server.stop()
        engine.run(until=50.0)
        assert engine.pending_active == 0
