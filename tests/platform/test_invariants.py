"""Tests for the cross-component invariant checker."""

import pytest

from repro.model.task import TaskPhase
from repro.platform.invariants import (
    InvariantMonitor,
    InvariantViolation,
    check_server_invariants,
)
from repro.platform.policies import react_policy, traditional_policy

from .helpers import abandoner_behavior, build_server, dawdler_behavior, submit


class TestCleanStates:
    def test_fresh_server_passes(self):
        engine, server = build_server(n_workers=3)
        check_server_invariants(server)

    def test_mid_run_states_pass(self):
        engine, server = build_server(n_workers=3)
        for _ in range(6):
            submit(server, engine)
        for horizon in (0.5, 2.0, 5.0, 20.0, 60.0):
            engine.run(until=horizon)
            check_server_invariants(server)

    def test_dawdler_run_passes(self):
        engine, server = build_server(n_workers=2, behavior=dawdler_behavior())
        for _ in range(4):
            submit(server, engine, deadline=50.0)
        for horizon in (10.0, 40.0, 80.0, 200.0):
            engine.run(until=horizon)
            check_server_invariants(server)

    def test_traditional_abandonment_passes(self):
        """Traditional + abandoners: task stays ASSIGNED while the worker is
        long gone — I4 must tolerate the one-way reference, and does,
        because I4 only constrains workers that still claim a task."""
        engine, server = build_server(
            n_workers=1, behavior=abandoner_behavior(delay_cap=20.0),
            policy=traditional_policy(),
        )
        submit(server, engine, deadline=60.0)
        engine.run(until=100.0)
        check_server_invariants(server)


class TestViolationsDetected:
    def test_i1_phase_pool_mismatch(self):
        engine, server = build_server(n_workers=1)
        task = submit(server, engine)
        task.phase = TaskPhase.ASSIGNED  # lie: still in the unassigned pool
        with pytest.raises(InvariantViolation, match="I1"):
            check_server_invariants(server)

    def test_i2_unregistered_worker(self):
        engine, server = build_server(n_workers=1)
        task = submit(server, engine, deadline=600.0)
        engine.run(until=1.0)
        assert task.phase is TaskPhase.ASSIGNED
        server.profiling.deregister(0)  # bypasses the server's withdrawal
        with pytest.raises(InvariantViolation, match="I2"):
            check_server_invariants(server)

    def test_i3_task_claimed_by_two_workers(self):
        engine, server = build_server(n_workers=2)
        task = submit(server, engine, deadline=600.0)
        engine.run(until=1.0)
        assert task.assigned_worker == 0
        _corrupt_task_cell(server, 1, task.task_id)
        with pytest.raises(InvariantViolation, match="I3"):
            check_server_invariants(server)

    def test_i4_stale_profile_reference(self):
        engine, server = build_server(n_workers=2)
        submit(server, engine, deadline=600.0)
        engine.run(until=1.0)
        busy = next(
            worker_id for worker_id in server.profiling
            if server.profiling.current_task(worker_id) is not None
        )
        _corrupt_task_cell(server, busy, 9999)
        with pytest.raises(InvariantViolation, match="I4"):
            check_server_invariants(server)

    def test_i6_metric_corruption(self):
        engine, server = build_server(n_workers=1)
        server.metrics.completed_on_time = 99
        server.metrics.completed = 1
        with pytest.raises(InvariantViolation, match="I6"):
            check_server_invariants(server)

    def test_i7_lost_task(self):
        engine, server = build_server(
            n_workers=1, policy=react_policy(batch_threshold=10)
        )
        task = submit(server, engine)  # below threshold: stays queued
        # simulate a task silently vanishing from the pools
        server.task_management._unassigned.pop(task.task_id)
        with pytest.raises(InvariantViolation, match="I7"):
            check_server_invariants(server)

    def test_i7_disabled_for_adopting_servers(self):
        engine, server = build_server(
            n_workers=1, policy=react_policy(batch_threshold=10)
        )
        task = submit(server, engine)
        server.task_management._unassigned.pop(task.task_id)
        check_server_invariants(server, strict_accounting=False)


class TestMonitor:
    def test_periodic_audits(self):
        engine, server = build_server(n_workers=2)
        monitor = InvariantMonitor(engine, server, period=1.0).start()
        for _ in range(4):
            submit(server, engine)
        engine.run(until=30.0)
        assert monitor.audits == 30
        monitor.stop()

    def test_monitor_raises_through_engine(self):
        engine, server = build_server(n_workers=1)
        InvariantMonitor(engine, server, period=1.0).start()
        submit(server, engine, deadline=600.0)
        engine.run(until=0.5)
        _corrupt_task_cell(server, 0, 9999)  # mid-run
        with pytest.raises(InvariantViolation):
            engine.run(until=2.0)

    def test_double_start_rejected(self):
        engine, server = build_server(n_workers=1)
        monitor = InvariantMonitor(engine, server).start()
        with pytest.raises(RuntimeError):
            monitor.start()


def _corrupt_task_cell(server, worker_id, task_id):
    """Write a worker's current-task cell around the worker table's writers."""
    table = server.profiling
    table.task[table.slot(worker_id)] = task_id
