"""Tests for the worker-churn process."""

import pytest

from repro.model.task import TaskPhase
from repro.model.worker import WorkerProfile
from repro.workload.churn import ChurnProcess

from ..platform.helpers import build_server, reliable_behavior, submit


def _churned_server(n_workers=4, mean_session=20.0, mean_absence=10.0, seed=5):
    engine, server = build_server(n_workers=n_workers, seed=seed)
    import numpy as np

    churn = ChurnProcess(
        engine,
        server,
        rng=np.random.default_rng(seed),
        mean_session_s=mean_session,
        mean_absence_s=mean_absence,
    )
    churn.track_all_workers()
    return engine, server, churn


class TestSessions:
    def test_workers_cycle_offline_and_back(self):
        engine, server, churn = _churned_server()
        engine.run(until=500.0)
        assert churn.stats.departures > 0
        assert churn.stats.returns > 0
        # returns lag departures by at most the currently-offline workers
        assert churn.stats.departures - churn.stats.returns <= 4

    def test_online_state_matches_registry(self):
        engine, server, churn = _churned_server(n_workers=10)
        engine.run(until=300.0)
        online = {wid for wid, state in churn._states.items() if state.online}
        assert online == set(server.profiling)
        assert all(server.profiling.is_online(wid) for wid in online)

    def test_departed_worker_leaves_registry(self):
        engine, server, churn = _churned_server(n_workers=1, mean_session=5.0,
                                                mean_absence=1000.0)
        engine.run(until=100.0)
        assert churn.stats.departures == 1
        assert len(server.profiling) == 0

    def test_returning_worker_keeps_history(self):
        engine, server, churn = _churned_server(
            n_workers=1, mean_session=50.0, mean_absence=5.0
        )
        task = submit(server, engine, deadline=300.0)
        engine.run(until=30.0)
        assert server.metrics.completed == 1
        history_before = list(server.profiling.history(0).execution_times)
        assert history_before
        engine.run(until=400.0)
        assert churn.stats.returns >= 1
        if 0 in server.profiling:  # worker is back online
            row = server.profiling.history(0)
            assert row.execution_times[: len(history_before)] == history_before
            assert row.assignment_count >= 1

    def test_tasks_disrupted_by_departure_requeue(self):
        # one slow worker, frequent departures: his running task must be
        # withdrawn, not lost
        engine, server, churn = _churned_server(
            n_workers=1, mean_session=3.0, mean_absence=3.0
        )
        server._behaviors[0] = reliable_behavior(min_time=30.0, max_time=40.0)
        task = submit(server, engine, deadline=2000.0)
        engine.run(until=200.0)
        if churn.stats.tasks_disrupted:
            assert task.phase in (
                TaskPhase.UNASSIGNED, TaskPhase.ASSIGNED, TaskPhase.COMPLETED,
                TaskPhase.EXPIRED,
            )
            server.metrics.check_conservation()

    def test_double_tracking_rejected(self):
        engine, server, churn = _churned_server(n_workers=1)
        with pytest.raises(ValueError, match="already tracked"):
            churn.track(WorkerProfile(worker_id=0), server._behaviors[0])

    def test_invalid_means_rejected(self):
        import numpy as np

        engine, server = build_server(n_workers=1)
        with pytest.raises(ValueError):
            ChurnProcess(engine, server, np.random.default_rng(0), mean_session_s=0.0)

    def test_stop_freezes_state(self):
        engine, server, churn = _churned_server(n_workers=3)
        engine.run(until=50.0)
        departures = churn.stats.departures
        churn.stop()
        engine.run(until=500.0)
        assert churn.stats.departures == departures


class TestEndToEndWithChurn:
    def test_system_survives_churn(self):
        engine, server, churn = _churned_server(
            n_workers=10, mean_session=60.0, mean_absence=20.0, seed=11
        )
        for i in range(30):
            from repro.sim.events import EventKind

            engine.schedule_at(
                3.0 * i,
                EventKind.TASK_ARRIVAL,
                lambda e: submit(server, engine, deadline=120.0),
            )
        engine.run(until=400.0)
        server.metrics.check_conservation()
        assert server.metrics.received == 30
        assert server.metrics.completed > 0
