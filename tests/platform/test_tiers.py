"""Tests for the coordinator's §III-A tier escalation sweep.

Regions form a ``side × side`` grid built in row-major order, so the
server owning grid cell ``(row, col)`` has id ``row * side + col``.
"""

import pytest

from repro.model.region import RegionGrid
from repro.model.task import Task, TaskPhase
from repro.model.worker import WorkerProfile
from repro.platform.coordinator import Coordinator
from repro.platform.cost import ZeroCost
from repro.platform.policies import react_policy
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

from .helpers import reliable_behavior


def _coordinator(side=4, escalate_after=10.0, escalation_interval=2.0):
    engine = Engine()
    coordinator = Coordinator(
        engine=engine,
        policy=react_policy(batch_threshold=1),
        regions=list(RegionGrid(0, 1, 0, 1, side, side).regions),
        rng=RngRegistry(seed=4),
        escalate_after=escalate_after,
        escalation_interval=escalation_interval,
        cost_model=ZeroCost(),
    )
    return engine, coordinator


def _cell_point(cell, side):
    """A point in the middle of grid cell (row, col)."""
    r, c = cell
    return ((r + 0.5) / side, (c + 0.5) / side)


def _server(cell, side):
    """Id of the server owning grid cell (row, col)."""
    r, c = cell
    return r * side + c


def _task(lat, lon, deadline=300.0):
    return Task(latitude=lat, longitude=lon, deadline=deadline)


class TestStructure:
    def test_grid_size(self):
        engine, coordinator = _coordinator(side=4)
        assert len(coordinator.servers) == 16  # 4x4 leaves

    def test_cell_routing(self):
        engine, coordinator = _coordinator(side=2)
        servers = coordinator.servers
        assert coordinator.server_for(0.25, 0.25) is servers[_server((0, 0), 2)]
        assert coordinator.server_for(0.25, 0.75) is servers[_server((0, 1), 2)]
        assert coordinator.server_for(0.75, 0.25) is servers[_server((1, 0), 2)]

    def test_siblings_share_parent(self):
        engine, coordinator = _coordinator(side=4)
        assert set(coordinator.siblings(_server((0, 0), 4))) == {
            _server(cell, 4) for cell in ((0, 1), (1, 0), (1, 1))
        }
        assert set(coordinator.siblings(_server((2, 3), 4))) == {
            _server(cell, 4) for cell in ((2, 2), (3, 2), (3, 3))
        }

    def test_split_children_inherit_group(self):
        engine = Engine()
        coordinator = Coordinator(
            engine=engine,
            policy=react_policy(batch_threshold=1000),
            regions=list(RegionGrid(0, 1, 0, 1, 4, 4).regions),
            rng=RngRegistry(seed=4),
            cost_model=ZeroCost(),
            overload_queue_limit=1,
            max_splits_per_submit=1,
        )
        for _ in range(2):
            coordinator.submit_task(_task(*_cell_point((0, 0), 4)))
        assert coordinator.splits_performed == 1
        # the new half of cell (0, 0) gets id 16 and joins its parent's group
        group = {_server(cell, 4) for cell in ((0, 0), (0, 1), (1, 0), (1, 1))}
        assert set(coordinator.siblings(16)) == group
        assert set(coordinator.siblings(0)) == group - {0} | {16}

    def test_invalid_escalation_settings(self):
        for settings in (
            {"escalate_after": 0.0},
            {"escalate_after": -1.0},
            {"escalate_after": 10.0, "escalation_interval": 0.0},
            {"escalation_interval": -2.0},
        ):
            with pytest.raises(ValueError, match="must be positive"):
                Coordinator(
                    engine=Engine(),
                    policy=react_policy(),
                    regions=list(RegionGrid(0, 1, 0, 1, 2, 2).regions),
                    rng=RngRegistry(seed=1),
                    **settings,
                )


class TestEscalation:
    def test_starved_task_escalates_to_sibling(self):
        engine, coordinator = _coordinator(side=2, escalate_after=10.0)
        # worker only in cell (0,1); task lands in worker-less cell (0,0)
        lat, lon = _cell_point((0, 1), 2)
        coordinator.add_worker(
            WorkerProfile(worker_id=0, latitude=lat, longitude=lon),
            reliable_behavior(),
        )
        task_lat, task_lon = _cell_point((0, 0), 2)
        task = _task(task_lat, task_lon)
        coordinator.submit_task(task)
        engine.run(until=60.0)
        assert len(coordinator.escalations) == 1
        record = coordinator.escalations[0]
        assert record.from_server == _server((0, 0), 2)
        assert record.to_server == _server((0, 1), 2)
        assert record.waited >= 10.0
        assert not record.network_wide
        assert task.phase is TaskPhase.COMPLETED

    def test_network_wide_escalation_when_parent_starved(self):
        engine, coordinator = _coordinator(side=4, escalate_after=10.0)
        # only worker lives in the opposite corner (3,3): outside (0,0)'s
        # sibling group {(0,1),(1,0),(1,1)}
        lat, lon = _cell_point((3, 3), 4)
        coordinator.add_worker(
            WorkerProfile(worker_id=0, latitude=lat, longitude=lon),
            reliable_behavior(),
        )
        task_lat, task_lon = _cell_point((0, 0), 4)
        task = _task(task_lat, task_lon)
        coordinator.submit_task(task)
        engine.run(until=60.0)
        assert any(r.network_wide for r in coordinator.escalations)
        assert task.phase is TaskPhase.COMPLETED

    def test_fresh_tasks_not_escalated(self):
        engine, coordinator = _coordinator(side=2, escalate_after=50.0)
        lat, lon = _cell_point((0, 1), 2)
        coordinator.add_worker(
            WorkerProfile(worker_id=0, latitude=lat, longitude=lon),
            reliable_behavior(),
        )
        coordinator.submit_task(_task(*_cell_point((0, 0), 2)))
        engine.run(until=30.0)
        assert coordinator.escalations == []

    def test_expired_tasks_not_escalated(self):
        engine, coordinator = _coordinator(side=2, escalate_after=10.0)
        lat, lon = _cell_point((0, 1), 2)
        coordinator.add_worker(
            WorkerProfile(worker_id=0, latitude=lat, longitude=lon),
            reliable_behavior(),
        )
        coordinator.submit_task(_task(*_cell_point((0, 0), 2), deadline=8.0))
        engine.run(until=60.0)
        assert coordinator.escalations == []

    def test_no_free_workers_requeues_locally(self):
        engine, coordinator = _coordinator(side=2, escalate_after=5.0)
        task = _task(*_cell_point((0, 0), 2))
        coordinator.submit_task(task)
        engine.run(until=20.0)
        assert coordinator.escalations == []
        assert task.phase is TaskPhase.UNASSIGNED

    def test_local_worker_preferred_over_escalation(self):
        engine, coordinator = _coordinator(side=2, escalate_after=10.0)
        for cell, wid in (((0, 0), 0), ((0, 1), 1)):
            lat, lon = _cell_point(cell, 2)
            coordinator.add_worker(
                WorkerProfile(worker_id=wid, latitude=lat, longitude=lon),
                reliable_behavior(),
            )
        task = _task(*_cell_point((0, 0), 2))
        coordinator.submit_task(task)
        engine.run(until=60.0)
        assert coordinator.escalations == []
        assert task.phase is TaskPhase.COMPLETED
        assert task.assigned_worker == 0


class TestAggregate:
    def test_summary_counts_all_servers_and_escalations(self):
        engine, coordinator = _coordinator(side=2, escalate_after=5.0)
        lat, lon = _cell_point((0, 1), 2)
        coordinator.add_worker(
            WorkerProfile(worker_id=0, latitude=lat, longitude=lon),
            reliable_behavior(),
        )
        coordinator.submit_task(_task(*_cell_point((0, 0), 2)))
        coordinator.submit_task(_task(*_cell_point((0, 1), 2)))
        engine.run(until=100.0)
        summary = coordinator.aggregate_summary()
        assert summary["received"] == 2
        assert summary["completed"] == 2
        assert len(coordinator.escalations) >= 1
        coordinator.stop()

    def test_summary_keeps_weighted_averages_and_feedback(self):
        engine, coordinator = _coordinator(side=2, escalate_after=5.0)
        for wid, cell, behavior in (
            (0, (0, 1), reliable_behavior()),
            (1, (1, 1), reliable_behavior(min_time=20.0, max_time=30.0)),
        ):
            lat, lon = _cell_point(cell, 2)
            coordinator.add_worker(
                WorkerProfile(worker_id=wid, latitude=lat, longitude=lon), behavior
            )
        for cell in ((0, 0), (0, 1), (0, 1), (0, 1), (1, 1)):
            coordinator.submit_task(_task(*_cell_point(cell, 2)))
        engine.run(until=200.0)
        per_server = [
            s for s in (server.drain_and_summary() for server in coordinator.servers)
            if s["completed"]
        ]
        summary = coordinator.aggregate_summary()
        assert summary["completed"] == 5
        assert summary["positive_feedback_fraction"] == round(
            summary["positive_feedbacks"] / summary["received"], 4
        )
        weighted = sum(s["avg_total_time"] * s["completed"] for s in per_server) / 5
        unweighted = sum(s["avg_total_time"] for s in per_server) / len(per_server)
        assert summary["avg_total_time"] == round(weighted, 3)
        assert summary["avg_total_time"] != pytest.approx(unweighted)
        coordinator.stop()
