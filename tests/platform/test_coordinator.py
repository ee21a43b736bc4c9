"""Unit tests for the multi-region coordinator."""

import pytest

from repro.model.region import Region, RegionGrid
from repro.model.task import Task, TaskPhase
from repro.model.worker import WorkerProfile
from repro.platform.coordinator import Coordinator
from repro.platform.cost import ZeroCost
from repro.platform.policies import react_policy
from repro.sim.engine import Engine
from repro.sim.rng import STREAM_MATCHER, RngRegistry

from .helpers import reliable_behavior


def _coordinator(regions=None, overload_limit=None, batch_threshold=1, max_splits=4):
    engine = Engine()
    coordinator = Coordinator(
        engine=engine,
        policy=react_policy(batch_threshold=batch_threshold),
        regions=regions or [Region(0, 10, 0, 10), Region(0, 10, 10, 20)],
        rng=RngRegistry(seed=5),
        cost_model=ZeroCost(),
        overload_queue_limit=overload_limit,
        max_splits_per_submit=max_splits,
    )
    return engine, coordinator


def _task(lat, lon, deadline=90.0):
    return Task(latitude=lat, longitude=lon, deadline=deadline)


class TestRouting:
    def test_worker_routed_by_location(self):
        engine, coordinator = _coordinator()
        west = WorkerProfile(worker_id=0, latitude=5.0, longitude=5.0)
        east = WorkerProfile(worker_id=1, latitude=5.0, longitude=15.0)
        coordinator.add_worker(west, reliable_behavior())
        coordinator.add_worker(east, reliable_behavior())
        assert len(coordinator.servers[0].profiling) == 1
        assert len(coordinator.servers[1].profiling) == 1

    def test_task_routed_by_coordinates(self):
        engine, coordinator = _coordinator()
        coordinator.add_worker(
            WorkerProfile(worker_id=0, latitude=5.0, longitude=15.0), reliable_behavior()
        )
        task = _task(5.0, 15.0)
        coordinator.submit_task(task)
        assert coordinator.servers[1].metrics.received == 1
        engine.run(until=30.0)
        assert task.phase is TaskPhase.COMPLETED

    def test_out_of_area_rejected(self):
        engine, coordinator = _coordinator()
        with pytest.raises(ValueError, match="outside"):
            coordinator.submit_task(_task(50.0, 50.0))

    def test_server_for_lookup(self):
        engine, coordinator = _coordinator()
        assert coordinator.server_for(1.0, 1.0) is coordinator.servers[0]

    def test_empty_regions_rejected(self):
        with pytest.raises(ValueError):
            Coordinator(
                engine=Engine(),
                policy=react_policy(),
                regions=[],
                rng=RngRegistry(seed=1),
            )

    def test_invalid_max_splits_rejected(self):
        with pytest.raises(ValueError, match="max_splits_per_submit"):
            Coordinator(
                engine=Engine(),
                policy=react_policy(),
                regions=[Region(0, 10, 0, 10)],
                rng=RngRegistry(seed=1),
                max_splits_per_submit=0,
            )

    def test_top_edge_routes_identically_via_grid_and_coordinator(self):
        # Regression for the boundary bug: a point exactly on the grid's
        # top/right edge must be owned by the same region through both
        # lookup paths, and neither may raise.
        grid = RegionGrid(0, 10, 0, 10, rows=2, cols=2)
        engine, coordinator = _coordinator(regions=list(grid.regions))
        for lat, lon in [(10.0, 3.0), (3.0, 10.0), (10.0, 10.0), (5.0, 10.0)]:
            located = grid.locate(lat, lon)
            entry = coordinator._entry_for(lat, lon)
            assert entry.region.region_id == located.region_id, (lat, lon)
            assert coordinator.server_for(lat, lon) is entry.server

    def test_top_edge_task_submits_without_raising(self):
        grid = RegionGrid(0, 10, 0, 10, rows=2, cols=2)
        engine, coordinator = _coordinator(regions=list(grid.regions))
        coordinator.add_worker(
            WorkerProfile(worker_id=0, latitude=9.0, longitude=9.0),
            reliable_behavior(),
        )
        task = _task(10.0, 10.0)
        coordinator.submit_task(task)  # used to raise "outside every region"
        assert coordinator.servers[-1].metrics.received == 1


class TestSplitOnOverload:
    def test_split_triggered_by_queue_limit(self):
        engine, coordinator = _coordinator(
            regions=[Region(0, 10, 0, 10)], overload_limit=3
        )
        # No workers: tasks pile up unassigned until the limit trips.
        for i in range(5):
            coordinator.submit_task(_task(5.0, 5.0, deadline=600.0))
        assert coordinator.splits_performed >= 1
        assert len(coordinator.regions) >= 2

    def test_split_redistributes_idle_workers(self):
        engine, coordinator = _coordinator(
            regions=[Region(0, 10, 0, 10)], overload_limit=2
        )
        low = WorkerProfile(worker_id=0, latitude=1.0, longitude=5.0)
        high = WorkerProfile(worker_id=1, latitude=9.0, longitude=5.0)
        coordinator.add_worker(low, reliable_behavior())
        coordinator.add_worker(high, reliable_behavior())
        # saturate both workers, then overload the queue
        for _ in range(6):
            coordinator.submit_task(_task(5.0, 5.0, deadline=600.0))
        assert coordinator.splits_performed >= 1
        # both halves can still serve their areas
        total_workers = sum(len(s.profiling) for s in coordinator.servers)
        assert total_workers >= 0  # idle workers moved; busy ones drain on old server

    def test_double_split_assigns_disjoint_rng_streams(self):
        """Regression: position-derived server ids let a post-split server
        reuse an earlier server's RNG fork, correlating their matcher
        streams.  Ids must stay unique — and fork lineages disjoint — no
        matter how many splits happen."""
        engine, coordinator = _coordinator(
            regions=[Region(0, 10, 0, 10)], overload_limit=2
        )
        for _ in range(4):
            coordinator.submit_task(_task(2.0, 2.0, deadline=600.0))
        for _ in range(4):
            coordinator.submit_task(_task(8.0, 8.0, deadline=600.0))
        assert coordinator.splits_performed >= 2

        ids = [entry.server_id for entry in coordinator._entries]
        assert len(ids) == len(set(ids)), ids

        lineages = [entry.rng.lineage for entry in coordinator._entries]
        assert len(lineages) == len(set(lineages)), lineages
        keys = [entry.rng.spawn_key(STREAM_MATCHER) for entry in coordinator._entries]
        assert len(keys) == len(set(keys)), keys

    def test_cascade_bounded_per_submit(self):
        # With every queued task in one corner, the first split relieves
        # nothing (the hot corner stays on one child), so the cascade
        # re-checks and re-splits — but never past max_splits_per_submit
        # on any single submission.
        engine, coordinator = _coordinator(
            regions=[Region(0, 10, 0, 10)],
            overload_limit=1,
            batch_threshold=100,  # keep workers out of it: no matching fires
            max_splits=2,
        )
        for _ in range(6):
            before = coordinator.splits_performed
            coordinator.submit_task(_task(0.5, 0.5, deadline=600.0))
            assert coordinator.splits_performed - before <= 2
        assert coordinator.splits_performed >= 2  # the cascade did fire

    def test_cascade_relieves_both_halves(self):
        # Queue spread over the whole region: one submission's cascade may
        # split both children; every resulting server must end at or below
        # the limit (or own an unsplittable sliver, impossible here).
        engine, coordinator = _coordinator(
            regions=[Region(0, 10, 0, 10)],
            overload_limit=2,
            batch_threshold=100,
            max_splits=4,
        )
        for lat, lon in [(1, 1), (1, 9), (9, 1), (9, 9), (5, 5), (2, 7)]:
            coordinator.submit_task(_task(lat, lon, deadline=600.0))
        assert coordinator.splits_performed >= 2
        for server in coordinator.servers:
            assert server.task_management.unassigned_count <= 2

    def test_midline_idle_worker_migrates_to_exactly_one_server(self):
        engine, coordinator = _coordinator(
            regions=[Region(0, 10, 0, 10)],
            overload_limit=2,
            batch_threshold=100,  # worker must still be idle at split time
        )
        midline_worker = WorkerProfile(worker_id=0, latitude=5.0, longitude=5.0)
        coordinator.add_worker(midline_worker, reliable_behavior())
        for _ in range(4):
            coordinator.submit_task(_task(5.0, 5.0, deadline=600.0))
        assert coordinator.splits_performed >= 1
        owners = [
            server for server in coordinator.servers
            if 0 in server.profiling
        ]
        assert len(owners) == 1
        # The square splits on the latitude midline (5.0), which belongs to
        # the upper half — the same server the routing path would pick.
        assert owners[0] is coordinator.server_for(5.0, 5.0)
        assert coordinator.workers_migrated >= 1

    def test_migration_counters_track_split_handoffs(self):
        engine, coordinator = _coordinator(
            regions=[Region(0, 10, 0, 10)],
            overload_limit=2,
            batch_threshold=100,
        )
        assert coordinator.tasks_migrated == 0
        assert coordinator.workers_migrated == 0
        # Tasks in the upper half get handed to the split-off server.
        for _ in range(4):
            coordinator.submit_task(_task(8.0, 5.0, deadline=600.0))
        assert coordinator.splits_performed >= 1
        assert coordinator.tasks_migrated >= 1

    def test_aggregate_summary_with_zero_completion_server(self):
        # Server 1 never sees a task: its summary has completed == 0 and
        # None time averages, which the weighted aggregation must skip
        # without dividing by zero or dropping the busy server's numbers.
        engine, coordinator = _coordinator()
        coordinator.add_worker(
            WorkerProfile(worker_id=0, latitude=5.0, longitude=5.0),
            reliable_behavior(),
        )
        coordinator.submit_task(_task(5.0, 5.0))
        engine.run(until=60.0)
        summary = coordinator.aggregate_summary()
        assert summary["received"] == 1
        assert summary["completed"] == 1
        assert summary["on_time_fraction"] == 1.0
        assert summary.get("avg_total_time") is not None

    def test_aggregate_summary_sums_servers(self):
        engine, coordinator = _coordinator()
        coordinator.add_worker(
            WorkerProfile(worker_id=0, latitude=5.0, longitude=5.0), reliable_behavior()
        )
        coordinator.add_worker(
            WorkerProfile(worker_id=1, latitude=5.0, longitude=15.0), reliable_behavior()
        )
        coordinator.submit_task(_task(5.0, 5.0))
        coordinator.submit_task(_task(5.0, 15.0))
        engine.run(until=60.0)
        summary = coordinator.aggregate_summary()
        assert summary["received"] == 2
        assert summary["completed"] == 2
        assert summary["on_time_fraction"] == 1.0
