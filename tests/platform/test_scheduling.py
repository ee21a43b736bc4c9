"""Unit tests for the Scheduling Component (batching, latency, publication)."""

import weakref

import pytest

from repro.model.task import TaskPhase
from repro.platform.cost import PaperCalibratedCost
from repro.platform.policies import greedy_policy, react_policy

from .helpers import build_server, reliable_behavior, submit


class TestThresholdTrigger:
    def test_batch_starts_at_threshold(self):
        engine, server = build_server(
            n_workers=10, policy=react_policy(batch_threshold=3, batch_period=1000.0)
        )
        submit(server, engine)
        submit(server, engine)
        assert len(server.scheduling.batches) == 0
        assert server.task_management.unassigned_count == 2
        submit(server, engine)  # third task crosses the threshold
        engine.run(until=0.5)
        assert len(server.scheduling.batches) == 1
        assert server.scheduling.batches[0].n_tasks == 3

    def test_no_batch_without_available_workers(self):
        engine, server = build_server(
            n_workers=1, policy=react_policy(batch_threshold=1, batch_period=1000.0)
        )
        submit(server, engine)
        engine.run(until=0.1)  # worker 0 now busy
        submit(server, engine)
        submit(server, engine)
        before = len(server.scheduling.batches)
        engine.run(until=0.2)
        # no free worker -> no new batch despite threshold
        assert len(server.scheduling.batches) == before
        # once the worker completes (~2-4 s), the queue drains
        engine.run(until=30.0)
        assert server.task_management.unassigned_count == 0


class TestPeriodicTrigger:
    def test_straggler_drained_by_periodic_batch(self):
        engine, server = build_server(
            n_workers=5, policy=react_policy(batch_threshold=10, batch_period=5.0)
        )
        task = submit(server, engine)  # below threshold
        engine.run(until=4.9)
        assert task.phase is TaskPhase.UNASSIGNED
        engine.run(until=5.5)
        assert task.phase is TaskPhase.ASSIGNED

    def test_periodic_noop_when_queue_empty(self):
        engine, server = build_server(n_workers=2)
        engine.run(until=20.0)
        assert len(server.scheduling.batches) == 0


class TestSimulatedLatency:
    def test_assignments_published_after_model_latency(self):
        cost = PaperCalibratedCost(batch_overhead=2.0)
        engine, server = build_server(
            n_workers=3,
            cost_model=cost,
            policy=react_policy(batch_threshold=1, batch_period=1000.0),
        )
        task = submit(server, engine)
        engine.run(until=1.9)
        assert task.phase is TaskPhase.UNASSIGNED  # matcher still "running"
        engine.run(until=2.5)
        assert task.phase is TaskPhase.ASSIGNED
        record = server.scheduling.batches[0]
        assert record.published_at - record.started_at == pytest.approx(2.0, abs=0.01)

    def test_single_batch_at_a_time(self):
        cost = PaperCalibratedCost(batch_overhead=3.0)
        engine, server = build_server(
            n_workers=10,
            cost_model=cost,
            policy=react_policy(batch_threshold=1, batch_period=1000.0),
        )
        submit(server, engine)
        engine.run(until=1.0)  # batch 1 in flight
        submit(server, engine)
        submit(server, engine)
        engine.run(until=2.0)
        assert len(server.scheduling.batches) == 0  # nothing published yet
        engine.run(until=7.0)
        # batch 1 published at t=3, batch 2 chained immediately after
        assert len(server.scheduling.batches) == 2
        assert server.scheduling.batches[1].n_tasks == 2

    def test_matcher_metrics_recorded(self):
        cost = PaperCalibratedCost(batch_overhead=1.0)
        engine, server = build_server(
            n_workers=2, cost_model=cost,
            policy=react_policy(batch_threshold=1, batch_period=1000.0),
        )
        submit(server, engine)
        engine.run(until=5.0)
        assert server.metrics.matcher_invocations == 1
        assert server.metrics.matcher_simulated_seconds == pytest.approx(1.0, abs=0.01)


class TestChainedBatchMemory:
    def test_published_graph_is_dead_when_the_next_build_starts(self):
        # Tasks arrive while every Greedy batch is matching, so most
        # batches chain straight from the previous one's publication.  The
        # published batch's graph must be freed by then, or two batches'
        # arrays are alive at once.
        engine, server = build_server(
            n_workers=6,
            cost_model=PaperCalibratedCost(batch_overhead=1.0),
            policy=greedy_policy(batch_period=1000.0),
        )
        scheduling = server.scheduling
        publishing = [False]
        publish = scheduling._publish

        def traced_publish(event):
            publishing[0] = True
            try:
                publish(event)
            finally:
                publishing[0] = False

        builder = scheduling._builder
        build = builder.build
        previous = [lambda: None]
        starts = []  # (chained from a publication, previous graph alive)

        def traced_build(rows, tasks, now):
            starts.append((publishing[0], previous[0]() is not None))
            graph, report = build(rows, tasks, now)
            previous[0] = weakref.ref(graph)
            return graph, report

        scheduling._publish = traced_publish
        builder.build = traced_build
        for _ in range(60):
            submit(server, engine)
            engine.run(until=engine.now + 0.4)
        engine.run(until=engine.now + 20.0)
        assert sum(chained for chained, _ in starts) >= 10
        assert not any(alive for _, alive in starts)


class TestExpiredRetirement:
    def test_expired_queued_task_retired_at_checkout(self):
        engine, server = build_server(
            n_workers=0,  # nothing can be assigned
            policy=react_policy(batch_threshold=1, batch_period=5.0),
            start=True,
        )
        task = submit(server, engine, deadline=7.0)
        engine.run(until=20.0)
        assert task.phase is TaskPhase.EXPIRED
        assert server.metrics.expired_unassigned == 1
        server.metrics.check_conservation()

    def test_batch_report_counts_retired(self):
        engine, server = build_server(
            n_workers=1, policy=react_policy(batch_threshold=10, batch_period=5.0)
        )
        submit(server, engine, deadline=3.0)  # expires before periodic batch
        submit(server, engine, deadline=300.0)
        engine.run(until=6.0)
        record = server.scheduling.batches[0]
        assert record.retired_expired == 1
        assert record.n_tasks == 1


class TestBuildReports:
    def test_batch_record_carries_graph_stats(self):
        engine, server = build_server(
            n_workers=4, policy=react_policy(batch_threshold=2, batch_period=1000.0)
        )
        submit(server, engine)
        submit(server, engine)
        engine.run(until=1.0)
        record = server.scheduling.batches[0]
        assert record.n_workers == 4
        assert record.n_tasks == 2
        # cold-start workers connect everywhere: full 4x2 graph
        assert record.n_edges == 8
        assert record.matched == 2
        assert record.build_report.cold_start_workers == 4
