"""Unit tests of :class:`repro.retainer.recruit.RetainerRecruiter`."""

import pytest

from repro.model.worker import WorkerProfile
from repro.platform.cost import RetainerCostConfig
from repro.platform.policies import react_policy
from repro.platform.server import REACTServer
from repro.retainer.pool import RetainerPool
from repro.retainer.recruit import RetainerRecruiter, charge_task_payments
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

from ..platform.helpers import reliable_behavior, submit


def build_bare_server(seed=3):
    """A started server with NO workers (the recruiter supplies them)."""
    from repro.platform.cost import ZeroCost

    engine = Engine()
    server = REACTServer(
        engine=engine,
        policy=react_policy(batch_threshold=1),
        rng=RngRegistry(seed=seed),
        cost_model=ZeroCost(),
    )
    server.start()
    return engine, server


def make_supply(n, start_id=0):
    behavior = reliable_behavior()
    return [(WorkerProfile(worker_id=start_id + i), behavior) for i in range(n)]


def make_recruiter(engine, server, n_supply=6, gaps=(), pool=None, patience=30.0):
    return RetainerRecruiter(
        engine,
        server,
        supply=make_supply(n_supply),
        gaps=iter(gaps),
        patience=patience,
        pool=pool,
    )


class TestArrivals:
    def test_gap_stream_drives_arrivals(self):
        engine, server = build_bare_server()
        recruiter = make_recruiter(
            engine, server, n_supply=3, gaps=[(1.0, 0), (1.0, 1), (1.0, 2)]
        )
        recruiter.start()
        engine.run(until=10.0)
        assert recruiter.stats.arrived == 3
        assert len(server.profiling) == 3
        # No pool: every arrival is an online walk-in.
        assert recruiter.stats.walk_ins == 3
        assert recruiter.stats.retained == 0

    def test_supply_exhaustion_stops_recruiting(self):
        engine, server = build_bare_server()
        recruiter = make_recruiter(
            engine, server, n_supply=2, gaps=[(1.0, i) for i in range(5)]
        )
        recruiter.start()
        engine.run(until=10.0)
        assert recruiter.stats.arrived == 2

    def test_cannot_start_twice(self):
        engine, server = build_bare_server()
        recruiter = make_recruiter(engine, server)
        recruiter.start()
        with pytest.raises(RuntimeError, match="already started"):
            recruiter.start()


class TestRetainerHolds:
    def test_prefill_holds_workers_offline(self):
        engine, server = build_bare_server()
        pool = RetainerPool(engine, capacity=3)
        recruiter = make_recruiter(engine, server, n_supply=6, pool=pool)
        recruiter.start(prefill=3)
        assert pool.held_count == 3
        assert recruiter.stats.retained == 3
        # Held workers are registered but invisible to the matcher.
        assert len(server.profiling) == 3
        assert len(server.profiling.available_slots()) == 0

    def test_prefill_without_pool_rejected(self):
        engine, server = build_bare_server()
        recruiter = make_recruiter(engine, server)
        with pytest.raises(ValueError, match="prefill"):
            recruiter.start(prefill=2)

    def test_arrivals_fill_pool_then_overflow_to_walkins(self):
        engine, server = build_bare_server()
        pool = RetainerPool(engine, capacity=2)
        recruiter = make_recruiter(
            engine, server, n_supply=4, gaps=[(1.0, i) for i in range(4)], pool=pool
        )
        recruiter.start()
        engine.run(until=10.0)
        assert pool.held_count == 2
        assert recruiter.stats.retained == 2
        assert recruiter.stats.walk_ins == 2
        assert len(server.profiling.available_slots()) == 2


class TestDemandRelease:
    def test_task_submission_releases_held_worker(self):
        engine, server = build_bare_server()
        pool = RetainerPool(engine, capacity=2, release_latency=0.5)
        recruiter = make_recruiter(engine, server, n_supply=2, pool=pool)
        recruiter.start(prefill=2)
        submit(server, engine)
        recruiter.notify_demand()
        assert pool.held_count == 1  # one dispatch in flight
        engine.run(until=20.0)
        # The released worker went online and completed the task.
        assert server.metrics.completed == 1

    def test_released_worker_returns_to_pool_when_idle(self):
        engine, server = build_bare_server()
        pool = RetainerPool(engine, capacity=2, release_latency=0.0)
        recruiter = make_recruiter(engine, server, n_supply=2, pool=pool)
        recruiter.start(prefill=2)
        submit(server, engine)
        recruiter.notify_demand()
        engine.run(until=60.0)
        assert server.metrics.completed == 1
        # After completion the sweep re-pools the idle worker.
        assert recruiter.stats.repooled >= 1
        assert pool.held_count == 2
        assert pool.outstanding_count == 0

    def test_release_sized_to_backlog(self):
        engine, server = build_bare_server()
        pool = RetainerPool(engine, capacity=5, release_latency=0.5)
        recruiter = make_recruiter(engine, server, n_supply=5, pool=pool)
        recruiter.start(prefill=5)
        for _ in range(3):
            submit(server, engine)
        recruiter.notify_demand()
        assert recruiter.stats.releases_requested == 3
        # Re-notifying for the same backlog must not over-release.
        recruiter.notify_demand()
        assert recruiter.stats.releases_requested == 3


class TestPatience:
    def test_idle_walkins_depart_after_patience(self):
        engine, server = build_bare_server()
        recruiter = make_recruiter(
            engine, server, n_supply=2, gaps=[(1.0, 0), (1.0, 1)], patience=5.0
        )
        recruiter.start()
        engine.run(until=30.0)
        assert recruiter.stats.patience_departures == 2
        assert len(server.profiling) == 0

    def test_busy_workers_do_not_depart(self):
        engine, server = build_bare_server()
        # Dawdling behaviour would hold the task; reliable workers finish in
        # 2-4 s, well under the 5 s patience, and the steady task flow keeps
        # resetting their idle clocks.
        recruiter = make_recruiter(
            engine, server, n_supply=1, gaps=[(0.5, 0)], patience=5.0
        )
        recruiter.start()

        def feed(now):
            submit(server, engine)

        from repro.sim.process import PeriodicProcess

        feeder = PeriodicProcess(engine, period=3.0, action=feed)
        engine.run(until=20.0)
        feeder.stop()
        assert recruiter.stats.patience_departures == 0
        assert server.metrics.completed >= 4

    def test_pooled_workers_never_depart(self):
        engine, server = build_bare_server()
        pool = RetainerPool(engine, capacity=2)
        recruiter = make_recruiter(
            engine, server, n_supply=2, pool=pool, patience=2.0
        )
        recruiter.start(prefill=2)
        engine.run(until=60.0)
        assert recruiter.stats.patience_departures == 0
        assert pool.held_count == 2


class TestChargeTaskPayments:
    def test_charges_completed_only(self):
        engine = Engine()
        pool = RetainerPool(
            engine, capacity=1, cost=RetainerCostConfig(task_payment=0.25)
        )
        total = charge_task_payments(
            pool, [(1, 3.0), (2, 5.0), (None, None), (3, None)]
        )
        assert total == pytest.approx(0.5)
        assert pool.ledger.assignments_paid == 2
        assert pool.ledger.account(1).assignment_cost == pytest.approx(0.25)


class TestValidationErrors:
    def test_rejects_bad_patience_and_sweep(self):
        engine, server = build_bare_server()
        with pytest.raises(ValueError, match="patience"):
            RetainerRecruiter(
                engine, server, supply=[], gaps=iter(()), patience=0.0
            )
        with pytest.raises(ValueError, match="sweep_interval"):
            RetainerRecruiter(
                engine, server, supply=[], gaps=iter(()), patience=1.0,
                sweep_interval=0.0,
            )
