"""Unit tests of :class:`repro.retainer.pool.RetainerPool`."""

import pytest

from repro.obs.runtime import Observability
from repro.platform.cost import RetainerCostConfig
from repro.retainer.pool import RetainerPool
from repro.sim.engine import Engine
from repro.sim.events import EventKind


def make_pool(engine, capacity=3, latency=0.0, wage=0.01, payment=0.05, obs=None):
    return RetainerPool(
        engine,
        capacity=capacity,
        cost=RetainerCostConfig(wage_per_second=wage, task_payment=payment),
        release_latency=latency,
        observability=obs,
    )


class TestHolding:
    def test_add_until_full(self):
        engine = Engine()
        pool = make_pool(engine, capacity=2)
        assert pool.add_worker(1)
        assert pool.add_worker(2)
        assert not pool.add_worker(3)
        assert pool.held_count == 2
        assert pool.is_held(1) and pool.is_held(2) and not pool.is_held(3)

    def test_double_add_rejected(self):
        engine = Engine()
        pool = make_pool(engine)
        pool.add_worker(1)
        with pytest.raises(ValueError, match="already pooled"):
            pool.add_worker(1)


class TestReleaseOrdering:
    def test_fifo_release(self):
        engine = Engine()
        pool = make_pool(engine, capacity=3)
        for wid in (10, 11, 12):
            pool.add_worker(wid)
        released = []
        for _ in range(3):
            pool.request(lambda wid, w: released.append(wid))
        engine.run()
        # Longest-held worker is dispatched first.
        assert released == [10, 11, 12]

    def test_queued_requests_fifo(self):
        engine = Engine()
        pool = make_pool(engine, capacity=1)
        pool.add_worker(1)
        order = []
        pool.request(lambda wid, w: order.append(("a", wid)))
        pool.request(lambda wid, w: order.append(("b", wid)))
        pool.request(lambda wid, w: order.append(("c", wid)))
        assert pool.pending_requests == 2
        engine.run()
        assert order == [("a", 1)]
        pool.return_worker(1)
        engine.run()
        assert order == [("a", 1), ("b", 1)]
        pool.return_worker(1)
        engine.run()
        assert [label for label, _ in order] == ["a", "b", "c"]

    def test_release_latency_is_simulated_delay(self):
        engine = Engine()
        pool = make_pool(engine, capacity=1, latency=2.5)
        pool.add_worker(1)
        times = []
        pool.request(lambda wid, waited: times.append((engine.now, waited)))
        engine.run()
        assert times == [(2.5, 2.5)]

    def test_queue_wait_counts_in_waited(self):
        engine = Engine()
        pool = make_pool(engine, capacity=1, latency=1.0)
        waited = []
        pool.request(lambda wid, w: waited.append(w))  # queued at t=0, pool empty
        engine.schedule(3.0, EventKind.CALLBACK,
                        lambda e: pool.add_worker(7))
        engine.run()
        # Worker arrives at t=3, release latency 1 → dispatched at t=4.
        assert waited == [pytest.approx(4.0)]

    def test_new_worker_feeds_queued_demand(self):
        engine = Engine()
        pool = make_pool(engine, capacity=2)
        got = []
        pool.request(lambda wid, w: got.append(wid))
        assert pool.pending_requests == 1
        pool.add_worker(5)
        engine.run()
        assert got == [5]
        # The worker went straight to demand, never onto hold.
        assert pool.held_count == 0
        assert pool.outstanding_count == 1

    def test_return_feeds_queued_demand(self):
        engine = Engine()
        pool = make_pool(engine, capacity=1)
        pool.add_worker(1)
        got = []
        pool.request(lambda wid, w: got.append(wid))
        engine.run()
        pool.request(lambda wid, w: got.append(wid))
        pool.return_worker(1)
        engine.run()
        assert got == [1, 1]

    def test_return_unknown_worker_rejected(self):
        engine = Engine()
        pool = make_pool(engine)
        with pytest.raises(ValueError, match="not released"):
            pool.return_worker(1)

    def test_cancel_requests(self):
        engine = Engine()
        pool = make_pool(engine, capacity=1)
        pool.request(lambda wid, w: None)
        pool.request(lambda wid, w: None)
        assert pool.cancel_requests() == 2
        assert pool.pending_requests == 0


class TestLedgerAccrual:
    def test_hold_time_is_charged_on_dispatch(self):
        engine = Engine()
        pool = make_pool(engine, capacity=1, wage=0.1)
        pool.add_worker(1)
        engine.schedule(
            5.0,
            EventKind.CALLBACK,
            lambda e: pool.request(lambda wid, w: None),
        )
        engine.run()
        account = pool.ledger.account(1)
        assert account.retainer_seconds == pytest.approx(5.0)
        assert account.retainer_cost == pytest.approx(0.5)

    def test_settle_closes_open_holds_idempotently(self):
        engine = Engine()
        pool = make_pool(engine, capacity=2, wage=0.1)
        pool.add_worker(1)
        pool.add_worker(2)
        engine.schedule(
            10.0,
            EventKind.CALLBACK,
            lambda e: None,
        )
        engine.run()
        pool.settle()
        assert pool.ledger.retainer_seconds == pytest.approx(20.0)
        pool.settle()  # second settle at the same time adds nothing
        assert pool.ledger.retainer_seconds == pytest.approx(20.0)
        # Workers stay held after settling.
        assert pool.held_count == 2


class TestObservability:
    def test_instruments_track_pool_state(self):
        obs = Observability()
        engine = Engine()
        pool = make_pool(engine, capacity=2, latency=1.0, obs=obs)
        pool.add_worker(1)
        pool.add_worker(2)
        assert not pool.add_worker(3)  # rejected
        assert obs.registry.value("retainer_pool_held") == 2
        assert obs.registry.value("retainer_rejected_workers_total") == 1
        pool.request(lambda wid, w: None)
        engine.run()
        assert obs.registry.value("retainer_pool_held") == 1
        assert obs.registry.value("retainer_pool_outstanding") == 1
        assert obs.registry.value("retainer_releases_total") == 1
        hist = obs.registry.get("retainer_release_latency_seconds")
        assert hist is not None
        # One observation of exactly the release latency.
        count_samples = [
            s for s in hist.samples() if s.name.endswith("_count")
        ]
        assert count_samples and count_samples[0].value == 1

    def test_wage_counter_accrues(self):
        obs = Observability()
        engine = Engine()
        pool = make_pool(engine, capacity=1, wage=0.2, obs=obs)
        pool.add_worker(1)
        engine.schedule(
            4.0,
            EventKind.CALLBACK,
            lambda e: pool.request(lambda wid, w: None),
        )
        engine.run()
        assert obs.registry.value("retainer_wage_cost_total") == pytest.approx(0.8)


class TestValidation:
    def test_rejects_bad_capacity_and_latency(self):
        engine = Engine()
        with pytest.raises(ValueError, match="capacity"):
            RetainerPool(engine, capacity=0)
        with pytest.raises(ValueError, match="release_latency"):
            RetainerPool(engine, capacity=1, release_latency=-1.0)
