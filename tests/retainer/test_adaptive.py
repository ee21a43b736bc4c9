"""Unit tests of adaptive retainer sizing (:mod:`repro.retainer.adaptive`)."""

import pytest

from repro.retainer.adaptive import AdaptivePoolSizer, EwmaRateEstimator
from repro.retainer.pool import RetainerPool
from repro.sim.engine import Engine
from repro.sim.events import EventKind

from .test_recruit import build_bare_server, make_recruiter


class TestEwmaRateEstimator:
    def test_rate_unknown_until_two_arrivals(self):
        est = EwmaRateEstimator()
        assert est.rate is None
        est.observe(0.0)
        assert est.rate is None
        est.observe(0.5)
        assert est.rate == pytest.approx(2.0)

    def test_constant_gaps_give_exact_rate(self):
        est = EwmaRateEstimator(alpha=0.3)
        for i in range(20):
            est.observe(i * 0.25)
        assert est.rate == pytest.approx(4.0)

    def test_tracks_a_ramp(self):
        est = EwmaRateEstimator(alpha=0.2)
        t = 0.0
        for _ in range(20):  # slow phase: 1 task/s
            est.observe(t)
            t += 1.0
        slow = est.rate
        assert slow == pytest.approx(1.0)
        for _ in range(60):  # fast phase: 10 tasks/s
            est.observe(t)
            t += 0.1
        fast = est.rate
        assert fast is not None and fast > slow
        assert fast == pytest.approx(10.0, rel=0.2)

    def test_non_monotone_stamps_clamped(self):
        est = EwmaRateEstimator()
        est.observe(5.0)
        est.observe(4.0)  # clock went backwards: gap clamps to 0
        assert est.rate is None or est.rate > 0

    def test_alpha_validated(self):
        with pytest.raises(ValueError, match="alpha"):
            EwmaRateEstimator(alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            EwmaRateEstimator(alpha=1.5)


class TestPoolResize:
    def test_growth_just_raises_capacity(self):
        engine = Engine()
        pool = RetainerPool(engine, capacity=2)
        pool.add_worker(1)
        pool.add_worker(2)
        assert pool.resize(5) == 0
        assert pool.capacity == 5
        assert pool.held_count == 2
        assert pool.add_worker(3)

    def test_shrink_evicts_newest_held_first(self):
        engine = Engine()
        pool = RetainerPool(engine, capacity=3)
        for wid in (1, 2, 3):
            pool.add_worker(wid)
        evicted = []
        assert pool.resize(1, on_evict=evicted.append) == 2
        assert evicted == [3, 2]  # LIFO: seniority of the longest-held wins
        assert pool.is_held(1) and pool.held_count == 1

    def test_outstanding_workers_never_evicted(self):
        engine = Engine()
        pool = RetainerPool(engine, capacity=2)
        pool.add_worker(1)
        pool.add_worker(2)
        pool.request(lambda wid, waited: None)  # dispatches longest-held (1)
        assert pool.outstanding_count == 1
        evicted = []
        assert pool.resize(1, on_evict=evicted.append) == 1
        assert evicted == [2]
        assert pool.outstanding_count == 1  # the dispatch is untouched
        assert pool.held_count == 0

    def test_invalid_capacity_rejected(self):
        engine = Engine()
        pool = RetainerPool(engine, capacity=2)
        with pytest.raises(ValueError, match="capacity"):
            pool.resize(0)


def make_sizer(engine, pool, **kwargs):
    kwargs.setdefault("wage_per_second", 0.01)
    kwargs.setdefault("wait_cost_per_second", 0.05)
    kwargs.setdefault("interval", 10.0)
    kwargs.setdefault("service_rate_fallback", 1.0)
    return AdaptivePoolSizer(engine, pool, EwmaRateEstimator(), **kwargs)


def feed_arrivals(engine, sizer, times):
    for t in times:
        engine.schedule_at(
            t, EventKind.CALLBACK, lambda _event: sizer.observe_arrival()
        )


class TestAdaptivePoolSizer:
    def test_no_retune_until_rate_known(self):
        engine = Engine()
        pool = RetainerPool(engine, capacity=4)
        sizer = make_sizer(engine, pool)
        engine.run(until=35.0)  # three wake-ups, zero arrivals observed
        sizer.stop()
        assert sizer.retunes == []
        assert pool.capacity == 4

    def test_ramping_trace_retunes_capacity_up_then_down(self):
        """The acceptance trace: lam ramps 0.5 -> 4 -> 0.5 tasks/s and the
        periodic retunes move c* with it (mu pinned at the fallback 1/s)."""
        engine = Engine()
        pool = RetainerPool(engine, capacity=1)
        sizer = make_sizer(engine, pool, interval=10.0)
        slow1 = [2.0 * (i + 1) for i in range(30)]  # gap 2 s until t=60
        fast = [60.0 + 0.25 * (i + 1) for i in range(480)]  # gap .25 s to t=180
        slow2 = [180.0 + 2.0 * (i + 1) for i in range(60)]  # gap 2 s to t=300
        feed_arrivals(engine, sizer, slow1 + fast + slow2)
        engine.run(until=301.0)
        sizer.stop()

        by_time = {r.at: r for r in sizer.retunes}
        low = by_time[60.0].capacity  # end of the slow phase
        peak = by_time[180.0].capacity  # end of the fast phase
        settled = by_time[300.0].capacity  # after the ramp-down
        assert low < peak, (low, peak)
        assert settled < peak, (settled, peak)
        # The EWMA tracked both legs of the ramp.
        assert by_time[180.0].arrival_rate == pytest.approx(4.0, rel=0.25)
        assert by_time[300.0].arrival_rate == pytest.approx(0.5, rel=0.25)
        # resize() was actually applied, not just recorded.
        assert pool.capacity == settled

    def test_shrink_hands_evicted_workers_to_callback(self):
        engine = Engine()
        pool = RetainerPool(engine, capacity=8)
        for wid in range(8):
            pool.add_worker(wid)
        evicted = []
        sizer = make_sizer(engine, pool, on_evict=evicted.append)
        # Trickle arrivals: lam = 0.1/s against mu = 1/s wants a tiny pool.
        feed_arrivals(engine, sizer, [10.0 * (i + 1) for i in range(5)])
        engine.run(until=51.0)
        sizer.stop()
        assert sizer.retunes, "expected at least one retune"
        assert pool.capacity < 8
        assert evicted, "shrinking a full pool must evict held workers"
        assert sizer.evictions == len(evicted)
        assert all(not pool.is_held(wid) for wid in evicted)

    def test_evicted_workers_rejoin_as_walkins(self):
        """End-to-end shrink path: sizer -> pool.resize -> recruiter
        release_to_walkin -> worker back online and matchable."""
        engine, server = build_bare_server()
        pool = RetainerPool(engine, capacity=6)
        recruiter = make_recruiter(
            engine, server, n_supply=6, pool=pool, patience=10_000.0
        )
        recruiter.start(prefill=6)
        assert len(server.profiling.available_slots()) == 0
        sizer = make_sizer(
            engine, pool, on_evict=recruiter.release_to_walkin
        )
        feed_arrivals(engine, sizer, [10.0 * (i + 1) for i in range(5)])
        engine.run(until=51.0)
        sizer.stop()
        recruiter.stop()
        assert pool.capacity < 6
        assert sizer.evictions > 0
        assert recruiter.stats.walk_ins == sizer.evictions
        # Evicted humans are online walk-ins now, visible to the matcher.
        assert len(server.profiling.available_slots()) == sizer.evictions

    def test_validation(self):
        engine = Engine()
        pool = RetainerPool(engine, capacity=2)
        with pytest.raises(ValueError, match="wage"):
            make_sizer(engine, pool, wage_per_second=0.0)
        with pytest.raises(ValueError, match="interval"):
            make_sizer(engine, pool, interval=0.0)
        with pytest.raises(ValueError, match="service_rate_fallback"):
            make_sizer(engine, pool, service_rate_fallback=-1.0)
        with pytest.raises(ValueError, match="min_capacity"):
            make_sizer(engine, pool, min_capacity=5, max_capacity=2)

    def test_min_capacity_clamp(self):
        engine = Engine()
        pool = RetainerPool(engine, capacity=4)
        sizer = make_sizer(engine, pool, min_capacity=3)
        # Near-zero demand would want c* = 1; the clamp holds it at 3.
        feed_arrivals(engine, sizer, [40.0 * (i + 1) for i in range(3)])
        engine.run(until=121.0)
        sizer.stop()
        assert sizer.retunes
        assert pool.capacity == 3
