"""Admission-control unit tests on the deterministic DES clock.

The controller reads time through the :class:`EventClock` protocol, so the
token-bucket refill math and the guard ordering are tested exactly — no
wall-clock tolerance anywhere.
"""

import pytest

from repro.obs.exporters import prometheus_text
from repro.obs.registry import MetricsRegistry
from repro.service.admission import (
    AdmissionConfig,
    AdmissionController,
    TokenBucket,
)
from repro.sim.engine import Engine


class TestTokenBucket:
    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(rate=0.0, burst=2)
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate=1.0, burst=0)

    def test_burst_then_reject_with_exact_retry_hint(self):
        bucket = TokenBucket(rate=1.0, burst=2)
        assert bucket.admit(0.0) == (True, 0.0)
        assert bucket.admit(0.0) == (True, 0.0)
        ok, retry_after = bucket.admit(0.0)
        assert not ok
        assert retry_after == pytest.approx(1.0)  # (1 - 0) / rate

    def test_partial_refill_shrinks_retry_hint(self):
        bucket = TokenBucket(rate=1.0, burst=2)
        bucket.admit(0.0)
        bucket.admit(0.0)
        ok, retry_after = bucket.admit(0.4)  # 0.4 tokens accrued
        assert not ok
        assert retry_after == pytest.approx(0.6)
        ok, _ = bucket.admit(1.0)  # full token by t=1.0
        assert ok
        assert bucket.tokens == pytest.approx(0.0)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=5.0, burst=3)
        ok, _ = bucket.admit(100.0)  # long idle: accrual clamps to burst
        assert ok
        assert bucket.tokens == pytest.approx(2.0)


class TestAdmissionConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_in_flight"):
            AdmissionConfig(max_in_flight=0)
        with pytest.raises(ValueError, match="backlog_retry_after"):
            AdmissionConfig(backlog_retry_after=0.0)
        # The token bucket rejects it too, but only once the gateway starts.
        with pytest.raises(ValueError, match="burst must be >= 1"):
            AdmissionConfig(burst=0)

    @pytest.mark.parametrize("field", ["rate", "backlog_retry_after"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_rates_must_be_positive_and_finite(self, field, value):
        # A NaN rate turned the token bucket off: it admitted every request.
        with pytest.raises(ValueError, match=field):
            AdmissionConfig(**{field: value})


def make_controller(config, backlog, registry=None):
    engine = Engine()
    controller = AdmissionController(
        config, clock=engine, backlog_fn=lambda: backlog[0], registry=registry
    )
    return engine, controller


class TestAdmissionController:
    def test_backlog_guard_first_and_does_not_drain_tokens(self):
        config = AdmissionConfig(
            rate=1.0, burst=1, max_in_flight=2, backlog_retry_after=2.5
        )
        backlog = [2]
        _, controller = make_controller(config, backlog)
        decision = controller.check()
        assert not decision.admitted
        assert decision.reason == "backlog"
        assert decision.retry_after == 2.5
        # Capacity returns: the single bucket token is still there, proving
        # the backlog rejection did not consume it.
        backlog[0] = 0
        assert controller.check().admitted
        # Bucket now empty at t=0: next rejection is the bucket's.
        decision = controller.check()
        assert decision.reason == "rate"
        assert decision.retry_after == pytest.approx(1.0)

    def test_bucket_refills_on_the_injected_clock(self):
        config = AdmissionConfig(rate=2.0, burst=1, max_in_flight=10)
        backlog = [0]
        engine, controller = make_controller(config, backlog)
        assert controller.check().admitted
        assert controller.check().reason == "rate"
        engine.run(until=0.5)  # 0.5 clock seconds = one token at rate 2/s
        assert controller.check().admitted

    def test_counters(self):
        config = AdmissionConfig(rate=1.0, burst=1, max_in_flight=1)
        backlog = [0]
        _, controller = make_controller(config, backlog)
        assert controller.check().admitted
        assert controller.check().reason == "rate"
        backlog[0] = 1
        assert controller.check().reason == "backlog"
        assert controller.admitted == 1
        assert controller.rejected_rate == 1
        assert controller.rejected_backlog == 1

    def test_metrics_registry_wiring(self):
        registry = MetricsRegistry()
        config = AdmissionConfig(rate=1.0, burst=1, max_in_flight=1)
        backlog = [0]
        _, controller = make_controller(config, backlog, registry=registry)
        controller.check()  # admitted
        controller.check()  # rejected: rate
        backlog[0] = 1
        controller.check()  # rejected: backlog
        text = prometheus_text(registry)
        assert "service_admitted_total" in text
        assert 'reason="rate"' in text
        assert 'reason="backlog"' in text
