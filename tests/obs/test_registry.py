"""Unit tests for the metrics registry and its instruments."""

import pytest

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    NULL_INSTRUMENT,
    NULL_REGISTRY,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", "jobs")
        counter.inc()
        counter.inc(2.5)
        assert registry.value("jobs_total") == pytest.approx(3.5)

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("jobs_total")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_registration_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("jobs_total", "jobs")
        b = registry.counter("jobs_total", "jobs")
        assert a is b

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total")
        with pytest.raises(ValueError):
            registry.gauge("jobs_total")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("1bad-name")


class TestLabels:
    def test_labeled_children_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("faults_total", labelnames=("kind",))
        counter.labels(kind="stall").inc()
        counter.labels(kind="stall").inc()
        counter.labels(kind="blackout").inc()
        assert registry.value("faults_total", kind="stall") == 2
        assert registry.value("faults_total", kind="blackout") == 1

    def test_unlabeled_use_of_labeled_instrument_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("faults_total", labelnames=("kind",))
        with pytest.raises(ValueError):
            counter.inc()

    def test_wrong_labelnames_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("faults_total", labelnames=("kind",))
        with pytest.raises(ValueError):
            counter.labels(flavor="x")


class TestGauge:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert registry.value("depth") == 13


class TestHistogram:
    def test_cumulative_buckets_and_sum(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_seconds", buckets=(1.0, 5.0))
        for value in (0.5, 2.0, 10.0):
            hist.observe(value)
        samples = {
            (s.name, s.labels): s.value for s in registry.snapshot()
        }
        assert samples[("latency_seconds_bucket", (("le", "1"),))] == 1
        assert samples[("latency_seconds_bucket", (("le", "5"),))] == 2
        assert samples[("latency_seconds_bucket", (("le", "+Inf"),))] == 3
        assert samples[("latency_seconds_sum", ())] == pytest.approx(12.5)
        assert samples[("latency_seconds_count", ())] == 3

    def test_default_buckets_strictly_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(2.0, 1.0))


class TestSnapshot:
    def test_snapshot_order_deterministic(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("z_total").inc()
            gauge = registry.gauge("a_gauge")
            gauge.set(5)
            c = registry.counter("m_total", labelnames=("kind",))
            c.labels(kind="b").inc()
            c.labels(kind="a").inc()
            return [(s.name, s.labels, s.value) for s in registry.snapshot()]

        assert build() == build()
        names = [name for name, _, _ in build()]
        assert names == sorted(names)



class TestSourced:
    def test_value_follows_source(self):
        registry = MetricsRegistry()
        state = {"value": 7}
        registry.gauge("synced", source=lambda: state["value"])
        registry.counter("seen_total", source=lambda: state["value"] * 2)
        assert registry.value("synced") == 7
        state["value"] = 9
        assert [(s.name, s.value) for s in registry.snapshot()] == [
            ("seen_total", 18.0),
            ("synced", 9.0),
        ]
        assert registry.value("seen_total") == 18

    def test_kind_is_the_requested_one(self):
        registry = MetricsRegistry()
        registry.counter("a_total", source=lambda: 1)
        registry.gauge("b", source=lambda: 1)
        assert [i.kind for i in registry.instruments()] == ["counter", "gauge"]

    @pytest.mark.parametrize("method", ["inc", "dec", "set"])
    def test_push_rejected(self, method):
        gauge = MetricsRegistry().gauge("depth", source=lambda: 3)
        with pytest.raises(ValueError):
            getattr(gauge, method)(1)

    def test_reregistration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", source=lambda: 1)
        with pytest.raises(ValueError):
            registry.counter("jobs_total", source=lambda: 2)
        with pytest.raises(ValueError):
            registry.counter("jobs_total")

    def test_source_cannot_shadow_pushed_instrument(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(4)
        with pytest.raises(ValueError):
            registry.gauge("depth", source=lambda: 5)
        assert registry.value("depth") == 4

    def test_labels_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("faults_total", labelnames=("kind",), source=lambda: 1)

    def test_null_registry_accepts_source(self):
        assert NULL_REGISTRY.counter("a_total", source=lambda: 1) is NULL_INSTRUMENT
        assert NULL_REGISTRY.gauge("b", "help", source=lambda: 1) is NULL_INSTRUMENT


class TestNullObjects:
    def test_null_registry_hands_out_null_instrument(self):
        instrument = NULL_REGISTRY.counter("anything")
        assert instrument is NULL_INSTRUMENT
        instrument.inc()
        instrument.set(3)
        instrument.observe(1.0)
        instrument.labels(kind="x").inc()
        assert NULL_REGISTRY.snapshot() == []
