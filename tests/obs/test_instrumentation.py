"""Acceptance tests: live telemetry mirrors the platform exactly.

The ISSUE acceptance criterion: a seeded end-to-end run records a
Perfetto-loadable trace and a Prometheus snapshot whose task-lifecycle
counters match the run's MetricsCollector exactly, and two identical seeded
runs produce identical snapshots.
"""

from unittest import mock

import pytest

from repro.experiments.chaos import ChaosConfig, run_chaos, standard_schedule
from repro.experiments.config import EndToEndConfig
from repro.experiments.endtoend import run_endtoend
from repro.model.region import Region
from repro.model.task import Task
from repro.obs import Observability
from repro.obs.exporters import chrome_trace_dict, prometheus_text
from repro.platform.coordinator import Coordinator
from repro.platform.cost import ZeroCost
from repro.platform.policies import react_policy
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.stats.metrics import REGISTRY_SERIES, MetricsCollector

SMALL = EndToEndConfig(
    n_workers=60, arrival_rate=1.0, n_tasks=200, drain_time=200.0
)


def _run(observability=None):
    return run_endtoend(react_policy(cycles=200), SMALL, observability=observability)


class TestCountersMatchCollector:
    @pytest.fixture(scope="class")
    def run(self):
        obs = Observability()
        result = _run(observability=obs)
        return obs, result.metrics

    def test_lifecycle_counters_exact(self, run):
        obs, metrics = run
        registry = obs.registry
        expected = {
            "react_tasks_received_total": metrics.received,
            "react_tasks_assigned_total": metrics.assigned,
            "react_task_reassignments_total": metrics.reassignments,
            "react_tasks_completed_total": metrics.completed,
            "react_tasks_completed_on_time_total": metrics.completed_on_time,
            "react_positive_feedbacks_total": metrics.positive_feedbacks,
            "react_tasks_expired_unassigned_total": metrics.expired_unassigned,
            "react_matcher_runs_total": metrics.matcher_invocations,
        }
        for name, value in expected.items():
            assert registry.value(name) == value, name
        assert registry.value("react_matcher_simulated_seconds_total") == (
            pytest.approx(metrics.matcher_simulated_seconds)
        )

    def test_histogram_counts_match_outcomes(self, run):
        obs, metrics = run
        samples = {(s.name, s.labels): s.value for s in obs.registry.snapshot()}
        timed = [o for o in metrics.outcomes if o.total_time is not None]
        assert samples[("react_task_total_time_seconds_count", ())] == len(timed)
        assert samples[("react_task_total_time_seconds_sum", ())] == pytest.approx(
            sum(o.total_time for o in timed)
        )

    def test_trace_spans_match_lifecycle(self, run):
        obs, metrics = run
        tracer = obs.tracer
        assert len(tracer.by_name("task.submitted")) == metrics.received
        assert len(tracer.by_name("task.execution")) == metrics.completed
        assert len(tracer.by_name("task.assigned")) == metrics.assigned
        batches = tracer.by_name("batch")
        assert len(batches) == metrics.matcher_invocations
        assert all(e.ph == "X" for e in batches)

    def test_fit_cache_gauges_exported(self, run):
        obs, _ = run
        samples = {s.name: s.value for s in obs.registry.snapshot()}
        assert samples["react_fit_cache_hits"] > 0
        assert samples["react_fit_cache_misses"] > 0


class TestDeterminism:
    def test_identical_seeded_runs_identical_telemetry(self):
        obs_a, obs_b = Observability(), Observability()
        _run(observability=obs_a)
        _run(observability=obs_b)
        assert prometheus_text(obs_a.registry) == prometheus_text(obs_b.registry)
        assert chrome_trace_dict(obs_a.tracer.events) == chrome_trace_dict(
            obs_b.tracer.events
        )


CHAOS = ChaosConfig(n_workers=30, arrival_rate=0.8, n_tasks=120, drain_time=150.0)


class TestFaultedRunMatchesCollector:
    """Every collector-backed series equals its field on a run that moves
    them: the faulted chaos run, where the fault and recovery counters the
    fault-free run leaves at zero are non-zero."""

    @pytest.fixture(scope="class")
    def run(self):
        obs = Observability()
        original = MetricsCollector.bind_registry
        with mock.patch.object(
            MetricsCollector, "bind_registry", autospec=True, side_effect=original
        ) as bind:
            run_chaos(
                react_policy(cycles=200), CHAOS,
                schedule=standard_schedule(CHAOS), observability=obs,
            )
        (metrics, registry), = [call.args for call in bind.call_args_list]
        assert registry is obs.registry
        return obs, metrics

    def test_fault_counters_nonzero(self, run):
        _, metrics = run
        for attr in (
            "expiry_returns", "chaos_faults_injected", "chaos_abandonments",
            "chaos_no_shows", "chaos_corrupted_observations",
            "blackout_orphaned", "readopted_tasks", "deferred_retries",
        ):
            assert getattr(metrics, attr) > 0, attr

    def test_every_collector_series(self, run):
        obs, metrics = run
        samples = {s.name: s.value for s in obs.registry.snapshot() if not s.labels}
        for field_name, metric, _, _ in REGISTRY_SERIES:
            assert samples[metric] == getattr(metrics, field_name), metric


class TestChaosTelemetry:
    def test_fault_events_and_labeled_counter(self):
        config = CHAOS
        obs = Observability()
        result = run_chaos(
            react_policy(cycles=200),
            config,
            schedule=standard_schedule(config),
            observability=obs,
        )
        chaos_events = [e for e in obs.tracer.events if e.cat == "chaos"]
        assert chaos_events, "fault activations must be traced"
        activations = [
            e for e in chaos_events if dict(e.args).get("action") == "activate"
        ]
        injected = int(result.summary["chaos_faults_injected"])
        assert len(activations) == injected
        labeled_total = sum(
            s.value
            for s in obs.registry.snapshot()
            if s.name == "react_chaos_fault_activations_total"
        )
        assert labeled_total == injected


class TestCoordinatorTelemetry:
    def test_region_split_counted_and_traced(self):
        obs = Observability()
        engine = Engine()
        coordinator = Coordinator(
            engine=engine,
            policy=react_policy(batch_threshold=1),
            regions=[Region(0, 10, 0, 10)],
            rng=RngRegistry(seed=5),
            cost_model=ZeroCost(),
            overload_queue_limit=3,
            observability=obs,
        )
        obs.bind_engine(engine)
        for _ in range(5):
            coordinator.submit_task(
                Task(latitude=5.0, longitude=5.0, deadline=600.0)
            )
        assert coordinator.splits_performed >= 1
        assert obs.registry.value("react_region_splits_total") == (
            coordinator.splits_performed
        )
        assert obs.registry.value("react_regions") == len(coordinator.regions)
        splits = obs.tracer.by_name("region.split")
        assert len(splits) == coordinator.splits_performed
        assert splits[0].cat == "coordinator"
