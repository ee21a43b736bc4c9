"""Marketplace-mode retainer comparison (docs/RETAINER.md).

The headline behavioural claim: under the same seeded marketplace —
identical worker-arrival and task-arrival traces — REACT with a retainer
pool beats plain on-demand REACT on the p95 total-task-latency the
paper's real-time constraints care about, at a bounded wage premium.
"""

import pytest

from repro.dist import TelemetrySpec, run_comparison_sharded
from repro.experiments.config import EndToEndConfig
from repro.experiments.endtoend import retainer_policies, run_endtoend
from repro.obs.exporters import parse_prometheus_text
from repro.platform.policies import RetainerSpec, react_retainer_policy

MARKETPLACE = EndToEndConfig(
    n_workers=120,
    arrival_rate=2.0,
    n_tasks=400,
    drain_time=200,
    seed=42,
    arrival_process="poisson",
    worker_arrival_rate=0.5,
    worker_patience=30.0,
)


@pytest.fixture(scope="module")
def comparison():
    return run_comparison_sharded(MARKETPLACE, retainer_policies()).results


class TestComparison:
    def test_policy_pair(self, comparison):
        assert set(comparison) == {"react", "react_retainer"}

    def test_retainer_wins_p95_latency(self, comparison):
        """The acceptance headline: retained standby capacity cuts the tail."""
        react = comparison["react"]
        retained = comparison["react_retainer"]
        assert retained.p95_total_time is not None
        assert react.p95_total_time is not None
        assert retained.p95_total_time < react.p95_total_time

    def test_retainer_completes_no_fewer_tasks(self, comparison):
        assert (
            comparison["react_retainer"].summary["completed"]
            >= comparison["react"].summary["completed"]
        )

    def test_identical_supply_trace(self, comparison):
        # Same seed, same marketplace: both policies see the same arrivals.
        a = comparison["react"].retainer
        b = comparison["react_retainer"].retainer
        assert a is not None and b is not None
        assert a.workers_arrived == b.workers_arrived

    def test_on_demand_baseline_pays_no_wages(self, comparison):
        stats = comparison["react"].retainer
        assert stats.pool_capacity == 0
        assert stats.workers_retained == 0
        assert stats.wage_cost == 0.0
        assert stats.total_cost == pytest.approx(stats.assignment_cost)

    def test_retainer_accounting_balances(self, comparison):
        stats = comparison["react_retainer"].retainer
        assert stats.pool_capacity == RetainerSpec().size
        assert stats.workers_retained == RetainerSpec().size
        assert stats.wage_cost > 0.0
        assert stats.total_cost == pytest.approx(
            stats.wage_cost + stats.assignment_cost
        )
        completed = comparison["react_retainer"].summary["completed"]
        assert stats.cost_per_completed == pytest.approx(
            stats.total_cost / completed
        )
        # Flat payment per completed task.
        assert stats.assignment_cost == pytest.approx(
            RetainerSpec().task_payment * completed
        )

    def test_retainer_recycles_workers(self, comparison):
        stats = comparison["react_retainer"].retainer
        assert stats.releases > 0
        assert stats.repooled > 0

    def test_deterministic_under_seed(self):
        a = run_comparison_sharded(MARKETPLACE, retainer_policies()).results
        b = run_comparison_sharded(MARKETPLACE, retainer_policies()).results
        for name in a:
            assert a[name].summary == b[name].summary
            assert a[name].p95_total_time == b[name].p95_total_time


class TestObservability:
    def test_pool_instruments_populated(self, tmp_path):
        run_comparison_sharded(
            MARKETPLACE,
            retainer_policies(),
            telemetry=TelemetrySpec(prefix="retainer", metrics_dir=str(tmp_path)),
        )
        series = parse_prometheus_text(
            (tmp_path / "retainer_react_retainer.prom").read_text()
        )

        def value(name: str) -> float:
            return sum(v for key, v in series.items() if key.partition("{")[0] == name)

        assert value("retainer_releases_total") > 0
        assert value("retainer_wage_cost_total") > 0
        assert value("retainer_release_latency_seconds_count") > 0


class TestModeValidation:
    def test_retainer_policy_requires_marketplace(self):
        closed = EndToEndConfig(
            n_workers=30, arrival_rate=0.5, n_tasks=50, drain_time=100, seed=1
        )
        with pytest.raises(ValueError, match="marketplace"):
            run_endtoend(react_retainer_policy(), closed)

    def test_comparison_requires_marketplace(self):
        closed = EndToEndConfig(
            n_workers=30, arrival_rate=0.5, n_tasks=50, drain_time=100, seed=1
        )
        with pytest.raises(ValueError, match="marketplace"):
            run_comparison_sharded(closed, retainer_policies())

    def test_marketplace_excludes_churn(self):
        with pytest.raises(ValueError, match="churn"):
            EndToEndConfig(
                n_workers=30,
                arrival_rate=0.5,
                n_tasks=50,
                drain_time=100,
                worker_arrival_rate=0.5,
                churn_mean_session=60.0,
            )

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError, match="worker_arrival_rate"):
            EndToEndConfig(
                n_workers=30,
                arrival_rate=0.5,
                n_tasks=50,
                drain_time=100,
                worker_arrival_rate=0.0,
            )
        with pytest.raises(ValueError, match="worker_patience"):
            EndToEndConfig(
                n_workers=30,
                arrival_rate=0.5,
                n_tasks=50,
                drain_time=100,
                worker_arrival_rate=0.5,
                worker_patience=-1.0,
            )

    def test_retainer_spec_validation(self):
        with pytest.raises(ValueError, match="size"):
            RetainerSpec(size=0)
        with pytest.raises(ValueError, match="non-negative"):
            RetainerSpec(wage_per_second=-0.01)

    @pytest.mark.parametrize(
        "field",
        [
            "wage_per_second",
            "task_payment",
            "release_latency",
            "sweep_interval",
            "adaptive_interval",
            "wait_cost_per_second",
        ],
    )
    def test_retainer_spec_rejects_nan(self, field):
        with pytest.raises(ValueError):
            RetainerSpec(**{field: float("nan")})

    def test_policy_factory_defaults(self):
        policy = react_retainer_policy()
        assert policy.name == "react_retainer"
        assert policy.retainer is not None
        assert policy.retainer.size == RetainerSpec().size
        names = [p.name for p in retainer_policies()]
        assert names == ["react", "react_retainer"]
