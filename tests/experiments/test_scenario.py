"""Tests for the scenario experiment driver (budgets x geography x skills)."""

import dataclasses

import pytest

from repro.dist import run_scenario_sharded
from repro.experiments.scenario import (
    ScenarioConfig,
    report_scenario,
    run_scenario,
)
from repro.platform.policies import greedy_policy, react_policy
from repro.scenarios.baselines import scenario_policies
from repro.scenarios.spatial import SpatialConfig

#: Small but still saturated: enough hot-cell arrivals to trip a split and
#: budgets tight enough to shed (empirically verified; see the CLI's quick
#: config, which is this shape scaled up).
SMALL = ScenarioConfig(
    n_tasks=120, n_workers=40, horizon=120.0, requester_budget=0.3
)


class TestScenarioConfig:
    def test_defaults_valid(self):
        ScenarioConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_tasks": 0},
            {"arrival_rate": 0.0},
            {"horizon": -1.0},
            {"deadline_low": 0.0},
            {"deadline_low": 120.0, "deadline_high": 60.0},
            {"n_requesters": 0},
            {"requester_budget": -0.1},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioConfig(**kwargs)


class TestRunScenario:
    def test_skewed_arrivals_force_split_and_migration(self):
        # The ISSUE's acceptance criterion: a skewed-arrival scenario run
        # performs at least one region split and migrates queued tasks
        # cross-region.
        result = run_scenario(react_policy(weight_function_name="hybrid"), SMALL)
        assert result.splits_performed >= 1
        assert result.tasks_migrated >= 1
        assert result.regions_final > SMALL.spatial.rows * SMALL.spatial.cols

    def test_budget_shedding_and_conservation(self):
        result = run_scenario(greedy_policy(weight_function_name="hybrid"), SMALL)
        assert result.shed_by_budget >= 1
        summary = result.summary
        finished = summary["completed"] + summary.get("expired_unassigned", 0)
        assert finished <= summary["received"]
        assert result.budget["total_spent"] > 0
        assert result.budget["exhausted_requesters"] >= 1

    def test_no_split_when_remedy_disabled(self):
        config = dataclasses.replace(SMALL, overload_queue_limit=None)
        result = run_scenario(react_policy(weight_function_name="hybrid"), config)
        assert result.splits_performed == 0
        assert result.regions_final == config.spatial.rows * config.spatial.cols

    def test_deterministic(self):
        policy = react_policy(weight_function_name="hybrid")
        assert run_scenario(policy, SMALL) == run_scenario(policy, SMALL)

    def test_custom_geometry(self):
        config = dataclasses.replace(
            SMALL, spatial=SpatialConfig(rows=2, cols=2, hot_fraction=0.9)
        )
        result = run_scenario(react_policy(weight_function_name="hybrid"), config)
        assert result.regions_final >= 4


class TestComparison:
    def test_all_five_policies_run(self):
        results = run_scenario_sharded(SMALL).results
        assert list(results) == [
            "react", "metropolis", "greedy", "greedy_spatial", "ratio"
        ]
        for result in results.values():
            assert result.splits_performed >= 1

    def test_duplicate_policy_rejected(self):
        policy = react_policy(weight_function_name="hybrid")
        with pytest.raises(ValueError, match="duplicate"):
            run_scenario_sharded(SMALL, policies=[policy, policy])

    def test_report_contains_greppable_footer(self):
        results = run_scenario_sharded(
            SMALL, policies=[react_policy(weight_function_name="hybrid")]
        ).results
        report = report_scenario(results)
        assert "total splits performed:" in report
        assert "react" in report


class TestSharded:
    def test_parallel_2_equals_sequential(self):
        # parallel=1 runs the shards inline, one after the other.
        policies = scenario_policies()[:3]
        sequential = run_scenario_sharded(SMALL, policies=policies, parallel=1)
        sharded = run_scenario_sharded(SMALL, policies=policies, parallel=2)
        assert sharded.results == sequential.results

    def test_resume_from_checkpoint(self, tmp_path):
        policies = scenario_policies()[:2]
        fresh = run_scenario_sharded(
            SMALL, policies=policies, parallel=1, checkpoint_dir=tmp_path
        )
        resumed = run_scenario_sharded(
            SMALL, policies=policies, parallel=1, checkpoint_dir=tmp_path
        )
        assert resumed.resumed == len(policies)
        assert resumed.computed == 0
        assert resumed.results == fresh.results

    def test_duplicate_policy_rejected(self):
        policy = react_policy(weight_function_name="hybrid")
        with pytest.raises(ValueError, match="duplicate"):
            run_scenario_sharded(SMALL, policies=[policy, policy], parallel=2)
