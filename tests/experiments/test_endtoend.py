"""Tests for the Figs. 5-8 end-to-end driver (scaled-down workloads)."""

import pytest

from repro.experiments.config import EndToEndConfig
from repro.dist import run_comparison_sharded
from repro.experiments.endtoend import default_policies, run_endtoend
from repro.platform.policies import react_policy, traditional_policy

SMALL = EndToEndConfig(
    n_workers=60, arrival_rate=0.75, n_tasks=300, drain_time=400, seed=9
)


@pytest.fixture(scope="module")
def comparison():
    return run_comparison_sharded(SMALL).results


class TestSingleRun:
    def test_accounting_balances(self):
        result = run_endtoend(react_policy(), SMALL)
        summary = result.summary
        assert summary["received"] == 300
        finished = summary["completed"] + summary["expired_unassigned"]
        in_flight = summary["pending_unassigned"] + summary["pending_assigned"]
        assert finished + in_flight == 300

    def test_series_monotone(self):
        result = run_endtoend(react_policy(), SMALL)
        received = [x for x, _ in result.deadline_series]
        on_time = [y for _, y in result.deadline_series]
        assert received == sorted(received)
        assert on_time == sorted(on_time)

    def test_deterministic_under_seed(self):
        a = run_endtoend(react_policy(), SMALL)
        b = run_endtoend(react_policy(), SMALL)
        assert a.summary == b.summary
        assert a.deadline_series == b.deadline_series


class TestComparison:
    def test_three_default_policies(self, comparison):
        assert set(comparison) == {"react", "greedy", "traditional"}

    def test_react_beats_traditional_on_deadlines(self, comparison):
        """Fig. 5's core claim at small scale."""
        react = comparison["react"].summary["on_time_fraction"]
        trad = comparison["traditional"].summary["on_time_fraction"]
        assert react > trad

    def test_react_beats_traditional_on_feedback(self, comparison):
        """Fig. 6."""
        assert (
            comparison["react"].summary["positive_feedbacks"]
            > comparison["traditional"].summary["positive_feedbacks"]
        )

    def test_react_shortest_worker_time(self, comparison):
        """Fig. 7: REACT reacts to delays; traditional does not."""
        assert comparison["react"].avg_worker_time < comparison["traditional"].avg_worker_time

    def test_react_shortest_total_time(self, comparison):
        """Fig. 8."""
        assert comparison["react"].avg_total_time < comparison["traditional"].avg_total_time

    def test_traditional_never_reassigns(self, comparison):
        assert comparison["traditional"].summary["reassignments"] == 0
        assert comparison["traditional"].withdrawals == 0

    def test_react_uses_reassignment(self, comparison):
        assert comparison["react"].summary["reassignments"] > 0

    def test_duplicate_policy_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_comparison_sharded(SMALL, [react_policy(), react_policy()])

    def test_custom_policy_list(self):
        results = run_comparison_sharded(SMALL, [traditional_policy()]).results
        assert set(results) == {"traditional"}


class TestCostModelToggle:
    def test_zero_cost_model_runs(self):
        config = EndToEndConfig(
            n_workers=40, arrival_rate=0.5, n_tasks=60, drain_time=300,
            cost_model="zero",
        )
        result = run_endtoend(react_policy(), config)
        assert result.summary["matcher_simulated_seconds"] == 0.0

    def test_poisson_arrivals_run(self):
        config = EndToEndConfig(
            n_workers=40, arrival_rate=0.5, n_tasks=60, drain_time=300,
            arrival_process="poisson",
        )
        result = run_endtoend(react_policy(), config)
        assert result.summary["received"] == 60
