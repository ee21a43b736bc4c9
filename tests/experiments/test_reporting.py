"""Tests for figure-report rendering."""

import pytest

from repro.dist import run_comparison_sharded, run_scalability_sharded
from repro.experiments.ablations import ablate_cycles, ablate_k_constant
from repro.experiments.config import (
    AblationConfig,
    EndToEndConfig,
    MatchingSweepConfig,
    ScalabilityConfig,
)
from repro.experiments.matching_bench import run_matching_sweep
from repro.experiments.reporting import (
    report_ablation,
    report_fig3,
    report_fig4,
    report_fig5,
    report_fig6,
    report_fig7,
    report_fig8,
    report_fig9,
    report_fig10,
)


@pytest.fixture(scope="module")
def sweep():
    return run_matching_sweep(
        MatchingSweepConfig(n_workers=40, task_counts=(5, 20), cycles_settings=(100,))
    )


@pytest.fixture(scope="module")
def comparison():
    return run_comparison_sharded(
        EndToEndConfig(n_workers=30, arrival_rate=0.4, n_tasks=80, drain_time=300)
    ).results


@pytest.fixture(scope="module")
def scalability():
    return run_scalability_sharded(
        ScalabilityConfig(worker_sizes=(20,), rates=(0.3,), duration=100.0, drain_time=200.0)
    ).results


class TestMatchingReports:
    def test_fig3_mentions_anchors_and_algorithms(self, sweep):
        text = report_fig3(sweep)
        assert "Fig. 3" in text
        assert "99.7" in text
        assert "greedy" in text and "react@100" in text

    def test_fig4_contains_outputs(self, sweep):
        text = report_fig4(sweep)
        assert "Fig. 4" in text
        assert "output" in text


class TestEndToEndReports:
    def test_fig5(self, comparison):
        text = report_fig5(comparison)
        assert "Fig. 5" in text
        for name in ("react", "greedy", "traditional"):
            assert f"## {name}" in text

    def test_fig6(self, comparison):
        assert "positive" in report_fig6(comparison)

    def test_fig7_and_fig8_tables(self, comparison):
        assert "avg_worker_time_s" in report_fig7(comparison)
        assert "avg_total_time_s" in report_fig8(comparison)


class TestScalabilityReports:
    def test_fig9(self, scalability):
        text = report_fig9(scalability)
        assert "Fig. 9" in text
        assert "on_time" in text

    def test_fig10(self, scalability):
        assert "positive_fb" in report_fig10(scalability)


class TestAblationReports:
    def test_cycles_table(self):
        result = ablate_cycles(
            AblationConfig(cycles_sweep=(50, 100)), n_workers=20, n_tasks=20
        )
        text = report_ablation(result)
        assert "cycles" in text and "optimality" in text

    def test_k_table(self):
        result = ablate_k_constant(
            AblationConfig(k_sweep=(0.1, 1.0)), n_workers=20, n_tasks=20, cycles=200
        )
        text = report_ablation(result)
        assert "K" in text
