"""Integration smoke tests: every figure's qualitative shape at small scale.

These are scaled-down versions of the benches in ``benchmarks/`` — they run
in seconds and assert the *direction* of every paper claim, so a regression
that silently flips a comparison fails the suite long before anyone reruns
the full harness.
"""

import pytest

from repro.dist import run_comparison_sharded, run_scalability_sharded
from repro.experiments.config import (
    EndToEndConfig,
    MatchingSweepConfig,
    ScalabilityConfig,
)
from repro.experiments.matching_bench import run_matching_sweep


@pytest.fixture(scope="module")
def matching():
    return run_matching_sweep(
        MatchingSweepConfig(
            n_workers=150, task_counts=(20, 150), cycles_settings=(300, 900), seed=3
        )
    )


@pytest.fixture(scope="module")
def endtoend():
    return run_comparison_sharded(
        EndToEndConfig(n_workers=120, arrival_rate=1.5, n_tasks=900, drain_time=400, seed=4)
    ).results


class TestFig3Shape:
    def test_greedy_model_time_dominates_at_scale(self, matching):
        """Fig. 3: greedy slowest at the full 1000-task point (model time)."""
        greedy = [p for p in matching.series("greedy") if p.n_tasks == 150][0]
        react = [p for p in matching.series("react", 300) if p.n_tasks == 150][0]
        # scaled by the paper model: greedy V*E vs react c*E
        assert greedy.model_seconds > react.model_seconds

    def test_randomized_time_scales_with_cycles(self, matching):
        slow = [p for p in matching.series("react", 900) if p.n_tasks == 150][0]
        fast = [p for p in matching.series("react", 300) if p.n_tasks == 150][0]
        assert slow.model_seconds > fast.model_seconds


class TestFig4Shape:
    def test_greedy_output_highest(self, matching):
        at_150 = {
            f"{p.algorithm}@{p.cycles}": p.output_weight
            for p in matching.points
            if p.n_tasks == 150
        }
        assert at_150["greedy@0"] >= max(
            v for k, v in at_150.items() if k != "greedy@0"
        )

    def test_react_above_metropolis(self, matching):
        at_150 = {
            (p.algorithm, p.cycles): p.output_weight
            for p in matching.points
            if p.n_tasks == 150
        }
        assert at_150[("react", 300)] > at_150[("metropolis", 300)]
        assert at_150[("react", 900)] > at_150[("metropolis", 900)]


class TestFig5To8Shapes:
    def test_fig5_react_most_on_time(self, endtoend):
        on_time = {k: v.summary["completed_on_time"] for k, v in endtoend.items()}
        assert on_time["react"] > on_time["traditional"]

    def test_fig6_react_most_positive_feedback(self, endtoend):
        fb = {k: v.summary["positive_feedbacks"] for k, v in endtoend.items()}
        assert fb["react"] > fb["traditional"]

    def test_fig7_traditional_worst_worker_time(self, endtoend):
        wt = {k: v.avg_worker_time for k, v in endtoend.items()}
        assert wt["traditional"] > wt["react"]
        assert wt["traditional"] > wt["greedy"]

    def test_fig8_react_beats_traditional_total_time(self, endtoend):
        """At this small scale greedy does not queue, so react and greedy
        are statistically tied; the paper-robust claim is react ≪
        traditional, with react within noise of the best.  The tie noise
        spans ~0-15% across seeds (measured over seeds 1-5), so the bound
        is 1.2× — tight enough to catch a queueing collapse, loose enough
        not to flip on a seed-path perturbation."""
        tt = {k: v.avg_total_time for k, v in endtoend.items()}
        assert tt["react"] < tt["traditional"]
        assert tt["react"] <= 1.2 * min(tt.values())


class TestFig9Fig10Shape:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_scalability_sharded(
            ScalabilityConfig(
                worker_sizes=(40, 120),
                rates=(0.5, 1.5),
                duration=250.0,
                drain_time=300.0,
                seed=6,
            )
        ).results

    def test_react_beats_traditional_everywhere(self, sweep):
        for r, t in zip(sweep.series("react"), sweep.series("traditional")):
            assert r.on_time_fraction > t.on_time_fraction
            assert r.positive_feedback_fraction > t.positive_feedback_fraction

    def test_fig10_proportional_to_fig9(self, sweep):
        """Fig. 10 'seems to be proportional to figure 9 for all approaches'."""
        for p in sweep.points:
            assert p.positive_feedback_fraction <= p.on_time_fraction + 1e-9
