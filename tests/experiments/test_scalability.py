"""Tests for the Figs. 9-10 scalability driver (scaled-down sweep)."""

import pytest

from repro.dist import run_scalability_sharded
from repro.experiments.config import ScalabilityConfig

SMALL_SWEEP = ScalabilityConfig(
    worker_sizes=(30, 80),
    rates=(0.4, 1.0),
    duration=200.0,
    drain_time=300.0,
    seed=21,
)


@pytest.fixture(scope="module")
def result():
    return run_scalability_sharded(SMALL_SWEEP).results


class TestStructure:
    def test_all_points_present(self, result):
        assert len(result.points) == 2 * 3  # 2 sizes x 3 techniques
        assert set(result.policies()) == {"react", "greedy", "traditional"}

    def test_series_selection(self, result):
        react = result.series("react")
        assert [p.n_workers for p in react] == [30, 80]
        assert [p.n_tasks for p in react] == [80, 200]

    def test_fractions_in_unit_interval(self, result):
        for p in result.points:
            assert 0.0 <= p.on_time_fraction <= 1.0
            assert 0.0 <= p.positive_feedback_fraction <= 1.0

    def test_feedback_never_exceeds_on_time(self, result):
        """Positive feedback requires meeting the deadline (Fig. 10 <= Fig. 9)."""
        for p in result.points:
            assert p.positive_feedback_fraction <= p.on_time_fraction + 1e-9


class TestPaperShapes:
    def test_react_beats_traditional_at_every_size(self, result):
        for react, trad in zip(result.series("react"), result.series("traditional")):
            assert react.on_time_fraction > trad.on_time_fraction

    def test_react_stable_across_sizes(self, result):
        """Fig. 9: 'REACT seems to be a little influenced as the graph size
        increases'."""
        fractions = [p.on_time_fraction for p in result.series("react")]
        assert max(fractions) - min(fractions) < 0.15
