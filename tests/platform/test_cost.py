"""Unit tests for the matcher-latency cost models."""

import pytest

from repro.platform.cost import (
    KAPPA_GREEDY,
    BatchShape,
    PaperCalibratedCost,
    ZeroCost,
)


class TestBatchShape:
    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            BatchShape(n_workers=-1, n_tasks=1, n_edges=1)


class TestZeroCost:
    def test_always_zero(self):
        cost = ZeroCost()
        shape = BatchShape(n_workers=1000, n_tasks=1000, n_edges=10**6, cycles=1000)
        assert cost.seconds("greedy", shape) == 0.0
        assert cost.seconds("react", shape) == 0.0


class TestPaperCalibration:
    """The model must hit the paper's Fig. 3 anchor points exactly."""

    def _full_graph_shape(self, cycles=0):
        return BatchShape(n_workers=1000, n_tasks=1000, n_edges=10**6, cycles=cycles)

    def test_greedy_anchor(self):
        cost = PaperCalibratedCost()
        assert cost.seconds("greedy", self._full_graph_shape()) == pytest.approx(99.7)

    def test_react_1000_cycles_anchor(self):
        cost = PaperCalibratedCost()
        assert cost.seconds("react", self._full_graph_shape(cycles=1000)) == pytest.approx(12.0)

    def test_react_3000_cycles_anchor(self):
        cost = PaperCalibratedCost()
        assert cost.seconds("react", self._full_graph_shape(cycles=3000)) == pytest.approx(45.0)

    def test_metropolis_equals_react(self):
        """Fig. 3: 'Metropolis and REACT algorithms needed almost the same
        time to execute, for the same cycle parameter'."""
        cost = PaperCalibratedCost()
        shape = self._full_graph_shape(cycles=2000)
        assert cost.seconds("metropolis", shape) == cost.seconds("react", shape)

    def test_interpolation_monotone(self):
        cost = PaperCalibratedCost()
        values = [
            cost.seconds(
                "react", BatchShape(1000, 1000, 10**6, cycles=c)
            )
            for c in (0, 500, 1000, 2000, 3000, 6000)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_extrapolates_beyond_last_knot(self):
        cost = PaperCalibratedCost()
        at_3000 = cost.seconds("react", self._full_graph_shape(cycles=3000))
        at_6000 = cost.seconds("react", self._full_graph_shape(cycles=6000))
        assert at_6000 == pytest.approx(at_3000 + 3 * 16.5)

    def test_greedy_scales_with_v_times_e(self):
        cost = PaperCalibratedCost()
        small = cost.seconds("greedy", BatchShape(100, 10, 1000))
        assert small == pytest.approx(KAPPA_GREEDY * 10 * 1000)

    def test_uniform_negligible(self):
        cost = PaperCalibratedCost()
        assert cost.seconds("uniform", BatchShape(1000, 1000, 10**6)) < 0.01

    def test_empty_graph_costs_overhead_only(self):
        cost = PaperCalibratedCost(batch_overhead=0.2)
        assert cost.seconds("react", BatchShape(10, 5, 0)) == pytest.approx(0.2)

    def test_overhead_added_per_batch(self):
        with_oh = PaperCalibratedCost(batch_overhead=0.5)
        without = PaperCalibratedCost()
        shape = BatchShape(100, 10, 1000)
        assert with_oh.seconds("greedy", shape) == pytest.approx(
            without.seconds("greedy", shape) + 0.5
        )

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(KeyError):
            PaperCalibratedCost().seconds("quantum", BatchShape(1, 1, 1))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PaperCalibratedCost(batch_overhead=-1)

    def test_hungarian_and_sorted_greedy_have_costs(self):
        cost = PaperCalibratedCost()
        shape = self._full_graph_shape()
        assert cost.seconds("hungarian", shape) > 0
        assert cost.seconds("sorted-greedy", shape) > 0
