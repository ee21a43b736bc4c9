"""Unit tests for arrival processes."""

import numpy as np
import pytest

from repro.workload.arrivals import deterministic_gaps, poisson_gaps


class TestDeterministic:
    def test_gap_is_inverse_rate(self):
        gaps = list(deterministic_gaps(rate=4.0, count=5))
        assert [g for g, _ in gaps] == [0.25] * 5
        assert [i for _, i in gaps] == list(range(5))

    def test_infinite_stream(self):
        stream = deterministic_gaps(rate=1.0)
        assert next(stream) == (1.0, 0)
        assert next(stream) == (1.0, 1)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            next(deterministic_gaps(rate=0.0))


class TestPoisson:
    def test_mean_gap_matches_rate(self, rng):
        gaps = [g for g, _ in poisson_gaps(rate=5.0, rng=rng, count=20_000)]
        assert np.mean(gaps) == pytest.approx(0.2, rel=0.05)

    def test_count_respected(self, rng):
        assert len(list(poisson_gaps(rate=1.0, rng=rng, count=7))) == 7

    def test_gaps_nonnegative(self, rng):
        assert all(g >= 0 for g, _ in poisson_gaps(rate=1.0, rng=rng, count=1000))

    def test_deterministic_under_seed(self):
        a = [g for g, _ in poisson_gaps(2.0, np.random.default_rng(3), count=10)]
        b = [g for g, _ in poisson_gaps(2.0, np.random.default_rng(3), count=10)]
        assert a == b

    def test_invalid_rate(self, rng):
        with pytest.raises(ValueError):
            next(poisson_gaps(rate=-1.0, rng=rng))
