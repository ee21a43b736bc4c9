"""Unit tests for the worker-population generator."""

import numpy as np
import pytest

from repro.model.region import Region
from repro.workload.population import (
    PopulationConfig,
    generate_population,
    sample_behavior,
    sample_quality,
)


class TestConfig:
    def test_defaults_match_paper(self):
        config = PopulationConfig()
        assert config.size == 750
        assert config.time_floor == 1.0
        assert config.time_ceil == 20.0
        assert config.delay_probability == 0.5
        assert config.delay_cap == 130.0
        assert config.high_quality_fraction == 0.7
        assert config.quality_split == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            PopulationConfig(size=-1)
        with pytest.raises(ValueError):
            PopulationConfig(time_floor=0.0)
        with pytest.raises(ValueError):
            PopulationConfig(high_quality_fraction=2.0)


class TestMarginals:
    def test_quality_split_fraction(self, rng):
        config = PopulationConfig()
        qualities = [sample_quality(rng, config) for _ in range(5000)]
        above = np.mean([q > 0.5 for q in qualities])
        assert above == pytest.approx(0.7, abs=0.03)

    def test_behavior_windows_in_bounds(self, rng):
        config = PopulationConfig()
        for _ in range(200):
            b = sample_behavior(rng, config)
            assert 1.0 <= b.min_time <= b.max_time <= 20.0
            assert b.delay_cap == 130.0

    def test_generated_population_marginals(self, rng):
        pop = generate_population(rng, PopulationConfig(size=2000))
        assert len(pop) == 2000
        qualities = np.array([b.quality for _, b in pop])
        assert (qualities > 0.5).mean() == pytest.approx(0.7, abs=0.05)
        mins = [b.min_time for _, b in pop]
        assert min(mins) >= 1.0 and max(mins) <= 20.0

    def test_empty_population(self, rng):
        assert generate_population(rng, PopulationConfig(size=0)) == []


class TestGeneration:
    def test_ids_sequential_with_offset(self, rng):
        pop = generate_population(rng, PopulationConfig(size=3), id_offset=100)
        assert [p.worker_id for p, _ in pop] == [100, 101, 102]

    def test_placement_inside_region(self, rng):
        region = Region(10, 20, 30, 40)
        pop = generate_population(rng, PopulationConfig(size=50), region=region)
        for profile, _ in pop:
            assert region.contains(profile.latitude, profile.longitude)

    def test_default_location_origin(self, rng):
        pop = generate_population(rng, PopulationConfig(size=2))
        assert all(p.latitude == 0.0 and p.longitude == 0.0 for p, _ in pop)

    def test_deterministic_under_seed(self):
        a = generate_population(np.random.default_rng(5), PopulationConfig(size=10))
        b = generate_population(np.random.default_rng(5), PopulationConfig(size=10))
        assert [x[1] for x in a] == [x[1] for x in b]  # behaviours are frozen dataclasses
