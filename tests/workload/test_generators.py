"""Unit tests for task generators."""

import pytest

from repro.model.region import Region
from repro.model.task import TaskCategory
from repro.workload.generators import (
    LocationSurveyGenerator,
    PoiSuggestionGenerator,
    PriceCheckGenerator,
    TaskGenerator,
    TaskGeneratorConfig,
    TrafficMonitoringGenerator,
)


class TestConfig:
    def test_defaults_match_paper(self):
        config = TaskGeneratorConfig()
        assert config.deadline_low == 60.0
        assert config.deadline_high == 120.0
        assert config.reward_high <= 0.10  # §II: 90% of tasks pay < $0.10

    def test_validation(self):
        with pytest.raises(ValueError):
            TaskGeneratorConfig(deadline_low=0.0)
        with pytest.raises(ValueError):
            TaskGeneratorConfig(reward_low=0.5, reward_high=0.1)


class TestGeneration:
    def test_deadline_and_reward_ranges(self, rng):
        gen = TaskGenerator(rng)
        for _ in range(100):
            task = gen.make()
            assert 60.0 <= task.deadline <= 120.0
            assert 0.01 <= task.reward <= 0.10

    def test_submitted_at_stamped(self, rng):
        task = TaskGenerator(rng).make(submitted_at=42.0)
        assert task.submitted_at == 42.0

    def test_region_placement(self, rng):
        region = Region(10, 20, 30, 40)
        gen = TrafficMonitoringGenerator(rng, region=region)
        for _ in range(50):
            task = gen.make()
            assert region.contains(task.latitude, task.longitude)

    def test_stream_count(self, rng):
        assert len(list(TaskGenerator(rng).stream(7))) == 7

    def test_unique_ids_in_stream(self, rng):
        tasks = list(TaskGenerator(rng).stream(20))
        assert len({t.task_id for t in tasks}) == 20


class TestFlavours:
    @pytest.mark.parametrize(
        "cls,category",
        [
            (TrafficMonitoringGenerator, TaskCategory.TRAFFIC_MONITORING),
            (LocationSurveyGenerator, TaskCategory.LOCATION_SURVEY),
            (PriceCheckGenerator, TaskCategory.PRICE_CHECK),
            (PoiSuggestionGenerator, TaskCategory.POI_SUGGESTION),
        ],
    )
    def test_category_and_description(self, rng, cls, category):
        task = cls(rng).make()
        assert task.category is category
        assert len(task.description) > 10

    def test_traffic_description_mentions_congestion(self, rng):
        task = TrafficMonitoringGenerator(rng).make()
        assert "congested" in task.description
