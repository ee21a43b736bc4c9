"""Task generators for the paper's motivating applications.

Each generator produces :class:`~repro.model.task.Task` objects with the
§V-C experimental parameters: deadlines drawn uniformly from [60, 120] s
("a tight deadline for such systems") and sub-$0.10 rewards (90% of AMT
tasks pay less than $0.10, §II).  Domain flavours set the category, the
coordinates and a human-readable description like the paper's examples
("Is road A highly congested?").

Every draw a generator makes is ``random``/``uniform``, so it reads its
stream through a :class:`~repro.sim.rng.BlockReader`: the same values as
scalar ``Generator`` calls, a block at a time.  A generator therefore owns
its stream; nothing else may draw from the generator it was given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from ..model.region import Region
from ..model.task import Task, TaskCategory
from ..sim.rng import BlockReader


@dataclass(frozen=True)
class TaskGeneratorConfig:
    """Deadline/reward ranges (defaults = paper §V-C)."""

    deadline_low: float = 60.0
    deadline_high: float = 120.0
    reward_low: float = 0.01
    reward_high: float = 0.10

    def __post_init__(self) -> None:
        if not (0 < self.deadline_low <= self.deadline_high):
            raise ValueError("need 0 < deadline_low <= deadline_high")
        if not (0 <= self.reward_low <= self.reward_high):
            raise ValueError("need 0 <= reward_low <= reward_high")


class TaskGenerator:
    """Base generator: random deadline, reward and in-region location.

    ``rng`` becomes this generator's own stream (see the module docstring).
    """

    category = TaskCategory.GENERIC

    def __init__(
        self,
        rng: np.random.Generator,
        config: Optional[TaskGeneratorConfig] = None,
        region: Optional[Region] = None,
    ) -> None:
        self._rng = BlockReader(rng)
        self._config = config or TaskGeneratorConfig()
        self._region = region

    def _location(self) -> tuple[float, float]:
        if self._region is None:
            return 0.0, 0.0
        return (
            self._rng.uniform(self._region.lat_min, self._region.lat_max),
            self._rng.uniform(self._region.lon_min, self._region.lon_max),
        )

    def describe(self, lat: float, lon: float) -> str:
        return f"Provide information about location ({lat:.4f}, {lon:.4f})"

    def make(self, submitted_at: float = 0.0) -> Task:
        lat, lon = self._location()
        cfg = self._config
        return Task(
            latitude=lat,
            longitude=lon,
            deadline=self._rng.uniform(cfg.deadline_low, cfg.deadline_high),
            reward=self._rng.uniform(cfg.reward_low, cfg.reward_high),
            category=self.category,
            description=self.describe(lat, lon),
            submitted_at=submitted_at,
        )

    def stream(self, count: Optional[int] = None) -> Iterator[Task]:
        produced = 0
        while count is None or produced < count:
            yield self.make()
            produced += 1


class TrafficMonitoringGenerator(TaskGenerator):
    """The CrowdFlower case-study application: local congestion estimates."""

    category = TaskCategory.TRAFFIC_MONITORING

    def describe(self, lat: float, lon: float) -> str:
        return f"Is the road at ({lat:.4f}, {lon:.4f}) highly congested?"


class LocationSurveyGenerator(TaskGenerator):
    """Location-aware surveys (Gigwalk/FieldAgent-style)."""

    category = TaskCategory.LOCATION_SURVEY

    def describe(self, lat: float, lon: float) -> str:
        return f"Answer a short survey about the venue at ({lat:.4f}, {lon:.4f})"


class PriceCheckGenerator(TaskGenerator):
    """In-store price checks."""

    category = TaskCategory.PRICE_CHECK

    def describe(self, lat: float, lon: float) -> str:
        return f"Report the shelf price of the advertised item at ({lat:.4f}, {lon:.4f})"


class PoiSuggestionGenerator(TaskGenerator):
    """Points-of-interest suggestions."""

    category = TaskCategory.POI_SUGGESTION

    def describe(self, lat: float, lon: float) -> str:
        return f"Suggest a point of interest near ({lat:.4f}, {lon:.4f})"


class CategoryMixGenerator(TaskGenerator):
    """Heterogeneous-task workload: each task draws its category from a mix.

    The scenario pack (Assadi et al. heterogeneous-tasks extension) needs
    batches that interleave task types so per-type worker skills actually
    matter to the matcher.  ``weights`` biases the draw (uniform when
    omitted); each draw costs exactly one ``rng.random()`` so adding or
    re-weighting categories never perturbs the deadline/reward draws of
    *other* tasks in a seeded run.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        categories: Sequence[TaskCategory],
        weights: Optional[Sequence[float]] = None,
        config: Optional[TaskGeneratorConfig] = None,
        region: Optional[Region] = None,
    ) -> None:
        super().__init__(rng, config, region)
        if not categories:
            raise ValueError("need at least one category")
        if weights is not None:
            if len(weights) != len(categories):
                raise ValueError(
                    f"{len(weights)} weights for {len(categories)} categories"
                )
            if any(w < 0 for w in weights) or sum(weights) <= 0:
                raise ValueError("weights must be non-negative with positive sum")
            total = float(sum(weights))
            weights = [w / total for w in weights]
        self._categories = list(categories)
        self._weights = list(weights) if weights is not None else None

    def _draw_category(self) -> TaskCategory:
        u = self._rng.random()
        if self._weights is None:
            idx = min(int(u * len(self._categories)), len(self._categories) - 1)
            return self._categories[idx]
        acc = 0.0
        for category, w in zip(self._categories, self._weights):
            acc += w
            if u < acc:
                return category
        return self._categories[-1]

    def make(self, submitted_at: float = 0.0) -> Task:
        category = self._draw_category()
        lat, lon = self._location()
        cfg = self._config
        return Task(
            latitude=lat,
            longitude=lon,
            deadline=self._rng.uniform(cfg.deadline_low, cfg.deadline_high),
            reward=self._rng.uniform(cfg.reward_low, cfg.reward_high),
            category=category,
            description=self.describe(lat, lon),
            submitted_at=submitted_at,
        )
