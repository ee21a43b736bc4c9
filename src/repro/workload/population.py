"""Worker-population generation with the paper's §V-C marginals.

"Each worker receives a unique minimum and maximum time ... constrained
among 1-20 seconds"; "a worker might choose to delay or abandon the task
randomly with a probability of 50% and thus the executing time may reach up
to 130 seconds"; "each worker has a unique feedback ∈ [0,1] assigned with a
distribution where the 70% of the workers receive a feedback that is above
0.50" (the CrowdFlower case-study trust statistic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..model.region import Region
from ..model.worker import WorkerBehavior, WorkerProfile


@dataclass(frozen=True)
class PopulationConfig:
    """Knobs of the synthetic worker population (defaults = paper §V-C)."""

    size: int = 750
    time_floor: float = 1.0
    time_ceil: float = 20.0
    delay_probability: float = 0.5
    delay_cap: float = 130.0
    abandon_probability: float = 0.5
    #: Lower edge of slow-finish draws; calibrated so delayed executions
    #: rarely beat the 60-120 s deadlines (see DESIGN.md §2 notes).
    delay_floor: float = 100.0
    #: Fraction of workers whose latent quality exceeds ``quality_split``.
    high_quality_fraction: float = 0.7
    quality_split: float = 0.5

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"size must be non-negative, got {self.size}")
        if not (0 < self.time_floor <= self.time_ceil):
            raise ValueError("need 0 < time_floor <= time_ceil")
        if not (0.0 <= self.high_quality_fraction <= 1.0):
            raise ValueError("high_quality_fraction must be in [0,1]")
        if not (0.0 < self.quality_split < 1.0):
            raise ValueError("quality_split must be in (0,1)")


def sample_quality(rng: np.random.Generator, config: PopulationConfig) -> float:
    """Latent worker quality with the 70/30 split around ``quality_split``."""
    if rng.random() < config.high_quality_fraction:
        return float(rng.uniform(config.quality_split, 1.0))
    return float(rng.uniform(0.0, config.quality_split))


def sample_behavior(rng: np.random.Generator, config: PopulationConfig) -> WorkerBehavior:
    """One worker's latent behaviour: unique (min, max) window + quality."""
    lo, hi = np.sort(rng.uniform(config.time_floor, config.time_ceil, size=2))
    if hi <= lo:  # degenerate draw; widen minimally
        hi = lo + 1e-6
    return WorkerBehavior(
        min_time=float(lo),
        max_time=float(hi),
        quality=sample_quality(rng, config),
        delay_probability=config.delay_probability,
        delay_cap=config.delay_cap,
        abandon_probability=config.abandon_probability,
        delay_floor=config.delay_floor,
    )


def generate_population(
    rng: np.random.Generator,
    config: Optional[PopulationConfig] = None,
    region: Optional[Region] = None,
    id_offset: int = 0,
) -> List[Tuple[WorkerProfile, WorkerBehavior]]:
    """Workers with fresh profiles and latent behaviours.

    When ``region`` is given, workers are placed uniformly inside it;
    otherwise all sit at the origin (location is irrelevant for the paper's
    accuracy-weighted experiments).
    """
    config = config or PopulationConfig()
    out: List[Tuple[WorkerProfile, WorkerBehavior]] = []
    for i in range(config.size):
        if region is not None:
            lat = float(rng.uniform(region.lat_min, region.lat_max))
            lon = float(rng.uniform(region.lon_min, region.lon_max))
        else:
            lat = lon = 0.0
        profile = WorkerProfile(worker_id=id_offset + i, latitude=lat, longitude=lon)
        out.append((profile, sample_behavior(rng, config)))
    return out
