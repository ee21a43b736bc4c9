"""Ablation studies around the design choices the paper leaves as knobs.

The paper fixes several constants without sweeps — cycles = 1000,
reassignment threshold = 10%, z = 3 training tasks, the acceptance
temperature K — and sketches extensions (adaptive cycles, §IV-A).  These
harnesses quantify each choice:

* ``cycles``   — matching output/time trade-off on a fixed graph (the §IV-A
  "Time vs. Optimal result trade-off" discussion, plus the adaptive rule);
* ``threshold`` — end-to-end on-time fraction vs. the Eq. 2 threshold;
* ``z``        — end-to-end effect of the training length;
* ``K``        — matching output vs. the acceptance temperature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.matching.hungarian import HungarianMatcher
from ..core.matching.react import ReactMatcher, ReactParameters
from ..graph.bipartite import BipartiteGraph
from ..platform.policies import react_policy
from .config import AblationConfig, EndToEndConfig
from .endtoend import run_endtoend


@dataclass(frozen=True)
class CyclesPoint:
    cycles: int
    adaptive: bool
    output_weight: float
    optimal_weight: float

    @property
    def optimality(self) -> float:
        return self.output_weight / self.optimal_weight if self.optimal_weight else 0.0


@dataclass(frozen=True)
class KPoint:
    """Matching output at one acceptance-temperature setting."""

    k_constant: float
    cycles: int
    output_weight: float
    optimal_weight: float

    @property
    def optimality(self) -> float:
        return self.output_weight / self.optimal_weight if self.optimal_weight else 0.0


@dataclass(frozen=True)
class ScalarPoint:
    """A (knob value, headline metrics) pair from an end-to-end ablation."""

    value: float
    on_time_fraction: float
    positive_feedback_fraction: float
    reassignments: int


@dataclass
class AblationResult:
    name: str
    points: List[object] = field(default_factory=list)


def ablate_cycles(
    config: Optional[AblationConfig] = None,
    n_workers: int = 300,
    n_tasks: int = 300,
) -> AblationResult:
    """Matching quality vs. the cycle budget on one fixed full graph.

    A point's cost is ``cycles``, the cycles the matcher actually ran (the
    adaptive rule picks its own); host time would make the report differ
    from run to run.
    """
    config = config or AblationConfig()
    rng = np.random.default_rng(config.seed)
    graph = BipartiteGraph.full(rng.random((n_workers, n_tasks)))
    optimal = HungarianMatcher().match(graph).total_weight

    result = AblationResult(name="cycles")
    settings = [(c, False) for c in config.cycles_sweep] + [(0, True)]
    for cycles, adaptive in settings:
        params = ReactParameters(
            cycles=cycles if not adaptive else 1,
            adaptive_cycles=adaptive,
        )
        matcher = ReactMatcher(params)
        matching = matcher.match(graph, np.random.default_rng(config.seed + cycles))
        result.points.append(
            CyclesPoint(
                cycles=matching.cycles_used,
                adaptive=adaptive,
                output_weight=matching.total_weight,
                optimal_weight=optimal,
            )
        )
    return result


def _small_endtoend(seed: int) -> EndToEndConfig:
    """A reduced §V-C scenario that keeps ablation sweeps fast."""
    return EndToEndConfig(
        n_workers=150, arrival_rate=1.875, n_tasks=1200, seed=seed, drain_time=400
    )


def ablate_threshold(config: Optional[AblationConfig] = None) -> AblationResult:
    """End-to-end sensitivity to the Eq. 2 reassignment threshold."""
    config = config or AblationConfig()
    result = AblationResult(name="threshold")
    for threshold in config.threshold_sweep:
        run = run_endtoend(
            react_policy(reassign_threshold=threshold), _small_endtoend(config.seed)
        )
        result.points.append(
            ScalarPoint(
                value=threshold,
                on_time_fraction=run.summary["on_time_fraction"],
                positive_feedback_fraction=run.summary["positive_feedback_fraction"],
                reassignments=int(run.summary["reassignments"]),
            )
        )
    return result


def ablate_training_z(config: Optional[AblationConfig] = None) -> AblationResult:
    """End-to-end sensitivity to the cold-start training length z."""
    config = config or AblationConfig()
    result = AblationResult(name="z")
    for z in config.z_sweep:
        run = run_endtoend(
            react_policy(min_history=z), _small_endtoend(config.seed)
        )
        result.points.append(
            ScalarPoint(
                value=float(z),
                on_time_fraction=run.summary["on_time_fraction"],
                positive_feedback_fraction=run.summary["positive_feedback_fraction"],
                reassignments=int(run.summary["reassignments"]),
            )
        )
    return result


def ablate_k_constant(
    config: Optional[AblationConfig] = None,
    n_workers: int = 300,
    n_tasks: int = 300,
    cycles: int = 3000,
) -> AblationResult:
    """Matching output vs. the acceptance temperature K (Algorithm 1)."""
    config = config or AblationConfig()
    rng = np.random.default_rng(config.seed)
    graph = BipartiteGraph.full(rng.random((n_workers, n_tasks)))
    optimal = HungarianMatcher().match(graph).total_weight

    result = AblationResult(name="k")
    for k in config.k_sweep:
        matcher = ReactMatcher(ReactParameters(cycles=cycles, k_constant=k))
        matching = matcher.match(graph, np.random.default_rng(config.seed))
        result.points.append(
            KPoint(
                k_constant=k,
                cycles=cycles,
                output_weight=matching.total_weight,
                optimal_weight=optimal,
            )
        )
    return result
