"""REACT: real-time crowdsourcing task scheduling.

A full reproduction of *"Crowdsourcing under Real-Time Constraints"*
(Boutsis & Kalogeraki, IPPS 2013): the REACT middleware — online weighted
bipartite graph matching with a probabilistic (power-law) deadline model —
together with the Metropolis/Greedy/Traditional baselines, a discrete-event
simulation substrate, workload generators, and harnesses regenerating every
figure of the paper's evaluation.

Quick start::

    from repro import EndToEndConfig, run_comparison_sharded

    config = EndToEndConfig(n_workers=150, arrival_rate=1.875, n_tasks=1000)
    results = run_comparison_sharded(config).results
    for name, run in results.items():
        print(name, run.summary["on_time_fraction"])

``run_comparison_sharded(config, parallel=N)`` fans the policies over N
worker processes with byte-identical results.

See README.md for the architecture overview and DESIGN.md / EXPERIMENTS.md
for the per-figure reproduction index.
"""

from typing import Any

from .chaos import FaultInjector, FaultSchedule
from .core.deadline import DeadlineEstimator
from .core.matching import (
    GreedyMatcher,
    HungarianMatcher,
    MatchingResult,
    MetropolisMatcher,
    ReactMatcher,
    ReactParameters,
    UniformMatcher,
    create_matcher,
)
from .core.weights import AccuracyWeight, DistanceWeight, make_weight_function
from .experiments.config import (
    EndToEndConfig,
    MatchingSweepConfig,
    ScalabilityConfig,
)
from .experiments.endtoend import run_endtoend
from .experiments.matching_bench import run_matching_sweep
from .graph.bipartite import BipartiteGraph
from .model.task import Task, TaskCategory
from .model.worker import WorkerBehavior, WorkerProfile
from .platform.policies import (
    SchedulingPolicy,
    greedy_policy,
    react_policy,
    traditional_policy,
)
from .platform.resilience import ResilienceConfig
from .platform.server import REACTServer
from .sim.engine import Engine
from .sim.rng import RngRegistry
from .stats.powerlaw import PowerLawFit, fit_power_law

__version__ = "1.0.0"

#: The multi-policy runners live in :mod:`repro.dist`, which loads hashlib
#: and multiprocessing; they are imported on first use, so ``import repro``
#: stays as light as the single-run API.
_DIST_EXPORTS = ("run_comparison_sharded", "run_scalability_sharded")


def __getattr__(name: str) -> Any:
    if name in _DIST_EXPORTS:
        from . import dist

        return getattr(dist, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DeadlineEstimator",
    "FaultInjector",
    "FaultSchedule",
    "ResilienceConfig",
    "GreedyMatcher",
    "HungarianMatcher",
    "MatchingResult",
    "MetropolisMatcher",
    "ReactMatcher",
    "ReactParameters",
    "UniformMatcher",
    "create_matcher",
    "AccuracyWeight",
    "DistanceWeight",
    "make_weight_function",
    "EndToEndConfig",
    "MatchingSweepConfig",
    "ScalabilityConfig",
    "run_comparison_sharded",
    "run_endtoend",
    "run_matching_sweep",
    "run_scalability_sharded",
    "BipartiteGraph",
    "Task",
    "TaskCategory",
    "WorkerBehavior",
    "WorkerProfile",
    "SchedulingPolicy",
    "greedy_policy",
    "react_policy",
    "traditional_policy",
    "REACTServer",
    "Engine",
    "RngRegistry",
    "PowerLawFit",
    "fit_power_law",
    "__version__",
]
