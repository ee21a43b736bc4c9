"""Sharded counterparts of the sequential experiment drivers.

Each driver compiles its workload into :class:`~repro.dist.shards.ShardSpec`
lists, hands them to :func:`~repro.dist.executor.execute_shards`, and
merges the outcomes back into the exact object the sequential driver
returns — ``run_comparison_sharded(parallel=1)`` and
``run_comparison(...)`` are interchangeable by construction, and any
``parallel`` value produces the same bytes (the determinism contract in
docs/SCALING.md).

Repetition sweeps (:func:`run_endtoend_repetitions`) seed each repetition
via :func:`repro.sim.rng.spawn_seeds` — ``SeedSequence.spawn`` keying, not
arithmetic on the root seed — so repetitions are statistically independent
and the first ``k`` of them never change when more are added.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..chaos import FaultSchedule
from ..experiments.chaos import ChaosConfig, ChaosRunResult, standard_schedule
from ..experiments.config import EndToEndConfig, ScalabilityConfig
from ..experiments.endtoend import EndToEndResult, default_policies
from ..experiments.scalability import ScalabilityResult
from ..experiments.scenario import ScenarioConfig, ScenarioResult
from ..platform.policies import SchedulingPolicy
from ..scenarios.baselines import scenario_policies
from ..sim.rng import spawn_seeds
from .executor import ExecutionReport, execute_shards
from .merge import (
    merge_chaos,
    merge_endtoend,
    merge_scalability,
    merged_snapshot,
)
from .shards import MetricsSnapshot, ShardOutcome, ShardSpec, TelemetrySpec, safe_id

PathLike = Union[str, Path]


@dataclass
class ShardedRun:
    """A merged sharded experiment: results + fleet telemetry + resume info."""

    results: Any
    outcomes: List[ShardOutcome] = field(default_factory=list)
    snapshot: Optional[MetricsSnapshot] = None
    written: List[str] = field(default_factory=list)
    computed: int = 0
    resumed: int = 0

    @property
    def shard_count(self) -> int:
        return len(self.outcomes)


def _finish(results: Any, report: ExecutionReport) -> ShardedRun:
    written: List[str] = []
    for outcome in report.outcomes:
        written.extend(outcome.written)
    return ShardedRun(
        results=results,
        outcomes=report.outcomes,
        snapshot=merged_snapshot(report.outcomes),
        written=written,
        computed=report.computed,
        resumed=report.resumed,
    )


def _policies(
    policies: Optional[Sequence[SchedulingPolicy]],
    default: Callable[[], Sequence[SchedulingPolicy]] = default_policies,
) -> Sequence[SchedulingPolicy]:
    chosen = policies if policies is not None else default()
    seen: Dict[str, None] = {}
    for policy in chosen:
        if policy.name in seen:
            raise ValueError(f"duplicate policy name {policy.name!r}")
        seen.setdefault(policy.name)
    return chosen


def run_comparison_sharded(
    config: EndToEndConfig,
    policies: Optional[Sequence[SchedulingPolicy]] = None,
    parallel: int = 1,
    checkpoint_dir: Optional[PathLike] = None,
    telemetry: Optional[TelemetrySpec] = None,
) -> ShardedRun:
    """Sharded ``run_comparison``: one shard per policy, same seed each."""
    specs = [
        ShardSpec(
            shard_id=safe_id("endtoend", policy.name),
            kind="endtoend",
            payload={
                "policy": policy,
                "config": config,
                "label": policy.name,
                "telemetry": telemetry,
            },
        )
        for policy in _policies(policies)
    ]
    report = execute_shards(specs, parallel=parallel, checkpoint_dir=checkpoint_dir)
    results: Dict[str, EndToEndResult] = merge_endtoend(report.outcomes)
    return _finish(results, report)


def run_scenario_sharded(
    config: ScenarioConfig,
    policies: Optional[Sequence[SchedulingPolicy]] = None,
    parallel: int = 1,
    checkpoint_dir: Optional[PathLike] = None,
    telemetry: Optional[TelemetrySpec] = None,
) -> ShardedRun:
    """Sharded ``run_scenario_comparison``: one shard per policy, same seed.

    Each shard runs the full multi-region scenario hermetically (fresh
    engine, fresh RNG registry, task-id reset), so the merged dict is
    byte-identical to the sequential driver's for any ``parallel``.
    """
    specs = [
        ShardSpec(
            shard_id=safe_id("scenario", policy.name),
            kind="scenario",
            payload={
                "policy": policy,
                "config": config,
                "label": policy.name,
                "telemetry": telemetry,
            },
        )
        for policy in _policies(policies, scenario_policies)
    ]
    report = execute_shards(specs, parallel=parallel, checkpoint_dir=checkpoint_dir)
    results: Dict[str, ScenarioResult] = merge_endtoend(report.outcomes)
    return _finish(results, report)


def run_chaos_sharded(
    config: ChaosConfig,
    schedule: Optional[FaultSchedule] = None,
    policies: Optional[Sequence[SchedulingPolicy]] = None,
    parallel: int = 1,
    checkpoint_dir: Optional[PathLike] = None,
    telemetry: Optional[TelemetrySpec] = None,
) -> ShardedRun:
    """Sharded ``run_chaos_comparison``: clean + faulted twin per policy.

    Fault-injected runs shard exactly like clean ones — the schedule is a
    frozen dataclass that pickles into the worker, where the injector
    replays it deterministically.
    """
    if schedule is None:
        schedule = standard_schedule(config)
    specs: List[ShardSpec] = []
    for policy in _policies(policies):
        for variant, shard_schedule in (("clean", None), ("faulted", schedule)):
            specs.append(
                ShardSpec(
                    shard_id=safe_id("chaos", policy.name, variant),
                    kind="chaos",
                    payload={
                        "policy": policy,
                        "config": config,
                        "schedule": shard_schedule,
                        "label": f"{policy.name}.{variant}",
                        "telemetry": telemetry,
                    },
                )
            )
    report = execute_shards(specs, parallel=parallel, checkpoint_dir=checkpoint_dir)
    results: Dict[str, Dict[str, ChaosRunResult]] = merge_chaos(report.outcomes)
    return _finish(results, report)


def run_scalability_sharded(
    config: Optional[ScalabilityConfig] = None,
    policies: Optional[Sequence[SchedulingPolicy]] = None,
    parallel: int = 1,
    checkpoint_dir: Optional[PathLike] = None,
) -> ShardedRun:
    """Sharded Figs. 9-10 sweep: one shard per (size point, technique)."""
    config = config or ScalabilityConfig()
    specs: List[ShardSpec] = []
    for workers, rate, n_tasks in config.points():
        for policy in _policies(policies):
            specs.append(
                ShardSpec(
                    shard_id=safe_id("scal", workers, rate, n_tasks, policy.name),
                    kind="scalability",
                    payload={
                        "config": config,
                        "workers": workers,
                        "rate": rate,
                        "n_tasks": n_tasks,
                        "policy": policy,
                    },
                )
            )
    report = execute_shards(specs, parallel=parallel, checkpoint_dir=checkpoint_dir)
    results: ScalabilityResult = merge_scalability(config, report.outcomes)
    return _finish(results, report)


def run_endtoend_repetitions(
    policy: SchedulingPolicy,
    config: EndToEndConfig,
    repetitions: int,
    parallel: int = 1,
    checkpoint_dir: Optional[PathLike] = None,
) -> ShardedRun:
    """``repetitions`` independent runs of one policy, spawn-seeded.

    Repetition ``i`` replaces ``config.seed`` with the ``i``-th
    ``SeedSequence.spawn`` child of the root seed; results come back in
    repetition order.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    seeds = spawn_seeds(config.seed, repetitions)
    specs = [
        ShardSpec(
            shard_id=safe_id("rep", index, policy.name),
            kind="endtoend",
            payload={
                "policy": policy,
                "config": dataclasses.replace(config, seed=seed),
                "label": f"{policy.name}.rep{index}",
                "telemetry": None,
            },
        )
        for index, seed in enumerate(seeds)
    ]
    report = execute_shards(specs, parallel=parallel, checkpoint_dir=checkpoint_dir)
    results: List[EndToEndResult] = [outcome.result for outcome in report.outcomes]
    return _finish(results, report)
