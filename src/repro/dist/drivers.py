"""The multi-policy experiment drivers: the §V-C comparison, chaos twins,
the scenario pack and the Figs. 9-10 sweep.

Each driver compiles its workload into :class:`~repro.dist.shards.ShardSpec`
lists, hands them to :func:`~repro.dist.executor.execute_shards`, and
merges the outcomes (in spec order) into the result the reports and
exporters read.  ``parallel=1`` runs every shard inline, one after the
other, and is the reference: any ``parallel`` value produces the same bytes
(the determinism contract in docs/SCALING.md).

``execute_shards`` and the merge functions are looked up as module globals
when a driver is called, so a profiler can wrap them here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..chaos import FaultSchedule
from ..experiments.chaos import ChaosConfig, run_chaos, standard_schedule
from ..experiments.config import EndToEndConfig, ScalabilityConfig
from ..experiments.endtoend import default_policies, run_endtoend
from ..experiments.scalability import evaluate_point
from ..experiments.scenario import ScenarioConfig, run_scenario
from ..platform.policies import SchedulingPolicy
from ..scenarios.baselines import scenario_policies
from .executor import execute_shards
from .merge import merge_chaos, merge_endtoend, merge_scalability
from .shards import ShardOutcome, ShardSpec, TelemetrySpec, safe_id

PathLike = Union[str, Path]


@dataclass
class ShardedRun:
    """A merged sharded experiment: results, exported files, resume counts."""

    results: Any
    written: List[str] = field(default_factory=list)
    computed: int = 0
    resumed: int = 0


def _execute(
    specs: List[ShardSpec],
    merge: Callable[[List[ShardOutcome]], Any],
    parallel: int,
    checkpoint_dir: Optional[PathLike],
) -> ShardedRun:
    """Run ``specs`` and fold their outcomes (in spec order) with ``merge``."""
    report = execute_shards(specs, parallel=parallel, checkpoint_dir=checkpoint_dir)
    written: List[str] = []
    for outcome in report.outcomes:
        written.extend(outcome.written)
    return ShardedRun(
        results=merge(report.outcomes),
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


#: A shard variant within one policy: (name, extra runner kwargs).  The
#: unnamed default variant gives one shard per policy.
Variant = Tuple[str, Dict[str, Any]]


def _policy_specs(
    tag: str,
    runner: Callable[..., Any],
    policies: Sequence[SchedulingPolicy],
    kwargs: Dict[str, Any],
    telemetry: Optional[TelemetrySpec] = None,
    variants: Sequence[Variant] = (("", {}),),
) -> List[ShardSpec]:
    """One ``runner(policy=..., **kwargs, **extra)`` shard per policy and
    variant, in policy-major order.

    A named variant suffixes the shard id and the telemetry label
    (``"<policy>.<variant>"``); the unnamed one labels by policy name.
    """
    specs: List[ShardSpec] = []
    for policy in policies:
        for variant, extra in variants:
            parts = (policy.name, variant) if variant else (policy.name,)
            specs.append(
                ShardSpec(
                    shard_id=safe_id(tag, *parts),
                    runner=runner,
                    kwargs={"policy": policy, **kwargs, **extra},
                    label=".".join(parts),
                    telemetry=telemetry,
                )
            )
    return specs


def run_comparison_sharded(
    config: EndToEndConfig,
    policies: Optional[Sequence[SchedulingPolicy]] = None,
    parallel: int = 1,
    checkpoint_dir: Optional[PathLike] = None,
    telemetry: Optional[TelemetrySpec] = None,
) -> ShardedRun:
    """The §V-C comparison: one ``run_endtoend`` shard per policy, same seed.

    ``results`` maps policy name to :class:`EndToEndResult`, in policy
    order; the default policies are REACT, Greedy and Traditional.
    """
    specs = _policy_specs(
        "endtoend", run_endtoend, _policies(policies), {"config": config}, telemetry
    )
    return _execute(specs, merge_endtoend, parallel, checkpoint_dir)


def run_scenario_sharded(
    config: ScenarioConfig,
    policies: Optional[Sequence[SchedulingPolicy]] = None,
    parallel: int = 1,
    checkpoint_dir: Optional[PathLike] = None,
    telemetry: Optional[TelemetrySpec] = None,
) -> ShardedRun:
    """The scenario pack: one ``run_scenario`` shard per policy, same seed.

    Each shard runs the full multi-region scenario hermetically (fresh
    engine, fresh RNG registry, task-id reset), so the merged dict is
    byte-identical for any ``parallel``.
    """
    specs = _policy_specs(
        "scenario",
        run_scenario,
        _policies(policies, scenario_policies),
        {"config": config},
        telemetry,
    )
    return _execute(specs, merge_endtoend, parallel, checkpoint_dir)


def run_chaos_sharded(
    config: ChaosConfig,
    schedule: Optional[FaultSchedule] = None,
    policies: Optional[Sequence[SchedulingPolicy]] = None,
    parallel: int = 1,
    checkpoint_dir: Optional[PathLike] = None,
    telemetry: Optional[TelemetrySpec] = None,
) -> ShardedRun:
    """Clean + faulted ``run_chaos`` twin per policy, same seed.

    ``results`` is ``{policy: {"clean": ..., "faulted": ...}}``.
    Fault-injected runs shard exactly like clean ones — the schedule is a
    frozen dataclass that pickles into the worker, where the injector
    replays it deterministically.
    """
    if schedule is None:
        schedule = standard_schedule(config)
    specs = _policy_specs(
        "chaos",
        run_chaos,
        _policies(policies),
        {"config": config},
        telemetry,
        variants=(("clean", {"schedule": None}), ("faulted", {"schedule": schedule})),
    )
    return _execute(specs, merge_chaos, parallel, checkpoint_dir)


def run_scalability_sharded(
    config: Optional[ScalabilityConfig] = None,
    policies: Optional[Sequence[SchedulingPolicy]] = None,
    parallel: int = 1,
    checkpoint_dir: Optional[PathLike] = None,
) -> ShardedRun:
    """The Figs. 9-10 sweep: one shard per (size point, technique).

    Points come back point-major, techniques in policy order, all
    techniques sharing the seed at each point.
    """
    config = config or ScalabilityConfig()
    specs: List[ShardSpec] = []
    for workers, rate, n_tasks in config.points():
        for policy in _policies(policies):
            specs.append(
                ShardSpec(
                    shard_id=safe_id("scal", workers, rate, n_tasks, policy.name),
                    runner=evaluate_point,
                    kwargs={
                        "config": config,
                        "workers": workers,
                        "rate": rate,
                        "n_tasks": n_tasks,
                        "policy": policy,
                    },
                )
            )
    return _execute(
        specs, partial(merge_scalability, config), parallel, checkpoint_dir
    )
