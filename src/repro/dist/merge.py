"""Merge stage: fold shard outcomes back into sequential-shaped results.

Every merge here is pure reassembly — shards are hermetic, so the merged
object is *identical* (not just statistically equivalent) to what the
sequential driver builds, provided outcomes are fed in canonical spec
order.  :func:`repro.dist.executor.execute_shards` guarantees that order,
so the determinism contract (same seed ⇒ bit-identical merged results for
any ``--parallel``) reduces to the hermeticity of each shard.

Metrics registries merge by summing matching ``(name, labels)`` series
(:func:`repro.obs.registry.merge_snapshots`); kinds tables union, with a
conflict check so a counter in one shard can never silently absorb a gauge
of the same name from another.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..experiments.chaos import ChaosRunResult
from ..experiments.config import ScalabilityConfig
from ..experiments.scalability import ScalabilityResult
from ..obs.registry import Sample, merge_snapshots
from .shards import MetricsSnapshot, ShardOutcome


def merge_endtoend(outcomes: Sequence[ShardOutcome]) -> Dict[str, Any]:
    """Rebuild a per-policy comparison dict, keyed and ordered by policy.

    Serves both ``run_comparison`` (:class:`EndToEndResult` values) and
    ``run_scenario_comparison`` (:class:`ScenarioResult` values): each
    outcome's result carries its ``policy_name``.
    """
    results: Dict[str, Any] = {}
    for outcome in outcomes:
        result = outcome.result
        if result.policy_name in results:
            raise ValueError(f"duplicate policy name {result.policy_name!r}")
        results[result.policy_name] = result
    return results


def merge_chaos(
    outcomes: Sequence[ShardOutcome],
) -> Dict[str, Dict[str, ChaosRunResult]]:
    """Rebuild the ``run_chaos_comparison`` nested dict (clean + faulted)."""
    results: Dict[str, Dict[str, ChaosRunResult]] = {}
    for outcome in outcomes:
        result = outcome.result
        variant = "faulted" if result.faulted else "clean"
        pair = results.setdefault(result.policy_name, {})
        if variant in pair:
            raise ValueError(
                f"duplicate {variant!r} run for policy {result.policy_name!r}"
            )
        pair[variant] = result
    for name, pair in results.items():
        missing = {"clean", "faulted"} - set(pair)
        if missing:
            raise ValueError(f"policy {name!r} is missing runs: {sorted(missing)}")
    return results


def merge_scalability(
    config: ScalabilityConfig, outcomes: Sequence[ShardOutcome]
) -> ScalabilityResult:
    """Rebuild the sweep result; outcome order is the sequential sweep order."""
    result = ScalabilityResult(config=config)
    for outcome in outcomes:
        result.points.append(outcome.result)
    return result


def merge_metrics(outcomes: Sequence[ShardOutcome]) -> List[Sample]:
    """Aggregate every shard's registry snapshot into one sample list."""
    return merge_snapshots(
        outcome.snapshot.samples
        for outcome in outcomes
        if outcome.snapshot is not None
    )


def merged_snapshot(
    outcomes: Sequence[ShardOutcome], label: str = "merged"
) -> Optional[MetricsSnapshot]:
    """The fleet-wide snapshot, or None when no shard carried telemetry."""
    snapshots = [o.snapshot for o in outcomes if o.snapshot is not None]
    if not snapshots:
        return None
    kinds: Dict[str, str] = {}
    for snapshot in snapshots:
        for name, kind in snapshot.kinds.items():
            if kinds.setdefault(name, kind) != kind:
                raise ValueError(
                    f"instrument {name!r} has conflicting kinds across shards: "
                    f"{kinds[name]!r} vs {kind!r}"
                )
    return MetricsSnapshot(
        label=label,
        samples=merge_metrics(outcomes),
        kinds=kinds,
    )
