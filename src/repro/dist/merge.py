"""Merge stage: fold shard outcomes into the results the reports read.

Every merge here is pure reassembly of hermetic shard results in canonical
spec order, which :func:`repro.dist.executor.execute_shards` guarantees.
So the determinism contract (same seed ⇒ bit-identical merged results for
any ``--parallel``, the inline ``parallel=1`` run included) reduces to the
hermeticity of each shard.

Telemetry is not merged: each shard's worker writes its own trace and
metrics files (:mod:`repro.dist.worker`).
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from ..experiments.chaos import ChaosRunResult
from ..experiments.config import ScalabilityConfig
from ..experiments.scalability import ScalabilityResult
from .shards import ShardOutcome


def merge_endtoend(outcomes: Sequence[ShardOutcome]) -> Dict[str, Any]:
    """Rebuild a per-policy comparison dict, keyed and ordered by policy.

    Serves both ``run_comparison_sharded`` (:class:`EndToEndResult` values)
    and ``run_scenario_sharded`` (:class:`ScenarioResult` values): each
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
    """Rebuild the ``{policy: {"clean": ..., "faulted": ...}}`` chaos dict."""
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
    """Rebuild the sweep result; outcome order is the sweep order."""
    result = ScalabilityResult(config=config)
    for outcome in outcomes:
        result.points.append(outcome.result)
    return result
