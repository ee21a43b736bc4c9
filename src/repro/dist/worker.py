"""Shard execution: runs one :class:`~repro.dist.shards.ShardSpec`.

:func:`run_shard` is a module-level function so it pickles across the
``spawn`` boundary of a :class:`concurrent.futures.ProcessPoolExecutor`.
It calls the spec's runner — an experiment entry point that re-creates
the same hermetic simulation the sequential driver would have run: fresh
engine, fresh ``RngRegistry`` seeded from the shard's config, task-id
counter reset inside the entry point — so a shard's result is
bit-identical whether it runs inline, in a pool, or on a different day.

Telemetry is worker-owned: when the spec carries an enabled
:class:`~repro.dist.shards.TelemetrySpec`, the worker builds its own
``Observability``, passes it to the runner, exports the trace/metrics
files itself (the exporters are deterministic in the run), and ships the
registry back as a plain-sample :class:`~repro.dist.shards.MetricsSnapshot`
for the merge stage.
"""

from __future__ import annotations

from ..obs.runtime import Observability
from .shards import MetricsSnapshot, ShardOutcome, ShardSpec


def run_shard(spec: ShardSpec) -> ShardOutcome:
    """Execute one shard (the pool's entry point; must stay module-level)."""
    telemetry = spec.telemetry
    if telemetry is None or not telemetry.enabled:
        return ShardOutcome(shard_id=spec.shard_id, result=spec.runner(**spec.kwargs))

    obs = Observability()
    result = spec.runner(**spec.kwargs, observability=obs)
    written = [
        str(path)
        for path in obs.export(
            f"{telemetry.prefix}_{spec.label}",
            trace_dir=telemetry.trace_dir,
            metrics_dir=telemetry.metrics_dir,
        )
    ]
    snapshot = MetricsSnapshot(
        label=spec.label,
        samples=obs.registry.snapshot(),
        kinds={inst.name: inst.kind for inst in obs.registry.instruments()},
    )
    return ShardOutcome(
        shard_id=spec.shard_id, result=result, snapshot=snapshot, written=written
    )


__all__ = ["run_shard"]
