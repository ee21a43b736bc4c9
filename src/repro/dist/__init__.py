"""Sharded parallel execution for experiment workloads (docs/SCALING.md).

The package fans hermetic simulation shards — per-policy end-to-end runs,
chaos twins, scalability sweep cells, seeded repetitions — across a
``spawn``-context process pool, checkpoints each finished shard, and
merges the outcomes back into the exact objects the sequential drivers
return.

Determinism contract: for a given config and seed, the merged results and
merged metrics snapshot are bit-identical for every ``parallel`` value
(including 1) and across kill-and-resume runs.  The contract holds because
each shard builds its own engine and ``RngRegistry`` from the config seed
(nothing leaks between shards), and the merge stage reassembles outcomes
in canonical spec order regardless of completion order.
"""

from .drivers import (
    ShardedRun,
    run_chaos_sharded,
    run_comparison_sharded,
    run_endtoend_repetitions,
    run_scalability_sharded,
    run_scenario_sharded,
)
from .executor import (
    ExecutionReport,
    execute_shards,
    load_checkpoint,
    write_checkpoint,
)
from .merge import (
    merge_chaos,
    merge_endtoend,
    merge_metrics,
    merge_scalability,
    merged_snapshot,
)
from .shards import (
    MetricsSnapshot,
    ShardOutcome,
    ShardSpec,
    TelemetrySpec,
    fingerprint,
    safe_id,
)
from .worker import run_shard

__all__ = [
    "ExecutionReport",
    "MetricsSnapshot",
    "ShardOutcome",
    "ShardSpec",
    "ShardedRun",
    "TelemetrySpec",
    "execute_shards",
    "fingerprint",
    "load_checkpoint",
    "merge_chaos",
    "merge_endtoend",
    "merge_metrics",
    "merge_scalability",
    "merged_snapshot",
    "run_chaos_sharded",
    "run_comparison_sharded",
    "run_endtoend_repetitions",
    "run_scalability_sharded",
    "run_scenario_sharded",
    "run_shard",
    "safe_id",
    "write_checkpoint",
]
