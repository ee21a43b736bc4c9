"""Sharded execution for the multi-policy experiments (docs/SCALING.md).

The package is the one runner of the §V-C comparison, the chaos twins, the
scenario pack and the Figs. 9-10 sweep: it compiles each into hermetic
simulation shards, runs them inline or across a ``spawn``-context process
pool, checkpoints each finished shard, and merges the outcomes in spec
order.

Determinism contract: for a given config and seed, the merged results and
every file a shard exports are bit-identical for every ``parallel`` value
and across kill-and-resume runs; ``parallel=1`` (inline, one shard after
the other) is the reference.  The contract holds because each shard builds
its own engine and ``RngRegistry`` from the config seed (nothing leaks
between shards), and the merge stage reassembles outcomes in canonical
spec order regardless of completion order.
"""

from .drivers import (
    ShardedRun,
    run_chaos_sharded,
    run_comparison_sharded,
    run_scalability_sharded,
    run_scenario_sharded,
)
from .executor import (
    ExecutionReport,
    execute_shards,
    load_checkpoint,
    write_checkpoint,
)
from .merge import merge_chaos, merge_endtoend, merge_scalability
from .shards import (
    ShardOutcome,
    ShardSpec,
    TelemetrySpec,
    fingerprint,
    safe_id,
)
from .worker import run_shard

__all__ = [
    "ExecutionReport",
    "ShardOutcome",
    "ShardSpec",
    "ShardedRun",
    "TelemetrySpec",
    "execute_shards",
    "fingerprint",
    "load_checkpoint",
    "merge_chaos",
    "merge_endtoend",
    "merge_scalability",
    "run_chaos_sharded",
    "run_comparison_sharded",
    "run_scalability_sharded",
    "run_scenario_sharded",
    "run_shard",
    "safe_id",
    "write_checkpoint",
]
