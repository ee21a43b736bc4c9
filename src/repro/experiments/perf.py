"""Perf-regression micro-benchmarks for the hot paths.

Times the three kernels the platform spends its wall-clock in — matcher
inner loops, graph construction/pruning, and the Eq. 2 / Eq. 3 batch
evaluators — and writes machine-readable baselines (``BENCH_matching.json``
and ``BENCH_platform.json`` at the repo root) so regressions show up as a
diff instead of a vague "the sweep feels slower".

Every record follows one schema::

    {"bench": ..., "params": {...}, "wall_seconds": ..., "throughput": ...,
     "commit": ...}

``wall_seconds`` is the median over ``repeats`` runs (the minimum is too
flattering on shared CI runners, the mean too noisy); ``throughput`` is the
bench-specific rate (cycles/s for matchers, edges/s for graph build,
cells/s or rows/s for the deadline evaluators).

Usage: ``python -m repro.experiments bench [--quick]`` or the thin driver
``benchmarks/perf/run.py``.
"""

from __future__ import annotations

import json
import logging
import os
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.deadline import DeadlineEstimator
from ..core.kernels import reference
from ..core.matching.base import Matcher
from ..core.matching.metropolis import MetropolisMatcher, MetropolisParameters
from ..core.matching.react import ReactMatcher, ReactParameters
from ..graph.bipartite import BipartiteGraph
from ..model.task import TaskCategory
from ..model.worker import WorkerProfile
from ..obs.registry import NULL_INSTRUMENT
from ..obs.trace import NULL_TRACER

if TYPE_CHECKING:
    from ..platform.dynamic_assignment import DynamicAssignmentComponent

logger = logging.getLogger(__name__)

#: RNG seed shared by every bench so runs are comparable across commits.
BENCH_SEED = 20130521  # IPDPS 2013 vintage


@dataclass
class BenchResult:
    """One benchmark measurement in the BENCH_*.json schema."""

    bench: str
    params: Dict[str, object]
    wall_seconds: float
    throughput: float
    commit: str = field(default="unknown")

    def to_dict(self) -> Dict[str, object]:
        return {
            "bench": self.bench,
            "params": self.params,
            "wall_seconds": self.wall_seconds,
            "throughput": self.throughput,
            "commit": self.commit,
        }


def git_commit(repo_root: Optional[Path] = None) -> str:
    """Current HEAD hash, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _median_wall(run: Callable[[], None], repeats: int) -> float:
    """Median wall-clock of ``repeats`` runs, after one untimed warmup.

    The warmup absorbs one-time costs that are not the steady-state rate we
    want to track: lazy adjacency-cache builds and cold CPU caches.
    """
    run()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _bench_graph(n_workers: int, n_tasks: int) -> BipartiteGraph:
    """The matcher workload: a seeded full bipartite graph (worst case)."""
    rng = np.random.default_rng(BENCH_SEED)
    return BipartiteGraph.full(rng.random((n_workers, n_tasks)))


# ------------------------------------------------------------------ matching
def run_matching_benchmarks(quick: bool = False) -> List[BenchResult]:
    """Matcher cycles/sec on the Fig. 3/4 worst-case graph.

    Each algorithm gets two records, told apart by ``params["backend"]``:
    ``python`` times the production matcher (pre-draws plus the optimised
    kernel), and ``reference`` times the seed loop kept verbatim in
    :mod:`repro.core.kernels.reference` on the same pre-draws.  The
    reference wall is the denominator of the ``speedup_vs_reference``
    recorded on the production record.
    """
    n = 50 if quick else 200
    cycles = 200 if quick else 1000
    repeats = 3 if quick else 5
    graph = _bench_graph(n, n)
    commit = git_commit()

    react = ReactParameters(cycles=cycles)
    metropolis = MetropolisParameters(cycles=cycles)
    cases: List[Tuple[str, Matcher, Callable[..., object], float]] = [
        ("react", ReactMatcher(react), reference.react_match, react.k_constant),
        (
            "metropolis",
            MetropolisMatcher(metropolis),
            reference.metropolis_match,
            metropolis.k_constant,
        ),
    ]

    results: List[BenchResult] = []
    for name, matcher, oracle, k_constant in cases:

        def run_reference() -> None:
            rng = np.random.default_rng(BENCH_SEED)
            picks = rng.integers(0, graph.n_edges, size=cycles)
            alphas = rng.random(cycles)
            oracle(
                graph.edge_workers,
                graph.edge_tasks,
                graph.edge_weights,
                graph.n_workers,
                graph.n_tasks,
                picks,
                alphas,
                1.0 / k_constant,
            )

        def run_matcher() -> None:
            matcher.match(graph, np.random.default_rng(BENCH_SEED))

        reference_wall = _median_wall(run_reference, repeats)
        matcher_wall = _median_wall(run_matcher, repeats)
        for label, wall in (("reference", reference_wall), ("python", matcher_wall)):
            params: Dict[str, object] = {
                "matcher": name,
                "backend": label,
                "n_workers": n,
                "n_tasks": n,
                "n_edges": graph.n_edges,
                "cycles": cycles,
                "repeats": repeats,
            }
            if label == "python":
                params["speedup_vs_reference"] = reference_wall / wall
            results.append(
                BenchResult(
                    bench=f"{name}_match",
                    params=params,
                    wall_seconds=wall,
                    throughput=cycles / wall,
                    commit=commit,
                )
            )
    return results


# ------------------------------------------------------------------ platform
def _trained_workers(
    count: int, history: int, floor: float = 5.0, scale: float = 20.0
) -> List[WorkerProfile]:
    """Workers with heavy-tailed histories, as the estimator sees them."""
    rng = np.random.default_rng(BENCH_SEED)
    workers = []
    for worker_id in range(count):
        profile = WorkerProfile(worker_id=worker_id)
        for duration in floor + rng.pareto(2.5, size=history) * scale:
            profile.record_completion(
                float(duration), TaskCategory.GENERIC, positive_feedback=True
            )
        workers.append(profile)
    return workers


def run_platform_benchmarks(quick: bool = False) -> List[BenchResult]:
    """Graph build/prune and Eq. 2 / Eq. 3 batch-evaluation throughput."""
    n = 100 if quick else 400
    n_workers = 50 if quick else 200
    n_ttd = 64 if quick else 256
    history = 30
    repeats = 3 if quick else 5
    commit = git_commit()
    results: List[BenchResult] = []

    # Graph construction + pruning: from_dense validation, the trusted
    # pruning path, and one adjacency query to force the CSR build.
    dense = np.random.default_rng(BENCH_SEED).random((n, n))

    def build() -> None:
        graph = BipartiteGraph.full(dense).prune_below(0.25)
        graph.edges_of_task(0)

    wall = _median_wall(build, repeats)
    results.append(
        BenchResult(
            bench="graph_build_prune",
            params={"n_workers": n, "n_tasks": n, "n_edges": n * n, "repeats": repeats},
            wall_seconds=wall,
            throughput=n * n / wall,
            commit=commit,
        )
    )

    # Spatial weight matrix: broadcast haversine vs. the per-cell scalar
    # oracle it replaced (DistanceWeight.matrix_scalar).  Same seeded geo
    # scatter on both sides; the scalar wall is the speedup denominator.
    from ..core.weights import DistanceWeight
    from ..model.task import Task

    geo_rng = np.random.default_rng(BENCH_SEED)
    geo_workers = []
    for worker_id in range(n):
        profile = WorkerProfile(worker_id=worker_id)
        profile.latitude = float(geo_rng.uniform(38.0, 38.2))
        profile.longitude = float(geo_rng.uniform(23.6, 23.8))
        geo_workers.append(profile)
    geo_tasks = [
        Task(
            latitude=float(geo_rng.uniform(38.0, 38.2)),
            longitude=float(geo_rng.uniform(23.6, 23.8)),
            deadline=60.0,
        )
        for _ in range(n)
    ]
    weight = DistanceWeight(max_km=10.0)
    scalar_wall = _median_wall(
        lambda: weight.matrix_scalar(geo_workers, geo_tasks), repeats
    )
    wall = _median_wall(lambda: weight.matrix(geo_workers, geo_tasks), repeats)
    results.append(
        BenchResult(
            bench="distance_weight",
            params={
                "n_workers": n,
                "n_tasks": n,
                "repeats": repeats,
                "scalar_wall_seconds": scalar_wall,
                "speedup_vs_reference": scalar_wall / wall if wall > 0 else 0.0,
            },
            wall_seconds=wall,
            throughput=n * n / wall,
            commit=commit,
        )
    )

    # Eq. 3 matrix (graph-construction hot path).  Fits are warmed first so
    # the record tracks evaluation throughput, not one-off fitting cost.
    estimator = DeadlineEstimator(min_history=3)
    workers = _trained_workers(n_workers, history)
    ttd = np.linspace(1.0, 300.0, n_ttd)

    def eq3() -> None:
        estimator.completion_probability_matrix(workers, ttd)

    wall = _median_wall(eq3, repeats)
    results.append(
        BenchResult(
            bench="eq3_matrix",
            params={
                "n_workers": n_workers,
                "n_ttd": n_ttd,
                "history": history,
                "repeats": repeats,
            },
            wall_seconds=wall,
            throughput=n_workers * n_ttd / wall,
            commit=commit,
        )
    )

    # Eq. 2 batch evaluator: one call per sweep, looped because a single
    # call is microseconds.  This is the estimator kernel only, ~10% of a
    # sweep's cost on the §V-C run (layer trace: dynamic.eq2_s 0.10 s vs
    # dynamic.sweep_self_s 0.88 s before the row index); monitor_sweep
    # below times the whole monitor.
    sweep_rng = np.random.default_rng(BENCH_SEED)
    elapsed = sweep_rng.uniform(0.0, 60.0, size=n_workers)
    windows = elapsed + sweep_rng.uniform(1.0, 120.0, size=n_workers)
    iters = 50 if quick else 200

    def eq2() -> None:
        for _ in range(iters):
            estimator.window_probability_batch(workers, elapsed, windows)

    wall = _median_wall(eq2, repeats)
    results.append(
        BenchResult(
            bench="eq2_sweep",
            params={
                "n_rows": n_workers,
                "iters": iters,
                "history": history,
                "repeats": repeats,
            },
            wall_seconds=wall,
            throughput=iters * n_workers / wall,
            commit=commit,
        )
    )
    results.append(_monitor_sweep_bench(quick, commit))
    return results


def _watched_rows(n_rows: int) -> "DynamicAssignmentComponent":
    """A real Eq. 2 monitor watching ``n_rows`` tasks assigned over a minute.

    Each row has its own trained worker (slow, heavy-tailed history) and a
    300 s window, so withdrawal horizons sit around a minute or two.
    """
    from ..model.task import Task
    from ..platform.dynamic_assignment import DynamicAssignmentComponent
    from ..platform.policies import react_policy
    from ..platform.profiling import ProfilingComponent
    from ..platform.task_management import TaskManagementComponent
    from ..sim.engine import Engine

    policy = react_policy()
    tasks = TaskManagementComponent()
    profiling = ProfilingComponent()
    monitor = DynamicAssignmentComponent(
        Engine(),
        policy,
        tasks,
        profiling,
        DeadlineEstimator(min_history=policy.min_history),
        on_withdraw=lambda task: None,
    )
    for profile in _trained_workers(n_rows, history=30, floor=30.0, scale=60.0):
        profiling.register(profile)
    assigned_at = np.sort(np.random.default_rng(BENCH_SEED).uniform(0.0, 60.0, n_rows))
    for worker_id, at in enumerate(assigned_at.tolist()):
        task = Task(latitude=0.0, longitude=0.0, deadline=300.0, submitted_at=at)
        tasks.add_task(task)
        tasks.checkout_batch(at, assign_expired=True)
        tasks.commit_assignment(task, worker_id, at)
        profiling.record_assignment(worker_id, task.task_id)
        monitor.track(task)
    return monitor


def _monitor_sweep_bench(quick: bool, commit: str) -> BenchResult:
    """The whole Eq. 2 monitor: ``ticks`` 1 Hz sweeps over ``n_rows`` rows.

    A fresh monitor is built for each repeat, because sweeps withdraw rows,
    and its first sweep (which computes every row's horizon) is untimed.
    ``withdrawn`` counts the rows that crossed their horizon and fired
    inside the timed window.
    """
    n_rows = 500 if quick else 2000
    ticks = 30 if quick else 60
    repeats = 3 if quick else 5
    samples = []
    withdrawn = 0
    for _ in range(repeats):
        monitor = _watched_rows(n_rows)
        monitor.sweep(60.0)
        armed = len(monitor.withdrawals)
        start = time.perf_counter()
        for tick in range(1, ticks + 1):
            monitor.sweep(60.0 + tick)
        samples.append(time.perf_counter() - start)
        withdrawn = len(monitor.withdrawals) - armed
    wall = statistics.median(samples)
    return BenchResult(
        bench="monitor_sweep",
        params={
            "n_rows": n_rows,
            "ticks": ticks,
            "withdrawn": withdrawn,
            "repeats": repeats,
        },
        wall_seconds=wall,
        throughput=n_rows * ticks / wall,
        commit=commit,
    )


# ---------------------------------------------------------------- obs guard
class _CountingInstrument:
    """No-op instrument that tallies how often the platform touches it."""

    __slots__ = ("_box",)

    def __init__(self, box: List[int]) -> None:
        self._box = box

    def labels(self, **labels: str) -> "_CountingInstrument":
        self._box[0] += 1
        return self

    def inc(self, amount: float = 1.0) -> None:
        self._box[0] += 1

    def dec(self, amount: float = 1.0) -> None:
        self._box[0] += 1

    def set(self, value: float) -> None:
        self._box[0] += 1

    def observe(self, value: float) -> None:
        self._box[0] += 1


class _CountingObservability:
    """Quacks like Observability but only counts instrument/tracer calls.

    Instrumented call sites are unconditional, so the number of live calls
    in an enabled run equals the number of no-op calls a disabled run makes
    on the same seed — this counts them exactly.
    """

    enabled = True

    def __init__(self) -> None:
        self.box = [0]
        self.tracer = self
        self.registry = self
        self._instrument = _CountingInstrument(self.box)

    # Observability facade
    def bind_engine(self, engine) -> "_CountingObservability":
        return self

    def export(self, name, trace_dir=None, metrics_dir=None) -> List[Path]:
        return []

    # registry facade
    def counter(self, name, help="", labelnames=(), **kwargs) -> _CountingInstrument:
        return self._instrument

    gauge = counter
    histogram = counter

    def add_collect_hook(self, hook) -> None:
        pass

    # tracer facade
    def set_clock(self, clock) -> None:
        pass

    def instant(self, name, cat="", tid=0, **args) -> None:
        self.box[0] += 1

    def complete(self, name, start, end=None, cat="", tid=0, **args) -> None:
        self.box[0] += 1


def _null_call_cost(iters: int = 100_000) -> float:
    """Per-call seconds of one disabled instrument touch (kwargs included)."""
    inc = NULL_INSTRUMENT.inc
    instant = NULL_TRACER.instant
    start = time.perf_counter()
    for _ in range(iters):
        inc()
        instant("x", cat="bench", tid=0, value=1)
    return (time.perf_counter() - start) / (2 * iters)


def run_overhead_benchmark(quick: bool = False) -> BenchResult:
    """The disabled-instrumentation overhead guard (docs/OBSERVABILITY.md).

    Runs the seeded end-to-end scenario once per repeat with observability
    off to get the baseline wall time, counts every obs touchpoint the same
    seeded run makes via :class:`_CountingObservability`, micro-benchmarks
    the cost of one no-op call, and reports

        overhead_fraction = obs_calls * null_call_seconds / disabled_wall

    ``tests/obs/test_overhead.py`` asserts the fraction stays <= 2%.
    """
    from ..platform.policies import react_policy
    from .config import EndToEndConfig
    from .endtoend import run_endtoend

    config = EndToEndConfig(
        n_workers=60,
        arrival_rate=1.0,
        n_tasks=150 if quick else 400,
        drain_time=200.0,
    )
    policy = react_policy(cycles=200)
    repeats = 2 if quick else 3

    disabled_wall = _median_wall(lambda: run_endtoend(policy, config), repeats)

    counting = _CountingObservability()
    start = time.perf_counter()
    run_endtoend(policy, config, observability=counting)
    counted_wall = time.perf_counter() - start
    obs_calls = counting.box[0]

    call_cost = _null_call_cost()
    overhead = obs_calls * call_cost / disabled_wall if disabled_wall > 0 else 0.0
    logger.info(
        "obs overhead: %d calls x %.1f ns / %.3f s disabled = %.4f%%",
        obs_calls, call_cost * 1e9, disabled_wall, overhead * 100,
    )
    return BenchResult(
        bench="endtoend_obs_overhead",
        params={
            "n_workers": config.n_workers,
            "n_tasks": config.n_tasks,
            "repeats": repeats,
            "obs_calls": obs_calls,
            "null_call_ns": call_cost * 1e9,
            "overhead_fraction": overhead,
            "counted_wall_seconds": counted_wall,
        },
        wall_seconds=disabled_wall,
        throughput=obs_calls / disabled_wall if disabled_wall > 0 else 0.0,
        commit=git_commit(),
    )


# -------------------------------------------------------------- parallelism
def run_parallel_benchmark(quick: bool = False, workers: Optional[int] = None) -> BenchResult:
    """1-vs-N-worker wall-clock on the sharded scalability sweep.

    Times :func:`repro.dist.run_scalability_sharded` at ``parallel=1`` and
    ``parallel=workers`` on the same sweep and records the speedup.  The
    speedup is hardware-bound — ``os.cpu_count`` is recorded in the params
    because a 1-core runner cannot show one regardless of shard count
    (shards then time-slice a single core and the pool only adds spawn and
    pickling overhead).
    """
    from ..dist import run_scalability_sharded
    from .config import ScalabilityConfig

    if workers is None:
        workers = 2 if quick else 4
    config = (
        ScalabilityConfig(
            worker_sizes=(50, 100),
            rates=(0.75, 1.5),
            duration=200.0,
            drain_time=200.0,
        )
        if quick
        else ScalabilityConfig(
            worker_sizes=(50, 100, 200),
            rates=(0.75, 1.5, 3.0),
            duration=300.0,
            drain_time=300.0,
        )
    )

    start = time.perf_counter()
    serial = run_scalability_sharded(config, parallel=1)
    serial_wall = time.perf_counter() - start

    start = time.perf_counter()
    sharded = run_scalability_sharded(config, parallel=workers)
    parallel_wall = time.perf_counter() - start

    if serial.results.points != sharded.results.points:
        raise RuntimeError("parallel sweep diverged from serial sweep")

    speedup = serial_wall / parallel_wall if parallel_wall > 0 else 0.0
    logger.info(
        "parallel bench: serial=%.2fs parallel(%d)=%.2fs speedup=%.2fx (cpus=%s)",
        serial_wall, workers, parallel_wall, speedup, os.cpu_count(),
    )
    return BenchResult(
        bench="scalability_parallel",
        params={
            "workers": workers,
            "cpu_count": os.cpu_count(),
            "shards": sharded.shard_count,
            "serial_wall_seconds": serial_wall,
            "speedup_vs_serial": speedup,
        },
        wall_seconds=parallel_wall,
        throughput=sharded.shard_count / parallel_wall if parallel_wall > 0 else 0.0,
        commit=git_commit(),
    )


# ------------------------------------------------------------- end-to-end
#: Sequential pre-cohort-engine driver baseline at the default comparison
#: workload (``EndToEndConfig()`` defaults x ``default_policies()``),
#: measured back-to-back with the optimized tree on the same host (stash
#: the working tree, time the old driver, pop, time the new one).  Pinned
#: here so BENCH_endtoend.json can report ``speedup_vs_pre_pr`` without
#: re-running the superseded driver on every bench invocation; re-measure
#: and update when the comparison workload changes.
PRE_PR_SEQUENTIAL_THROUGHPUT = 2032.0

PRE_PR_SEQUENTIAL: Dict[str, object] = {
    "commit": "b00b4832c94cfd39483e7a16aaaa19d29aa3ad3c",
    "wall_seconds": 7.68,
    "completed": 15601,
    "throughput": PRE_PR_SEQUENTIAL_THROUGHPUT,
}


def run_endtoend_throughput(
    quick: bool = False, parallel: Optional[int] = None
) -> List[BenchResult]:
    """Simulated task-completions/sec on the fixed seeded §V-C workload.

    Two variants over the same deterministic workload (``EndToEndConfig()``
    defaults, seed 42, the §V-C comparison policies):

    * ``sequential`` — ``run_endtoend`` per policy, one after another, the
      way ``python -m repro.experiments endtoend`` drives the comparison.
      One record per policy plus an aggregate whose ``throughput`` is total
      completed tasks over total wall time.
    * ``parallel`` — the same comparison through
      :func:`repro.dist.run_comparison_sharded` with one shard per policy
      (``parallel=0`` skips it).  The per-policy runs are independent, so
      on a host with at least one core per policy the comparison's wall
      collapses to the slowest single policy; a 1-core runner time-slices
      the shards and shows ~1x regardless, which is why ``cpu_count`` is
      recorded next to the speedup.

    Full (non-quick) records carry ``speedup_vs_pre_pr`` against
    :data:`PRE_PR_SEQUENTIAL`, plus a ``projected_parallel_speedup_vs_pre_pr``
    derived from the measured per-policy walls (total completions over the
    slowest policy's wall) — the number the parallel variant converges to
    once every shard has its own core.
    """
    from ..dist import run_comparison_sharded
    from .config import EndToEndConfig
    from .endtoend import default_policies, run_endtoend

    config = (
        EndToEndConfig(
            n_workers=60, arrival_rate=1.5, n_tasks=150, drain_time=150.0
        )
        if quick
        else EndToEndConfig()
    )
    policies = list(default_policies())
    repeats = 1 if quick else 3
    commit = git_commit()
    workload: Dict[str, object] = {
        "n_workers": config.n_workers,
        "n_tasks": config.n_tasks,
        "repeats": repeats,
    }
    results: List[BenchResult] = []

    walls: Dict[str, float] = {}
    sequential_runs: Dict[str, Any] = {}
    for policy in policies:

        def run(policy: Any = policy) -> None:
            sequential_runs[policy.name] = run_endtoend(policy, config)

        wall = _median_wall(run, repeats)
        walls[policy.name] = wall
        done = int(sequential_runs[policy.name].summary["completed"])
        results.append(
            BenchResult(
                bench="endtoend_throughput",
                params={
                    "variant": "sequential",
                    "policy": policy.name,
                    "completed": done,
                    **workload,
                },
                wall_seconds=wall,
                throughput=done / wall,
                commit=commit,
            )
        )

    total_wall = sum(walls.values())
    total_done = sum(
        int(r.summary["completed"]) for r in sequential_runs.values()
    )
    agg_params: Dict[str, object] = {
        "variant": "sequential",
        "policy": "all",
        "policies": [p.name for p in policies],
        "completed": total_done,
        "cpu_count": os.cpu_count(),
        **workload,
    }
    if not quick:
        agg_params["pre_pr"] = dict(PRE_PR_SEQUENTIAL)
        agg_params["speedup_vs_pre_pr"] = (
            total_done / total_wall
        ) / PRE_PR_SEQUENTIAL_THROUGHPUT
        agg_params["projected_parallel_speedup_vs_pre_pr"] = (
            total_done / max(walls.values())
        ) / PRE_PR_SEQUENTIAL_THROUGHPUT
    results.append(
        BenchResult(
            bench="endtoend_throughput",
            params=agg_params,
            wall_seconds=total_wall,
            throughput=total_done / total_wall,
            commit=commit,
        )
    )

    shards = len(policies) if parallel is None else parallel
    if shards > 0:
        box: Dict[str, Any] = {}

        def run_sharded() -> None:
            box["run"] = run_comparison_sharded(
                config, policies=policies, parallel=shards
            )

        wall = _median_wall(run_sharded, repeats)
        sharded = box["run"]
        for name, seq in sequential_runs.items():
            if sharded.results[name].summary != seq.summary:
                raise RuntimeError(
                    f"sharded comparison diverged from sequential for {name}"
                )
        params: Dict[str, object] = {
            "variant": "parallel",
            "policy": "all",
            "shards": sharded.shard_count,
            "completed": total_done,
            "cpu_count": os.cpu_count(),
            "speedup_vs_sequential": total_wall / wall if wall > 0 else 0.0,
            **workload,
        }
        if not quick:
            params["speedup_vs_pre_pr"] = (
                total_done / wall
            ) / PRE_PR_SEQUENTIAL_THROUGHPUT
        results.append(
            BenchResult(
                bench="endtoend_throughput",
                params=params,
                wall_seconds=wall,
                throughput=total_done / wall,
                commit=commit,
            )
        )
    logger.info(
        "endtoend bench: sequential %.2fs (%.0f completions/s)",
        total_wall, total_done / total_wall,
    )
    return results


def check_endtoend_regression(
    results: List[BenchResult],
    baseline_path: Path,
    tolerance: float = 0.2,
) -> List[str]:
    """Gate fresh end-to-end throughput against a committed baseline.

    Matches sequential-variant records on (policy, workload) and
    returns one failure string per match whose throughput fell more than
    ``tolerance`` below the committed number.  Parallel-variant records are
    informational only — their rate is a function of the measuring host's
    core count, not of the code.  When *nothing* matches (workload drift
    between the run and the baseline) a single failure is returned so the
    gate cannot pass vacuously.
    """
    records = json.loads(Path(baseline_path).read_text(encoding="utf-8"))

    def key(params: Dict[str, object]) -> tuple:
        return (
            params.get("policy"),
            params.get("n_workers"),
            params.get("n_tasks"),
        )

    baseline = {
        key(r["params"]): r
        for r in records
        if r.get("bench") == "endtoend_throughput"
        and r["params"].get("variant") == "sequential"
    }
    failures: List[str] = []
    compared = 0
    for r in results:
        if r.bench != "endtoend_throughput":
            continue
        if r.params.get("variant") != "sequential":
            continue
        base = baseline.get(key(r.params))
        if base is None:
            continue
        compared += 1
        floor = float(base["throughput"]) * (1.0 - tolerance)
        if r.throughput < floor:
            failures.append(
                f"endtoend_throughput[{r.params.get('policy')}]: "
                f"{r.throughput:.0f} completions/s is more than "
                f"{tolerance:.0%} below the committed "
                f"{float(base['throughput']):.0f}/s"
            )
    if compared == 0:
        failures.append(
            f"no records comparable to {baseline_path} "
            "(workload mismatch between run and baseline?)"
        )
    return failures


# -------------------------------------------------------------------- service
def run_service_benchmark(quick: bool = False) -> BenchResult:
    """Live-gateway round-trip throughput over real HTTP (docs/SERVICE.md).

    Boots the wall-clock :class:`~repro.service.gateway.ServiceGateway` on
    an ephemeral port and drives it with the closed-loop loadgen at the
    default healthy scenario (admission rate above the arrival rate, so a
    clean run sheds nothing).  ``throughput`` is admitted submits per wall
    second; the submit-to-answer latency percentiles ride along in params
    because a latency regression is the failure mode that matters for a
    real-time gateway, and raw request rate alone would hide it.

    Unlike the DES benches this one is genuinely wall-clock (sleeps,
    sockets, asyncio scheduling), so run-to-run jitter is higher; the
    scenario seed still pins arrivals and work times.
    """
    from .loadtest import LoadtestScenario, quick_scenario, run_loadtest

    scenario = quick_scenario() if quick else LoadtestScenario()
    report, summary = run_loadtest(scenario)
    stats = report.to_dict()
    logger.info(
        "service bench: %d admitted / %d completed in %.2fs (p95 %.3fs)",
        report.admitted, report.completed, report.wall_seconds,
        report.percentile(95) or 0.0,
    )
    return BenchResult(
        bench="service_gateway",
        params={
            "arrival_rate": scenario.arrival_rate,
            "duration": scenario.duration,
            "workers": scenario.workers,
            "time_scale": scenario.time_scale,
            "submitted": report.submitted,
            "admitted": report.admitted,
            "rejected": report.rejected,
            "completed": report.completed,
            "stale": report.stale,
            "errors": report.errors,
            "latency_p50": stats["latency_p50"],
            "latency_p95": stats["latency_p95"],
            "latency_p99": stats["latency_p99"],
            "middleware_on_time": summary.get("on_time_fraction", 0.0),
            "matcher_batches": int(summary.get("batches", 0)),
        },
        wall_seconds=report.wall_seconds,
        throughput=(
            report.admitted / report.wall_seconds if report.wall_seconds else 0.0
        ),
        commit=git_commit(),
    )


# ------------------------------------------------------------------- driver
def repo_root() -> Path:
    """Git toplevel if available, else the current directory."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return Path.cwd()
    return Path(out.stdout.strip()) if out.returncode == 0 else Path.cwd()


def write_bench_file(path: Path, results: List[BenchResult]) -> Path:
    path.write_text(
        json.dumps([r.to_dict() for r in results], indent=2) + "\n",
        encoding="utf-8",
    )
    return path


def format_report(results: List[BenchResult]) -> str:
    lines = [
        f"{'bench':<22} {'detail':<16} {'wall (ms)':>10} {'throughput':>14} {'speedup':>8}"
    ]
    for r in results:
        # The detail column disambiguates records sharing a bench name: the
        # kernel label for matcher records, variant/policy for end-to-end.
        detail = str(r.params.get("backend", "-"))
        if "variant" in r.params:
            detail = f"{str(r.params['variant'])[:3]}:{r.params.get('policy', 'all')}"
        speedup = r.params.get("speedup_vs_reference")
        if speedup is None:
            speedup = r.params.get("speedup_vs_pre_pr")
        lines.append(
            f"{r.bench:<22} {detail:<16} {r.wall_seconds * 1e3:>10.2f} "
            f"{r.throughput:>14.0f} "
            f"{f'{speedup:.2f}x' if speedup is not None else '-':>8}"
        )
    return "\n".join(lines)


def run_bench(
    quick: bool = False,
    out_dir: Optional[Path] = None,
    endtoend_parallel: Optional[int] = None,
) -> str:
    """Run every bench, write BENCH_*.json, return the text report."""
    out_dir = repo_root() if out_dir is None else Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    logger.info("bench: matching suite")
    matching = run_matching_benchmarks(quick)
    logger.info("bench: platform suite")
    platform = run_platform_benchmarks(quick)
    platform.append(run_overhead_benchmark(quick))
    logger.info("bench: parallel sweep")
    platform.append(run_parallel_benchmark(quick))
    logger.info("bench: end-to-end throughput")
    endtoend = run_endtoend_throughput(quick, parallel=endtoend_parallel)
    logger.info("bench: service gateway")
    service = [run_service_benchmark(quick)]
    written = [
        write_bench_file(out_dir / "BENCH_matching.json", matching),
        write_bench_file(out_dir / "BENCH_platform.json", platform),
        write_bench_file(out_dir / "BENCH_endtoend.json", endtoend),
        write_bench_file(out_dir / "BENCH_service.json", service),
    ]
    report = [
        "# Perf micro-benchmarks" + (" (--quick)" if quick else ""),
        format_report(matching + platform + endtoend + service),
    ]
    report.extend(f"# wrote {p}" for p in written)
    return "\n".join(report)
