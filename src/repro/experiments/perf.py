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
``benchmarks/perf/run.py``.  The end-to-end §V-C run is not timed here:
``benchmarks/e2e`` is its benchmark, and ``benchmarks/perf/gate_e2e.py``
compares it with a base commit.
"""

from __future__ import annotations

import json
import logging
import math
import os
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.deadline import DeadlineEstimator
from ..core.kernels import reference
from ..core.matching.base import Matcher
from ..core.matching.metropolis import MetropolisMatcher, MetropolisParameters
from ..core.matching.react import ReactMatcher, ReactParameters
from ..core.matching.uniform import UniformMatcher
from ..graph.bipartite import BipartiteGraph
from ..model.task import TaskCategory
from ..model.worker import WorkerProfile
from ..model.worker_table import WorkerTable
from ..obs.registry import NULL_INSTRUMENT
from ..obs.trace import NULL_TRACER

if TYPE_CHECKING:
    from ..platform.dynamic_assignment import DynamicAssignmentComponent

logger = logging.getLogger(__name__)

#: RNG seed shared by every bench so runs are comparable across commits.
BENCH_SEED = 20130521  # IPDPS 2013 vintage

#: Shortest timed sample of :func:`_median_wall`: a faster call runs back to
#: back within one sample, so timer resolution and a single scheduler
#: preemption are spread over many calls.
MIN_SAMPLE_S = 0.05


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


def _median_wall(run: Callable[[], None], repeats: int) -> Tuple[float, int]:
    """Median wall per call over ``repeats`` samples, and the calls per sample.

    A warmup call absorbs one-time costs (lazy adjacency-cache builds, cold
    CPU caches), and its wall sizes the samples: each runs enough
    back-to-back calls to last at least :data:`MIN_SAMPLE_S`.
    """
    start = time.perf_counter()
    run()
    calls = max(1, math.ceil(MIN_SAMPLE_S / max(time.perf_counter() - start, 1e-9)))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            run()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples), calls


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

    ``uniform_match`` records the Traditional matcher the same way, on two
    shapes told apart by ``params["shape"]``: the worst-case full graph and
    a backlog (few free workers, many queued tasks), where the seed slice
    walk scans every free worker for every task.
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

        reference_wall, reference_calls = _median_wall(run_reference, repeats)
        matcher_wall, matcher_calls = _median_wall(run_matcher, repeats)
        for label, wall, calls in (
            ("reference", reference_wall, reference_calls),
            ("python", matcher_wall, matcher_calls),
        ):
            params: Dict[str, object] = {
                "matcher": name,
                "backend": label,
                "n_workers": n,
                "n_tasks": n,
                "n_edges": graph.n_edges,
                "cycles": cycles,
                "repeats": repeats,
                "calls_per_sample": calls,
                "cpu_count": os.cpu_count(),
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
    backlog = (10, 400) if quick else (20, 2000)
    for shape, (n_workers, n_tasks) in (("full", (n, n)), ("backlog", backlog)):
        results.extend(
            _uniform_records(_bench_graph(n_workers, n_tasks), shape, repeats, commit)
        )
    return results


def _uniform_records(
    graph: BipartiteGraph, shape: str, repeats: int, commit: str
) -> List[BenchResult]:
    """``UniformMatcher`` against the seed slice walk on one graph."""
    matcher = UniformMatcher()

    def run_reference() -> None:
        reference.uniform_match(
            graph.edge_workers,
            graph.edge_tasks,
            graph.n_workers,
            graph.n_tasks,
            np.random.default_rng(BENCH_SEED),
        )

    def run_matcher() -> None:
        matcher.match(graph, np.random.default_rng(BENCH_SEED))

    reference_wall, reference_calls = _median_wall(run_reference, repeats)
    matcher_wall, matcher_calls = _median_wall(run_matcher, repeats)
    matched = min(graph.n_workers, graph.n_tasks)
    results = []
    for label, wall, calls in (
        ("reference", reference_wall, reference_calls),
        ("python", matcher_wall, matcher_calls),
    ):
        params: Dict[str, object] = {
            "matcher": "uniform",
            "backend": label,
            "shape": shape,
            "n_workers": graph.n_workers,
            "n_tasks": graph.n_tasks,
            "n_edges": graph.n_edges,
            "repeats": repeats,
            "calls_per_sample": calls,
            "cpu_count": os.cpu_count(),
        }
        if label == "python":
            params["speedup_vs_reference"] = reference_wall / wall
        results.append(
            BenchResult(
                bench="uniform_match",
                params=params,
                wall_seconds=wall,
                throughput=matched / wall,
                commit=commit,
            )
        )
    return results


# ------------------------------------------------------------------ platform
def _trained_profiling(
    count: int, history: int, floor: float = 5.0, scale: float = 20.0
) -> WorkerTable:
    """Registered workers with heavy-tailed histories, as the estimator sees them."""
    rng = np.random.default_rng(BENCH_SEED)
    profiling = _registered([WorkerProfile(worker_id=i) for i in range(count)])
    for worker_id in range(count):
        for duration in floor + rng.pareto(2.5, size=history) * scale:
            profiling.complete(
                worker_id, float(duration), TaskCategory.GENERIC, positive_feedback=True
            )
    return profiling


def run_platform_benchmarks(quick: bool = False) -> List[BenchResult]:
    """Graph build and Eq. 2 / Eq. 3 batch-evaluation throughput."""
    n = 100 if quick else 400
    n_workers = 50 if quick else 200
    n_ttd = 64 if quick else 256
    history = 30
    repeats = 3 if quick else 5
    commit = git_commit()
    results: List[BenchResult] = []

    # Spatial weight matrix: broadcast haversine vs. the per-cell scalar
    # oracle it replaced (DistanceWeight.matrix_scalar).  Same seeded geo
    # scatter on both sides; the scalar wall is the speedup denominator.
    from ..core.weights import DistanceWeight
    from ..model.task import Task

    geo_rng = np.random.default_rng(BENCH_SEED)
    geo_workers = [
        WorkerProfile(
            worker_id,
            float(geo_rng.uniform(38.0, 38.2)),
            float(geo_rng.uniform(23.6, 23.8)),
        )
        for worker_id in range(n)
    ]
    geo_profiling = _registered(geo_workers)
    geo_rows = geo_profiling.rows(geo_profiling.available_slots())
    geo_tasks = [
        Task(
            latitude=float(geo_rng.uniform(38.0, 38.2)),
            longitude=float(geo_rng.uniform(23.6, 23.8)),
            deadline=60.0,
        )
        for _ in range(n)
    ]
    weight = DistanceWeight(max_km=10.0)
    scalar_wall, _ = _median_wall(
        lambda: weight.matrix_scalar(geo_workers, geo_tasks), repeats
    )
    wall, _ = _median_wall(lambda: weight.matrix(geo_rows, geo_tasks), repeats)
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

    # Eq. 3 matrix (graph-construction hot path) over worker table rows, as
    # the builder calls it.  Fits are warmed first so the record tracks
    # evaluation throughput, not one-off fitting cost.
    estimator = DeadlineEstimator(min_history=3)
    profiling = _trained_profiling(n_workers, history)
    workers = profiling.rows(profiling.available_slots())
    ttd = np.linspace(1.0, 300.0, n_ttd)

    def eq3() -> None:
        estimator.completion_probability_matrix(workers, ttd)

    wall, _ = _median_wall(eq3, repeats)
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

    wall, _ = _median_wall(eq2, repeats)
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
    results.append(_graph_build_bench(quick, commit))
    return results


def _registered(workers: List[WorkerProfile]) -> WorkerTable:
    """A worker table with ``workers`` registered, all available."""
    profiling = WorkerTable()
    for profile in workers:
        profiling.register(profile)
    return profiling


def _graph_build_bench(quick: bool, commit: str) -> BenchResult:
    """One Scheduling Component batch build at the §V-C shape.

    750 registered workers (histories of 0-30 durations, heavy-tailed, with
    Eq. 1 feedback), about 350 of them busy, and 9 tasks with 60-120 s
    deadlines: the batch shape of the §V-C REACT run (~400 available
    workers × 9 tasks).  One iteration is what ``_start_batch`` does before
    matching: gather the available slots, build the Eq. 3-pruned, Eq. 1
    weighted graph, and list the rows' worker ids.  The untimed warmup run
    makes the fits.
    """
    from ..core.weights import AccuracyWeight
    from ..graph.builders import AssignmentGraphBuilder
    from ..model.task import Task

    rng = np.random.default_rng(BENCH_SEED)
    registered = 750
    profiling = _registered([WorkerProfile(worker_id=i) for i in range(registered)])
    for worker_id in range(registered):
        for duration in 2.0 + rng.pareto(2.0, size=int(rng.integers(0, 31))) * 5.0:
            positive = bool(rng.random() < 0.7)
            profiling.assign(worker_id, task_id=0)
            profiling.complete(worker_id, float(duration), TaskCategory.GENERIC, positive)
    for worker_id in rng.choice(registered, size=350, replace=False).tolist():
        profiling.assign(worker_id, task_id=worker_id)
    tasks = [
        Task(latitude=0.0, longitude=0.0, deadline=float(deadline), submitted_at=0.0)
        for deadline in rng.uniform(60.0, 120.0, size=9)
    ]
    builder = AssignmentGraphBuilder(AccuracyWeight(), DeadlineEstimator(min_history=3), 0.1)
    iters = 100 if quick else 500
    repeats = 3 if quick else 5

    def build() -> None:
        for _ in range(iters):
            rows = profiling.rows(profiling.available_slots())
            builder.build(rows, tasks, now=5.0)
            rows.worker_ids.tolist()

    wall = _median_wall(build, repeats)[0] / iters
    available = profiling.n_available  # the rows each build reads
    return BenchResult(
        bench="graph_build",
        params={
            "registered": registered,
            "available": available,
            "n_tasks": len(tasks),
            "iters": iters,
            "repeats": repeats,
            "cpu_count": os.cpu_count(),
        },
        wall_seconds=wall,
        throughput=available * len(tasks) / wall,
        commit=commit,
    )


def _watched_rows(n_rows: int) -> "DynamicAssignmentComponent":
    """A real Eq. 2 monitor watching ``n_rows`` tasks assigned over a minute.

    Each row has its own trained worker (slow, heavy-tailed history) and a
    300 s window, so withdrawal horizons sit around a minute or two.
    """
    from ..model.task import Task
    from ..platform.dynamic_assignment import DynamicAssignmentComponent
    from ..platform.policies import react_policy
    from ..platform.task_management import TaskManagementComponent
    from ..sim.engine import Engine

    policy = react_policy()
    tasks = TaskManagementComponent()
    profiling = _trained_profiling(n_rows, history=30, floor=30.0, scale=60.0)
    monitor = DynamicAssignmentComponent(
        Engine(),
        policy,
        tasks,
        profiling,
        DeadlineEstimator(min_history=policy.min_history),
        on_withdraw=lambda task: None,
    )
    assigned_at = np.sort(np.random.default_rng(BENCH_SEED).uniform(0.0, 60.0, n_rows))
    for worker_id, at in enumerate(assigned_at.tolist()):
        task = Task(latitude=0.0, longitude=0.0, deadline=300.0, submitted_at=at)
        tasks.add_task(task)
        tasks.checkout_batch(at, assign_expired=True)
        assignment = tasks.commit_assignment(task, worker_id, at)
        profiling.assign(worker_id, task.task_id)
        monitor.track(assignment)
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

    disabled_wall, _ = _median_wall(lambda: run_endtoend(policy, config), repeats)

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
        f"{'bench':<22} {'detail':<18} {'wall (ms)':>10} {'throughput':>14} {'speedup':>8}"
    ]
    for r in results:
        # The detail column disambiguates records sharing a bench name: the
        # kernel label and graph shape of the matcher records.
        detail = str(r.params.get("backend", "-"))
        if "shape" in r.params:
            detail = f"{detail}:{r.params['shape']}"
        speedup = r.params.get("speedup_vs_reference")
        lines.append(
            f"{r.bench:<22} {detail:<18} {r.wall_seconds * 1e3:>10.2f} "
            f"{r.throughput:>14.0f} "
            f"{f'{speedup:.2f}x' if speedup is not None else '-':>8}"
        )
    return "\n".join(lines)


def run_bench(quick: bool = False, out_dir: Optional[Path] = None) -> str:
    """Run every bench, write BENCH_*.json, return the text report."""
    out_dir = repo_root() if out_dir is None else Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    logger.info("bench: matching suite")
    matching = run_matching_benchmarks(quick)
    logger.info("bench: platform suite")
    platform = run_platform_benchmarks(quick)
    platform.append(run_overhead_benchmark(quick))
    logger.info("bench: service gateway")
    service = [run_service_benchmark(quick)]
    written = [
        write_bench_file(out_dir / "BENCH_matching.json", matching),
        write_bench_file(out_dir / "BENCH_platform.json", platform),
        write_bench_file(out_dir / "BENCH_service.json", service),
    ]
    report = [
        "# Perf micro-benchmarks" + (" (--quick)" if quick else ""),
        format_report(matching + platform + service),
    ]
    report.extend(f"# wrote {p}" for p in written)
    return "\n".join(report)
