"""Figure-report rendering: prints the rows/series the paper's figures plot.

Each ``report_*`` function takes the corresponding experiment result and
returns a plain-text report whose numbers can be compared line-by-line with
the published figure; the CLI and the benchmark suites print these.
"""

from __future__ import annotations

from typing import Dict, List

from ..stats.summaries import downsample, format_table
from .ablations import AblationResult, CyclesPoint, KPoint, ScalarPoint
from .endtoend import EndToEndResult
from .matching_bench import MatchingSweepResult
from .scalability import ScalabilityResult


def report_fig3(result: MatchingSweepResult) -> str:
    """Fig. 3: matching execution time vs. number of tasks."""
    rows = []
    for p in sorted(result.points, key=lambda p: (p.algorithm, p.cycles, p.n_tasks)):
        label = f"{p.algorithm}@{p.cycles}" if p.cycles else p.algorithm
        rows.append(
            (label, p.n_tasks, f"{p.wall_seconds*1e3:.2f}", f"{p.model_seconds:.3f}")
        )
    table = format_table(
        ["algorithm", "tasks", "measured_ms", "paper_model_s"], rows
    )
    return (
        "# Fig. 3 — matching execution time (1000 workers, full graph)\n"
        "# paper anchors: greedy@1000 tasks = 99.7 s; react/metropolis = 12 s"
        " @1000 cycles, 45 s @3000 cycles\n" + table
    )


def report_fig4(result: MatchingSweepResult) -> str:
    """Fig. 4: matching output (Σ weights) vs. number of tasks."""
    rows = []
    for p in sorted(result.points, key=lambda p: (p.algorithm, p.cycles, p.n_tasks)):
        label = f"{p.algorithm}@{p.cycles}" if p.cycles else p.algorithm
        rows.append((label, p.n_tasks, f"{p.output_weight:.2f}", p.matched))
    table = format_table(["algorithm", "tasks", "output", "matched"], rows)
    return (
        "# Fig. 4 — matching output (weights U[0,1]; optimum <= #tasks)\n"
        "# paper shape: greedy ~ optimal; react > metropolis at equal cycles\n"
        + table
    )


def _cumulative_rows(series: List[tuple[int, int]], points: int = 15):
    return [(x, y) for x, y in downsample(series, points)] if series else []


def report_endtoend(results: Dict[str, EndToEndResult]) -> str:
    """Headline table for the ``endtoend`` command (Figs. 5-8 source data).

    Shared by the sequential and sharded (``--parallel``) paths, so both
    render byte-identical reports for identical results.
    """
    lines = [
        "# End-to-end run (Figs. 5-8 source data)",
        f"{'policy':<14}{'received':>9}{'completed':>10}{'on-time':>9}"
        f"{'feedback':>9}{'reassign':>9}{'batches':>8}",
    ]
    for name, result in results.items():
        summary = result.summary
        lines.append(
            f"{name:<14}"
            f"{int(summary['received']):>9d}"
            f"{int(summary['completed']):>10d}"
            f"{summary['on_time_fraction']:>8.1%}"
            f"{summary['positive_feedback_fraction']:>8.1%}"
            f"{int(summary['reassignments']):>9d}"
            f"{result.batches:>8d}"
        )
    return "\n".join(lines)


def report_retainer(results: Dict[str, EndToEndResult]) -> str:
    """Retainer comparison: latency and spend, REACT vs REACT + retainer.

    Both runs share one marketplace workload (same seed ⇒ same task and
    worker arrival traces); the table shows what banking arrivals on a paid
    retainer buys (p95 submission→completion latency) and what it costs.
    """
    lines = [
        "# Retainer comparison — marketplace mode (docs/RETAINER.md)",
        "# model: Bernstein et al. retainer; analytic baselines in"
        " repro.retainer.analytic",
        f"{'policy':<16}{'completed':>10}{'on-time':>9}{'p95_total':>11}"
        f"{'avg_total':>11}{'wage':>9}{'cost/task':>11}",
    ]
    for name, result in results.items():
        summary = result.summary
        retainer = result.retainer
        p95 = f"{result.p95_total_time:.1f}" if result.p95_total_time else "n/a"
        avg = f"{result.avg_total_time:.1f}" if result.avg_total_time else "n/a"
        wage = f"{retainer.wage_cost:.2f}" if retainer else "0.00"
        cpc = f"{retainer.cost_per_completed:.4f}" if retainer else "n/a"
        lines.append(
            f"{name:<16}"
            f"{int(summary['completed']):>10d}"
            f"{summary['on_time_fraction']:>8.1%}"
            f"{p95:>11}"
            f"{avg:>11}"
            f"{wage:>9}"
            f"{cpc:>11}"
        )
    for name, result in results.items():
        retainer = result.retainer
        if retainer is None or retainer.pool_capacity == 0:
            continue
        lines.append(
            f"# {name}: pool={retainer.pool_capacity}"
            f" retained={retainer.workers_retained}"
            f" walk-ins={retainer.walk_ins}"
            f" releases={retainer.releases}"
            f" re-pooled={retainer.repooled}"
            f" departures={retainer.patience_departures}"
        )
    return "\n".join(lines)


def report_fig5(results: Dict[str, EndToEndResult]) -> str:
    """Fig. 5: cumulative tasks finished before deadline."""
    blocks = ["# Fig. 5 — tasks finished before deadline vs. tasks received"]
    blocks.append(
        "# paper anchors (750 workers, 9.375 tasks/s, 8371 tasks): "
        "react 6091 on-time; traditional 4264; greedy rises then collapses"
    )
    for name, result in results.items():
        rows = _cumulative_rows(result.deadline_series)
        blocks.append(
            f"\n## {name}: on_time={result.summary['completed_on_time']:.0f}"
            f"/{result.summary['received']:.0f}"
            f" ({result.summary['on_time_fraction']:.1%})\n"
            + format_table(["received", "on_time"], rows)
        )
    return "\n".join(blocks)


def report_fig6(results: Dict[str, EndToEndResult]) -> str:
    """Fig. 6: cumulative positive feedbacks."""
    blocks = ["# Fig. 6 — positive feedbacks vs. tasks received"]
    blocks.append("# paper anchors: react 4941 positive; traditional 3066")
    for name, result in results.items():
        rows = _cumulative_rows(result.feedback_series)
        blocks.append(
            f"\n## {name}: positive={result.summary['positive_feedbacks']:.0f}"
            f" ({result.summary['positive_feedback_fraction']:.1%})\n"
            + format_table(["received", "positive"], rows)
        )
    return "\n".join(blocks)


def report_fig7(results: Dict[str, EndToEndResult]) -> str:
    """Fig. 7: average execution time at the final worker."""
    rows = [
        (name, f"{r.avg_worker_time:.2f}" if r.avg_worker_time else "n/a")
        for name, r in results.items()
    ]
    return (
        "# Fig. 7 — average execution time per worker (final worker only)\n"
        "# paper shape: react shortest; traditional worst (no reaction to delays)\n"
        + format_table(["technique", "avg_worker_time_s"], rows)
    )


def report_fig8(results: Dict[str, EndToEndResult]) -> str:
    """Fig. 8: average total time including queueing and reassignment."""
    rows = [
        (name, f"{r.avg_total_time:.2f}" if r.avg_total_time else "n/a")
        for name, r in results.items()
    ]
    return (
        "# Fig. 8 — average total execution time (submission -> completion)\n"
        "# paper shape: react lowest despite reassignments; greedy queueing"
        " inflates it; traditional worst\n"
        + format_table(["technique", "avg_total_time_s"], rows)
    )


def report_fig9(result: ScalabilityResult) -> str:
    """Fig. 9: % tasks before deadline vs. graph size."""
    rows = [
        (p.policy_name, p.n_workers, p.arrival_rate, f"{p.on_time_fraction:.1%}")
        for p in result.points
    ]
    return (
        "# Fig. 9 — % of tasks before deadline vs. graph size\n"
        "# paper shape: greedy best at size 100, 16% at size 1000;"
        " react mildly degraded; traditional flat\n"
        + format_table(["technique", "workers", "rate", "on_time"], rows)
    )


def report_fig10(result: ScalabilityResult) -> str:
    """Fig. 10: % positive feedback vs. graph size."""
    rows = [
        (
            p.policy_name,
            p.n_workers,
            p.arrival_rate,
            f"{p.positive_feedback_fraction:.1%}",
        )
        for p in result.points
    ]
    return (
        "# Fig. 10 — % positive feedback vs. graph size\n"
        "# paper shape: proportional to Fig. 9 for every technique\n"
        + format_table(["technique", "workers", "rate", "positive_fb"], rows)
    )


def report_ablation(result: AblationResult) -> str:
    """Generic ablation table (cycles / threshold / z / K)."""
    if not result.points:
        return f"# ablation {result.name}: no points"
    first = result.points[0]
    if isinstance(first, CyclesPoint):
        rows = [
            (
                p.cycles,
                "adaptive" if p.adaptive else "fixed",
                f"{p.output_weight:.2f}",
                f"{p.optimality:.1%}",
            )
            for p in result.points
        ]
        headers = ["cycles", "mode", "output", "optimality"]
    elif isinstance(first, KPoint):
        rows = [
            (p.k_constant, p.cycles, f"{p.output_weight:.2f}", f"{p.optimality:.1%}")
            for p in result.points
        ]
        headers = ["K", "cycles", "output", "optimality"]
    elif isinstance(first, ScalarPoint):
        rows = [
            (
                p.value,
                f"{p.on_time_fraction:.1%}",
                f"{p.positive_feedback_fraction:.1%}",
                p.reassignments,
            )
            for p in result.points
        ]
        headers = [result.name, "on_time", "positive_fb", "reassignments"]
    else:  # pragma: no cover - exhaustive over point types
        raise TypeError(f"unknown point type {type(first).__name__}")
    return f"# ablation: {result.name}\n" + format_table(headers, rows)
