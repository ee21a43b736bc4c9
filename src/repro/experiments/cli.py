"""Command-line entry point: ``python -m repro.experiments <figure>``.

Regenerates any figure of the paper (or an ablation/case-study report) and
prints the corresponding text report.  ``--quick`` shrinks every workload to
a laptop-friendly size while preserving the qualitative shapes; the full
paper-scale runs are the defaults.  ``--out DIR`` additionally writes the
raw series as CSV/JSON into ``DIR`` (figures 3-10 only).

Telemetry (docs/OBSERVABILITY.md): the ``endtoend`` and ``chaos`` commands
accept ``--trace-out DIR`` / ``--metrics-out DIR`` to record a sim-time
Chrome trace and a Prometheus/CSV metrics snapshot per run, and
``python -m repro.experiments obs ...`` summarizes or converts a recorded
trace.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Callable, Dict, List, Optional

import numpy as np

from ..dist import (
    ShardedRun,
    TelemetrySpec,
    run_chaos_sharded,
    run_comparison_sharded,
    run_scalability_sharded,
    run_scenario_sharded,
)
from ..workload.crowdflower import analyze_case_study, generate_case_study
from .ablations import ablate_cycles, ablate_k_constant, ablate_threshold, ablate_training_z
from .chaos import ChaosConfig, report_chaos, standard_schedule
from ..platform.policies import RetainerSpec
from .config import EndToEndConfig, MatchingSweepConfig, ScalabilityConfig
from .endtoend import retainer_policies, run_comparison
from .export import (
    export_endtoend,
    export_matching_sweep,
    export_retainer,
    export_scalability,
)
from .voting import VotingConfig, report_voting, run_voting_comparison
from .loadtest import LoadtestScenario, format_loadtest, quick_scenario, run_loadtest
from .matching_bench import run_matching_sweep
from .perf import run_bench
from .reporting import (
    report_ablation,
    report_endtoend,
    report_retainer,
    report_fig3,
    report_fig4,
    report_fig5,
    report_fig6,
    report_fig7,
    report_fig8,
    report_fig9,
    report_fig10,
)
from .scenario import ScenarioConfig, report_scenario


def _matching_config(quick: bool) -> MatchingSweepConfig:
    if quick:
        return MatchingSweepConfig(
            n_workers=200, task_counts=(1, 50, 100, 200), cycles_settings=(200, 600)
        )
    return MatchingSweepConfig()


def _endtoend_config(quick: bool) -> EndToEndConfig:
    if quick:
        return EndToEndConfig(
            n_workers=150, arrival_rate=1.875, n_tasks=1600, drain_time=400
        )
    return EndToEndConfig()


def _marketplace_config(quick: bool) -> EndToEndConfig:
    """Marketplace-mode workload for the retainer comparison.

    Workers arrive over time instead of pre-connecting; both policies of
    the comparison face the identical (seeded) arrival traces.
    """
    if quick:
        return EndToEndConfig(
            n_workers=120, arrival_rate=2.0, n_tasks=400, drain_time=200,
            arrival_process="poisson",
            worker_arrival_rate=0.5, worker_patience=30.0,
        )
    return EndToEndConfig(
        n_workers=750, arrival_rate=9.375, n_tasks=8371, drain_time=600,
        arrival_process="poisson",
        worker_arrival_rate=1.5, worker_patience=30.0,
    )


def _scalability_config(quick: bool) -> ScalabilityConfig:
    if quick:
        return ScalabilityConfig(
            worker_sizes=(50, 100, 200),
            rates=(0.75, 1.5, 3.0),
            duration=300.0,
            drain_time=300.0,
        )
    return ScalabilityConfig()


def _scenario_config(quick: bool) -> ScenarioConfig:
    # The quick variant keeps the same saturation ratio as the default
    # (verified empirically: every policy still performs region splits,
    # cross-region migrations, and budget shedding).
    if quick:
        return ScenarioConfig(
            n_tasks=150, n_workers=50, horizon=150.0, requester_budget=0.3
        )
    return ScenarioConfig()


def _maybe_export(out: Optional[str], writer, *args) -> str:
    if out is None:
        return ""
    written = writer(*args)
    paths = written if isinstance(written, list) else [written]
    return "\n".join(f"# wrote {p}" for p in paths)


def _run_fig3(quick: bool, out: Optional[str] = None) -> str:
    sweep = run_matching_sweep(_matching_config(quick))
    note = _maybe_export(out, export_matching_sweep, sweep, f"{out}/fig3_4.csv" if out else "")
    return report_fig3(sweep) + ("\n" + note if note else "")


def _run_fig4(quick: bool, out: Optional[str] = None) -> str:
    sweep = run_matching_sweep(_matching_config(quick))
    note = _maybe_export(out, export_matching_sweep, sweep, f"{out}/fig3_4.csv" if out else "")
    return report_fig4(sweep) + ("\n" + note if note else "")


def _endtoend_report(quick: bool, out: Optional[str], report) -> str:
    results = run_comparison(_endtoend_config(quick))
    note = _maybe_export(out, export_endtoend, results, out or "")
    return report(results) + ("\n" + note if note else "")


def _run_fig5(quick: bool, out: Optional[str] = None) -> str:
    return _endtoend_report(quick, out, report_fig5)


def _run_fig6(quick: bool, out: Optional[str] = None) -> str:
    return _endtoend_report(quick, out, report_fig6)


def _run_fig7(quick: bool, out: Optional[str] = None) -> str:
    return _endtoend_report(quick, out, report_fig7)


def _run_fig8(quick: bool, out: Optional[str] = None) -> str:
    return _endtoend_report(quick, out, report_fig8)


def _sharded_notes(run: ShardedRun) -> List[str]:
    notes = [f"# wrote {path}" for path in run.written]
    if run.resumed:
        notes.append(
            f"# resumed {run.resumed} shard(s) from checkpoint, "
            f"computed {run.computed}"
        )
    return notes


def _run_scalability_report(
    quick: bool,
    out: Optional[str],
    report,
    parallel: Optional[int],
    resume: Optional[str],
) -> str:
    run = run_scalability_sharded(
        _scalability_config(quick), parallel=parallel or 1, checkpoint_dir=resume
    )
    result = run.results
    notes = _sharded_notes(run)
    note = _maybe_export(out, export_scalability, result, f"{out}/fig9_10.csv" if out else "")
    if note:
        notes.insert(0, note)
    return report(result) + ("\n" + "\n".join(notes) if notes else "")


def _run_fig9(
    quick: bool,
    out: Optional[str] = None,
    parallel: Optional[int] = None,
    resume: Optional[str] = None,
) -> str:
    return _run_scalability_report(quick, out, report_fig9, parallel, resume)


def _run_fig10(
    quick: bool,
    out: Optional[str] = None,
    parallel: Optional[int] = None,
    resume: Optional[str] = None,
) -> str:
    return _run_scalability_report(quick, out, report_fig10, parallel, resume)


def _run_case_study(quick: bool, out: Optional[str] = None) -> str:
    rng = np.random.default_rng(13)
    report = analyze_case_study(generate_case_study(rng, n_responses=200 if quick else 2000))
    lines = [
        "# CrowdFlower case study (synthetic trace; paper §V-C anchors)",
        f"responses:                 {report.n_responses}",
        f"median response:           {report.median_response_seconds:.1f} s (paper: ~20 s)",
        f"fraction under 20 s:       {report.fraction_under_20s:.1%} (paper: 50%)",
        f"p90 response:              {report.p90_response_seconds:.1f} s",
        f"max response:              {report.max_response_seconds/3600:.2f} h (paper: up to 6 h)",
        f"trust > 0.5:               {report.fraction_trust_above_half:.1%} (paper: 70%)",
        f"recommended deadline:      {report.recommended_deadline_range} s (paper: 60-120 s)",
    ]
    return "\n".join(lines)


def _run_voting(quick: bool, out: Optional[str] = None) -> str:
    config = (
        VotingConfig(n_workers=80, arrival_rate=0.4, n_tasks=500,
                     replication_levels=(1, 3))
        if quick
        else VotingConfig()
    )
    return report_voting(run_voting_comparison(config))


def _run_endtoend(
    quick: bool,
    out: Optional[str] = None,
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    parallel: Optional[int] = None,
    resume: Optional[str] = None,
    retainer_size: Optional[int] = None,
    retainer_cost: Optional[float] = None,
    retainer_adaptive: bool = False,
) -> str:
    # --retainer-size/--retainer-cost/--retainer-adaptive switch the run to
    # the marketplace retainer comparison (REACT vs REACT + retainer;
    # docs/RETAINER.md).
    with_retainer = (
        retainer_size is not None or retainer_cost is not None or retainer_adaptive
    )
    if with_retainer:
        spec = RetainerSpec(
            size=retainer_size if retainer_size is not None else RetainerSpec().size,
            wage_per_second=(
                retainer_cost
                if retainer_cost is not None
                else RetainerSpec().wage_per_second
            ),
            adaptive=retainer_adaptive,
        )
        config = _marketplace_config(quick)
        policies = retainer_policies(spec)
        reporter, exporter = report_retainer, export_retainer
    else:
        config = _endtoend_config(quick)
        policies = None
        reporter, exporter = report_endtoend, export_endtoend
    run = run_comparison_sharded(
        config,
        policies=policies,
        parallel=parallel or 1,
        checkpoint_dir=resume,
        telemetry=TelemetrySpec(
            prefix="endtoend", trace_dir=trace_out, metrics_dir=metrics_out
        ),
    )
    results = run.results
    lines = [reporter(results)]
    note = _maybe_export(out, exporter, results, out or "")
    if note:
        lines.append(note)
    lines.extend(_sharded_notes(run))
    return "\n".join(lines)


def _run_chaos(
    quick: bool,
    out: Optional[str] = None,
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    parallel: Optional[int] = None,
    resume: Optional[str] = None,
) -> str:
    config = (
        ChaosConfig(n_workers=50, arrival_rate=0.8, n_tasks=240, drain_time=250.0)
        if quick
        else ChaosConfig()
    )
    run = run_chaos_sharded(
        config,
        schedule=standard_schedule(config),
        parallel=parallel or 1,
        checkpoint_dir=resume,
        telemetry=TelemetrySpec(
            prefix="chaos", trace_dir=trace_out, metrics_dir=metrics_out
        ),
    )
    notes = _sharded_notes(run)
    return report_chaos(run.results) + ("\n" + "\n".join(notes) if notes else "")


def _run_scenario(
    quick: bool,
    out: Optional[str] = None,
    parallel: Optional[int] = None,
    resume: Optional[str] = None,
) -> str:
    # Budgets x hot-region skew x heterogeneous tasks against the
    # related-work baselines (docs/EXPERIMENTS.md, "Scenario pack").
    run = run_scenario_sharded(
        _scenario_config(quick), parallel=parallel or 1, checkpoint_dir=resume
    )
    notes = _sharded_notes(run)
    return report_scenario(run.results) + ("\n" + "\n".join(notes) if notes else "")


def _run_loadtest(quick: bool, out: Optional[str] = None) -> str:
    # Wall-clock run: boots the repro.service gateway on an ephemeral port
    # and drives it over real HTTP (docs/SERVICE.md).  No --out series.
    scenario = quick_scenario() if quick else LoadtestScenario()
    report, summary = run_loadtest(scenario)
    return format_loadtest(scenario, report, summary)


def _run_bench(quick: bool, out: Optional[str] = None) -> str:
    # BENCH_*.json go to the repo root (the perf-regression baseline files)
    # unless --out redirects them, e.g. for scratch comparisons.
    return run_bench(quick, out_dir=out)


def _run_ablations(quick: bool, out: Optional[str] = None) -> str:
    blocks = [
        report_ablation(ablate_cycles()),
        report_ablation(ablate_k_constant()),
    ]
    if not quick:
        blocks.append(report_ablation(ablate_threshold()))
        blocks.append(report_ablation(ablate_training_z()))
    return "\n\n".join(blocks)


COMMANDS: Dict[str, Callable[..., str]] = {
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "fig9": _run_fig9,
    "fig10": _run_fig10,
    "case-study": _run_case_study,
    "ablations": _run_ablations,
    "voting": _run_voting,
    "endtoend": _run_endtoend,
    "chaos": _run_chaos,
    "scenario": _run_scenario,
    "bench": _run_bench,
    "loadtest": _run_loadtest,
}

#: Commands that understand --trace-out / --metrics-out (the rest reject
#: the flags so a typo doesn't silently record nothing).
TRACEABLE = ("endtoend", "chaos")

#: Commands that run as repro.dist shards: inline by default, over a process
#: pool with --parallel N, checkpointed with --resume (docs/SCALING.md).
#: fig9/fig10 are the scalability sweep.
PARALLEL_COMMANDS = ("endtoend", "chaos", "fig9", "fig10", "scenario")

#: Commands that understand --retainer-size / --retainer-cost
#: (the marketplace retainer comparison; docs/RETAINER.md).
RETAINER_COMMANDS = ("endtoend",)


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "obs":
        # Trace-file utilities live in their own argparse tree.
        from ..obs.cli import main as obs_main

        return obs_main(list(argv[1:]))
    if argv and argv[0] == "lint":
        # reprolint (docs/STATIC_ANALYSIS.md) also answers to
        # ``python -m repro.analysis``; this alias keeps every project
        # tool reachable from the one experiments entry point.
        from ..analysis.cli import main as lint_main

        return lint_main(list(argv[1:]))

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the figures of 'Crowdsourcing under Real-Time Constraints'.",
        epilog="'obs' (python -m repro.experiments obs --help) summarizes "
        "or converts recorded trace files; 'lint' (python -m repro.experiments "
        "lint --help) runs the reprolint static-analysis gate.",
    )
    parser.add_argument("figure", choices=sorted(COMMANDS) + ["all"])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink workloads for a fast qualitative run",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also write raw series (CSV/JSON) into DIR",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="DIR",
        help="record a sim-time trace per run into DIR "
        f"(Chrome JSON + JSONL; {'/'.join(TRACEABLE)} only)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="DIR",
        help="write a metrics snapshot per run into DIR "
        f"(Prometheus text + CSV; {'/'.join(TRACEABLE)} only)",
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="fan the run's shards over N worker processes "
        f"(deterministic: merged results are bit-identical for any N; "
        f"{'/'.join(PARALLEL_COMMANDS)} only)",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="checkpoint finished shards into DIR and skip any shard "
        "already checkpointed there from a previous (possibly killed) run",
    )
    parser.add_argument(
        "--retainer-size",
        type=int,
        default=None,
        metavar="C",
        help="run the marketplace retainer comparison with a pool of C "
        f"workers ({'/'.join(RETAINER_COMMANDS)} only; docs/RETAINER.md)",
    )
    parser.add_argument(
        "--retainer-cost",
        type=float,
        default=None,
        metavar="WAGE",
        help="retainer wage per idle second for the comparison "
        f"({'/'.join(RETAINER_COMMANDS)} only; default 0.01)",
    )
    parser.add_argument(
        "--retainer-adaptive",
        action="store_true",
        help="retune the retainer pool size periodically from a live EWMA "
        "arrival-rate estimate via optimal_pool_size "
        f"({'/'.join(RETAINER_COMMANDS)} only; docs/RETAINER.md)",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        choices=("debug", "info", "warning", "error"),
        help="enable stdlib logging from the experiment drivers",
    )
    args = parser.parse_args(argv)

    if args.log_level is not None:
        logging.basicConfig(
            level=getattr(logging, args.log_level.upper()),
            format="%(asctime)s %(name)s %(levelname)s %(message)s",
        )

    targets = sorted(COMMANDS) if args.figure == "all" else [args.figure]
    telemetry = args.trace_out is not None or args.metrics_out is not None
    if telemetry and not any(t in TRACEABLE for t in targets):
        parser.error(
            f"--trace-out/--metrics-out only apply to: {', '.join(TRACEABLE)}"
        )
    sharded = args.parallel is not None or args.resume is not None
    if sharded and not any(t in PARALLEL_COMMANDS for t in targets):
        parser.error(
            f"--parallel/--resume only apply to: {', '.join(PARALLEL_COMMANDS)}"
        )
    if args.parallel is not None and args.parallel < 1:
        parser.error("--parallel must be >= 1")
    retainer = (
        args.retainer_size is not None
        or args.retainer_cost is not None
        or args.retainer_adaptive
    )
    if retainer and not any(t in RETAINER_COMMANDS for t in targets):
        parser.error(
            f"--retainer-size/--retainer-cost/--retainer-adaptive only apply to: "
            f"{', '.join(RETAINER_COMMANDS)}"
        )
    if args.retainer_size is not None and args.retainer_size < 1:
        parser.error("--retainer-size must be >= 1")
    if args.retainer_cost is not None and args.retainer_cost < 0:
        parser.error("--retainer-cost must be non-negative")
    for target in targets:
        kwargs: Dict[str, object] = {}
        if target in TRACEABLE:
            kwargs["trace_out"] = args.trace_out
            kwargs["metrics_out"] = args.metrics_out
        if target in PARALLEL_COMMANDS:
            kwargs["parallel"] = args.parallel
            kwargs["resume"] = args.resume
        if target in RETAINER_COMMANDS:
            kwargs["retainer_size"] = args.retainer_size
            kwargs["retainer_cost"] = args.retainer_cost
            kwargs["retainer_adaptive"] = args.retainer_adaptive
        print(COMMANDS[target](args.quick, args.out, **kwargs))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
