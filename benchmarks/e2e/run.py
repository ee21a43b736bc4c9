"""End-to-end benchmark of the §V-C comparison, measured in host time.

The simulator is a batch job, so its headline is simulated task completions
per host second at a fixed input size.  Simulated time is fixed by the seed;
every number printed here is host (wall-clock) time, memory or a count.
Untraced repetitions are also timed in reference seconds (host_speed.py),
which factor out how fast the shared host happened to run.

One workload in this interpreter, the form BENCHMARK.json's command takes::

    python benchmarks/e2e/run.py --workload vc_comparison --seed 42 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced repetitions and prints the per-layer
metrics (``--trace-out DIR`` also writes the last traced repetition as a
Chrome trace).  Without ``--workload`` every workload runs once, each in
its own interpreter.  ``--sets 2`` runs the whole benchmark twice over ten
fresh seeds each, workloads interleaved, and prints each end-to-end
metric's spread and median drift against its bound.  ``--quick`` shrinks
the inputs (tests only; the goldens cover both sizes at seed 42).

The last line of standard output is one JSON object.  Exit status 0 means
every policy run matched its reference; see README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from host_speed import HostSpeed
from layer_trace import LayerTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN_SEED = 42
#: Fresh interpreters timed per run; setup_s is their median.
SETUP_TRIES = 5
#: Repetitions per run even when --seconds is shorter than that.
MIN_REPS = 3
MIN_COVERAGE = 0.95
#: Seeds per set in --sets mode (the repeatability check uses ten).
RUNS_PER_SET = 10

#: EndToEndConfig keyword arguments; {} is the paper's §V-C setup (750
#: workers, 9.375 tasks/s, 8371 tasks).  The churn crowd is large enough
#: to keep up with arrivals (a backlogged queue makes the per-seed cost
#: vary by 30%), and long enough that seeds differ by ~4%.  Quick sizes are
#: for tests only.
INPUTS: Dict[str, Dict[str, Dict[str, Any]]] = {
    "vc": {
        "full": {},
        "quick": dict(n_workers=150, arrival_rate=1.875, n_tasks=1600, drain_time=400.0),
    },
    "churn": {
        "full": dict(
            n_workers=300, arrival_rate=2.5, n_tasks=12000,
            churn_mean_session=120.0, churn_mean_absence=60.0,
        ),
        "quick": dict(
            n_workers=90, arrival_rate=0.75, n_tasks=1200, drain_time=300.0,
            churn_mean_session=120.0, churn_mean_absence=60.0,
        ),
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    #: Key into INPUTS and the goldens.
    inputs: str
    policies: Tuple[str, ...]
    #: Worker processes for repro.dist; 0 runs the sequential driver.
    parallel: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("vc_comparison", "vc", ("react", "greedy", "traditional"), 0),
        Workload("vc_sharded", "vc", ("react", "greedy", "traditional"), 2),
        # REACT and Greedy are left out: under churn both raise KeyError in
        # the Eq. 2 sweep on about half the seeds (README.md, excluded bugs).
        Workload("churn_crowd", "churn", ("traditional",), 0),
    )
}

#: Layers every sequential run enters, and those each policy adds.  The
#: sharded workload's process enters only repro.dist; its simulations run
#: in worker processes the tracer does not see.
COMMON_LAYERS = (
    "sim", "graph", "platform.scheduling", "platform.tasks", "platform.server",
    "stats.metrics", "workload.gen",
)
POLICY_LAYERS = {
    "react": (
        "deadline.eq3", "deadline.fit", "dynamic.sweep", "dynamic.eq2",
        "kernels.wbgm", "matching.react",
    ),
    "greedy": ("deadline.eq3", "dynamic.sweep", "dynamic.eq2", "matching.greedy"),
    "traditional": ("matching.uniform",),
}
DIST_LAYERS = ("dist.execute", "dist.merge")


@dataclass
class Rep:
    """One repetition: every policy of the workload once."""

    #: Timed units: one per policy (sequential) or one for the whole
    #: sharded run, keyed "all".
    units: Dict[str, HostSpeed] = field(default_factory=dict)
    summaries: Dict[str, Dict[str, float]] = field(default_factory=dict)
    report: str = ""
    #: Policies whose run raised.
    raised: List[str] = field(default_factory=list)
    traced: bool = False

    @property
    def wall(self) -> float:
        """Host seconds of the repetition."""
        return sum(unit.seconds for unit in self.units.values())

    @property
    def ref_wall(self) -> float:
        """Reference seconds of the repetition (sampled repetitions only)."""
        return sum(unit.ref_seconds for unit in self.units.values())


# ---------------------------------------------------------------- set-up
def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src``, or stop."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: {SRC / 'repro'} not found; run from the root of a full "
            "checkout of the repository"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def time_setup(inputs: Dict[str, Any]) -> float:
    """Host seconds for a fresh interpreter to import the CLI and build the config."""
    code = (
        "import repro.experiments.cli\n"
        "from repro.experiments.config import EndToEndConfig\n"
        f"EndToEndConfig(**{inputs!r})\n"
    )
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True)
    return time.perf_counter() - start


def make_policies(names: Tuple[str, ...]) -> list:
    from repro.platform.policies import greedy_policy, react_policy, traditional_policy

    factories = {
        "react": lambda: react_policy(cycles=1000),
        "greedy": greedy_policy,
        "traditional": traditional_policy,
    }
    return [factories[name]() for name in names]


# ------------------------------------------------------------ repetitions
def run_sequential(config: Any, policies: list, sample: bool = True) -> Rep:
    """``run_comparison``'s loop, timed per policy."""
    from repro.experiments.endtoend import run_endtoend
    from repro.experiments.reporting import report_endtoend

    rep = Rep()
    results = {}
    for policy in policies:
        try:
            with HostSpeed(sample) as rep.units[policy.name]:
                results[policy.name] = run_endtoend(policy, config)
        except Exception:
            traceback.print_exc()
            rep.raised.append(policy.name)
    rep.summaries = {name: r.summary for name, r in results.items()}
    rep.report = report_endtoend(results)
    return rep


def run_sharded(config: Any, policies: list, parallel: int, sample: bool = True) -> Rep:
    """The ``endtoend --parallel N`` path: ``run_comparison_sharded``."""
    from repro.dist import run_comparison_sharded
    from repro.experiments.reporting import report_endtoend

    rep = Rep()
    results = {}
    try:
        with HostSpeed(sample) as rep.units["all"]:
            results = run_comparison_sharded(config, policies=policies, parallel=parallel).results
    except Exception:
        traceback.print_exc()
        rep.raised = [policy.name for policy in policies]
    rep.summaries = {name: r.summary for name, r in results.items()}
    rep.report = report_endtoend(results)
    return rep


# ---------------------------------------------------------------- checks
def load_goldens(workload: Workload, seed: int, quick: bool) -> Optional[Dict[str, Dict]]:
    if seed != GOLDEN_SEED:
        return None
    goldens = json.loads((HERE / "goldens.json").read_text())
    return goldens["quick" if quick else "full"][workload.inputs]


def claim_errors(summaries: Dict[str, Dict[str, float]]) -> List[str]:
    """§V-C: REACT meets more deadlines than the traditional platform."""
    react = summaries.get("react", {}).get("on_time_fraction")
    traditional = summaries.get("traditional", {}).get("on_time_fraction")
    if react is None or traditional is None or react > traditional:
        return []
    return [f"REACT on-time {react} does not beat Traditional {traditional}"]


def check_reps(
    reps: List[Rep],
    names: Tuple[str, ...],
    reference: Dict[str, Dict[str, float]],
    reference_report: Optional[str],
) -> Tuple[int, List[str]]:
    """Count policy runs that raised or differ from the reference."""
    failed, errors = 0, []
    for index, rep in enumerate(reps):
        for name in names:
            if name in rep.raised:
                failed += 1
                errors.append(f"rep {index}: {name} raised")
            elif rep.summaries.get(name) != reference.get(name):
                failed += 1
                errors.append(f"rep {index}: {name} summary differs from the reference")
        if reference_report is not None and rep.report != reference_report:
            errors.append(f"rep {index}: report text differs from the sequential run")
    return failed, errors


# --------------------------------------------------------------- metrics
def peak_rss_mb() -> float:
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return usage / 1024.0  # ru_maxrss is KiB on Linux


def unit_medians(reps: List[Rep], attr: str) -> Dict[str, float]:
    """Median of each unit's ``attr`` (a HostSpeed property) over the repetitions."""
    return {
        name: statistics.median(getattr(rep.units[name], attr) for rep in reps)
        for name in reps[0].units
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end_metrics(untraced: List[Rep], completed: int, setup_s: float) -> Dict[str, float]:
    return {
        "completions_per_ref_s": completed / sum(unit_medians(untraced, "ref_seconds").values()),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }


def per_layer_metrics(
    untraced: List[Rep],
    traced: List[Rep],
    tally: Dict[str, Counter],
    sequential: Optional[Rep],
) -> Dict[str, float]:
    """Per-layer numbers, each averaged over the traced repetitions."""
    n = len(traced)
    s = Counter({layer: ns / n / 1e9 for layer, ns in tally["self_ns"].items()})
    c = Counter({key: value / n for key, value in tally["counts"].items()})
    spans = Counter({layer: value / n for layer, value in tally["spans"].items()})
    traced_wall = sum(rep.wall for rep in traced) / n
    walls = Counter(unit_medians(untraced, "seconds"))
    untraced_ref_wall = sum(unit_medians(untraced, "ref_seconds").values())
    slowdowns = [unit.slowdown for rep in untraced for unit in rep.units.values()]
    return {
        "sim.dispatch_self_s": s["sim"],
        "sim.events": c["sim.events"],
        "graph.build_self_s": s["graph"],
        "graph.builds": spans["graph"],
        "graph.kept_edge_ratio": ratio(c["graph.kept_edges"], c["graph.candidate_edges"]),
        "deadline.eq3_s": s["deadline.eq3"],
        "deadline.eq3_cells": c["deadline.eq3_cells"],
        "deadline.fit_s": s["deadline.fit"],
        "deadline.fits": c["deadline.fits"],
        "deadline.refit_ratio": ratio(c["deadline.fits"], c["deadline.cache_lookups"]),
        "dynamic.sweep_self_s": s["dynamic.sweep"],
        "dynamic.sweeps": spans["dynamic.sweep"],
        "dynamic.eq2_s": s["dynamic.eq2"],
        "dynamic.eq2_rows": c["dynamic.eq2_rows"],
        "dynamic.withdraw_ratio": ratio(c["dynamic.withdrawals"], c["dynamic.eq2_rows"]),
        "kernels.wbgm_s": s["kernels.wbgm"],
        "kernels.wbgm_cycles": c["kernels.wbgm_cycles"],
        "matching.react_self_s": s["matching.react"],
        "matching.greedy_self_s": s["matching.greedy"],
        "matching.uniform_self_s": s["matching.uniform"],
        "matching.matched_ratio": ratio(c["matching.matched"], c["matching.offered"]),
        "platform.scheduling_self_s": s["platform.scheduling"],
        "platform.tasks_self_s": s["platform.tasks"],
        "platform.server_self_s": s["platform.server"],
        "stats.metrics_s": s["stats.metrics"],
        "stats.records": spans["stats.metrics"],
        "workload.gen_s": s["workload.gen"],
        "dist.execute_s": s["dist.execute"],
        "dist.merge_s": s["dist.merge"],
        "dist.result_bytes": c["dist.result_bytes"],
        "dist.speedup_vs_sequential": ratio(
            sequential.ref_wall if sequential else 0.0, untraced_ref_wall
        ),
        "trace.overhead_frac": traced_wall / sum(walls.values()) - 1.0,
        "trace.coverage": sum(s.values()) / traced_wall,
        "host.slowdown": statistics.median(slowdowns),
        "react_wall_s": walls["react"],
        "greedy_wall_s": walls["greedy"],
        "traditional_wall_s": walls["traditional"],
    }


def expected_layers(workload: Workload) -> List[str]:
    if workload.parallel:
        return list(DIST_LAYERS)
    layers = list(COMMON_LAYERS)
    for policy in workload.policies:
        layers += [layer for layer in POLICY_LAYERS[policy] if layer not in layers]
    return layers


def trace_errors(
    workload: Workload, span_counts: Dict[str, int], coverage: float
) -> List[str]:
    errors = [
        f"layer {layer} recorded no span"
        for layer in expected_layers(workload)
        if not span_counts.get(layer)
    ]
    if coverage < MIN_COVERAGE:
        errors.append(f"trace coverage {coverage:.3f} < {MIN_COVERAGE}")
    return errors


# ------------------------------------------------------------------ runs
def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool,
    trace_out: Optional[Path],
) -> Tuple[Dict[str, Any], List[str]]:
    """One benchmark run; returns (result line, error messages)."""
    inputs = INPUTS[workload.inputs]["quick" if quick else "full"]
    # The build: byte-compile the checkout so no timed interpreter compiles.
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    setup_s = statistics.median(time_setup(inputs) for _ in range(SETUP_TRIES))

    from repro.experiments.config import EndToEndConfig

    config = EndToEndConfig(seed=seed, **inputs)
    policies = make_policies(workload.policies)

    def run_once(sample: bool) -> Rep:
        if workload.parallel:
            return run_sharded(config, policies, workload.parallel, sample)
        return run_sequential(config, policies, sample)

    reps: List[Rep] = []
    tally = {"self_ns": Counter(), "counts": Counter(), "spans": Counter()}
    last_tracer: Optional[LayerTracer] = None
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start + reps[-1].wall <= seconds:
        # Trace runs alternate untraced/traced reps so both see the same host.
        if trace and len(reps) % 2 == 1:
            with LayerTracer() as tracer:
                rep = run_once(sample=False)
            rep.traced = True
            tally["self_ns"].update(tracer.self_ns())
            tally["counts"].update(tracer.counts)
            tally["spans"].update(tracer.span_counts())
            if trace_out is not None:
                last_tracer = tracer
        else:
            rep = run_once(sample=True)
        reps.append(rep)

    errors: List[str] = []
    attempted = len(reps) * len(workload.policies)
    sequential: Optional[Rep] = None
    reference_report: Optional[str] = None
    goldens = load_goldens(workload, seed, quick)
    if workload.parallel:
        # The sharded report must equal the sequential one byte for byte.
        sequential = run_sequential(config, policies)
        attempted += len(workload.policies)
        reference_report = sequential.report
        reference = goldens if goldens is not None else sequential.summaries
        failed, errors = check_reps([sequential], workload.policies, reference, None)
    else:
        reference = goldens if goldens is not None else reps[0].summaries
        failed = 0
    rep_failed, rep_errors = check_reps(reps, workload.policies, reference, reference_report)
    failed += rep_failed
    errors += rep_errors + claim_errors(reference)

    untraced = [rep for rep in reps if not rep.traced]
    traced = [rep for rep in reps if rep.traced]
    metrics: Dict[str, float] = {}
    if not failed:
        if trace:
            metrics = per_layer_metrics(untraced, traced, tally, sequential)
            errors += trace_errors(workload, tally["spans"], metrics["trace.coverage"])
            if last_tracer is not None:
                last_tracer.write_chrome_trace(trace_out / f"{workload.name}.trace.json")
        else:
            completed = sum(int(reference[name]["completed"]) for name in workload.policies)
            metrics = end_to_end_metrics(untraced, completed, setup_s)
    result = {
        "correct": not failed and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, errors


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def with_units(metrics: Dict[str, float], declared: List[Dict[str, Any]]) -> Dict[str, Dict]:
    """Attach BENCHMARK.json units; the computed names must match the declared ones."""
    names = [entry["name"] for entry in declared]
    if sorted(names) != sorted(metrics):
        raise SystemExit(
            f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}"
        )
    return {
        entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }


def print_metrics(label: str, metrics: Dict[str, Dict]) -> None:
    for name, entry in metrics.items():
        print(f"{label}{name:<28} {entry['value']:>16.6g} {entry['unit']}")


def main_workload(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    workload = WORKLOADS[args.workload]
    result, errors = measure(
        workload, args.seed, args.seconds, bool(args.trace), args.quick, args.trace_out
    )
    # The sharded run's process pool starts multiprocessing's resource
    # tracker; stop it and wait for it so no process outlives the benchmark.
    resource_tracker._resource_tracker._stop()
    for message in errors:
        print(f"{workload.name}: {message}", file=sys.stderr)
    if result["metrics"]:
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        result["metrics"] = with_units(result["metrics"], declared)
        print_metrics(f"{workload.name}  ", result["metrics"])
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_child(
    workload: str, seed: int, seconds: float, trace: int, quick: bool
) -> Tuple[int, Optional[Dict[str, Any]]]:
    """Run one workload in a fresh interpreter; returns (exit code, result line)."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--quick"] if quick else [])
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, None


def main_all(args: argparse.Namespace) -> int:
    results, status = {}, 0
    for name in WORKLOADS:
        code, result = run_child(name, args.seed, args.seconds, args.trace, args.quick)
        results[name] = result
        status = status or code
        print_metrics(f"{name:<14} ", (result or {}).get("metrics", {}))
    print(json.dumps({"workloads": results}))
    return status


def quartile_spread(values: List[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main_sets(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Run the benchmark ``--sets`` times and compare each set against the first."""
    import numpy

    print(
        f"# cpu_count={os.cpu_count()} python={sys.version.split()[0]} "
        f"numpy={numpy.__version__} seconds={args.seconds} runs={RUNS_PER_SET}"
    )
    values: Dict[Tuple[int, str, str], List[float]] = {}
    status = 0
    for set_index in range(args.sets):
        for run in range(RUNS_PER_SET):
            seed = args.seed + set_index * RUNS_PER_SET + run
            for name in WORKLOADS:
                code, result = run_child(name, seed, args.seconds, 0, args.quick)
                if code or result is None or not result["correct"]:
                    print(f"# set {set_index + 1} seed {seed} {name}: failed (exit {code})")
                    status = 1
                    continue
                for metric, entry in result["metrics"].items():
                    values.setdefault((set_index, name, metric), []).append(entry["value"])
                measured = " ".join(
                    f"{metric}={entry['value']:.6g}" for metric, entry in result["metrics"].items()
                )
                print(f"# set {set_index + 1} seed {seed} {name}: {measured}", flush=True)
    summary = []
    print(f"{'workload':<14} {'metric':<22} {'set':>3} {'median':>12} {'spread':>7} "
          f"{'worse_by':>8} {'bound':>6} ok")
    for name in WORKLOADS:
        for entry in spec["end_to_end"]:
            metric, bound = entry["name"], entry["bound"]
            sets = [values.get((index, name, metric), []) for index in range(args.sets)]
            if any(len(series) < 2 for series in sets):
                print(f"{name:<14} {metric:<22} too few successful runs")
                status = 1
                continue
            first = statistics.median(sets[0])
            for set_index, series in enumerate(sets):
                median = statistics.median(series)
                spread = quartile_spread(series)
                change = (median - first) / first
                worse_by = change if entry["better"] == "lower" else -change
                ok = worse_by <= bound and (metric == "setup_s" or spread <= bound)
                status = status or (0 if ok else 1)
                summary.append(dict(workload=name, metric=metric, set=set_index + 1,
                                    median=median, spread=spread, worse_by=worse_by,
                                    bound=bound, ok=ok, values=series))
                print(f"{name:<14} {metric:<22} {set_index + 1:>3} {median:>12.5g} "
                      f"{spread:>7.2%} {worse_by:>+8.2%} {bound:>6.0%} "
                      f"{'ok' if ok else 'FAIL'}{'' if spread < bound / 3 else ' (noisy)'}")
    print(json.dumps({"sets": summary}))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run one workload in this interpreter (default: all, each fresh)")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="host seconds of repetitions to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced repetitions")
    parser.add_argument("--trace-out", type=Path, default=None, metavar="DIR",
                        help="write the last traced repetition as a Chrome trace")
    parser.add_argument("--quick", action="store_true", help="small inputs (tests)")
    parser.add_argument("--sets", type=int, default=0,
                        help=f"run the whole benchmark this many times over {RUNS_PER_SET} "
                        "seeds each, and compare each set with the first")
    args = parser.parse_args(argv)
    if args.trace_out is not None and not args.trace:
        parser.error("--trace-out needs --trace 1")
    use_checkout_src()
    if args.sets:
        return main_sets(args, spec)
    if args.workload is None:
        return main_all(args)
    return main_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
