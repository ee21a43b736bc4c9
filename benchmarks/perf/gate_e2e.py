#!/usr/bin/env python
"""Gate a change on the end-to-end benchmark against its base commit.

    python benchmarks/perf/gate_e2e.py BASE_DIR

``BASE_DIR`` is a checkout of the base commit, for example one made with
``git worktree add``.  The gate runs ``BASE_DIR/benchmarks/e2e/run.py
--seconds 0`` and this checkout's ``run.py`` in :data:`PAIRS` pairs on the
same host, alternating which side runs first, and takes the median of each
workload's metrics on each side.  It exits 1 if any run is incorrect, or if
a gated metric is worse than the base by more than its ``BENCHMARK.json``
bound on any workload; the bounds and the direction (``better``) come from
this checkout's ``BENCHMARK.json``.

``setup_s`` is printed but not gated: over 5 pairs its medians moved by up
to 31% with no change to set-up, above its 25% bound.

A metric within its bound reads ``unresolved`` instead of ``ok`` when the
base runs' interquartile range, as a fraction of their median, exceeds the
bound: the host was too noisy for the comparison to tell a regression of
that size.  It does not fail the gate.

The gate uses only the standard library and imports nothing from either
checkout: each side's ``run.py`` imports ``repro`` from its own ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Alternating base/head pairs of runs.
PAIRS = 5
#: End-to-end metrics that are printed but never fail the gate.
UNGATED = ("setup_s",)

Result = Optional[Dict[str, Any]]


def last_json(stdout: str) -> Result:
    """The result line of a ``run.py`` run (its last stdout line), or None."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def run_side(root: Path) -> Result:
    """Run ``root``'s end-to-end benchmark once, every workload, 3 repetitions each."""
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"), "--seconds", "0"],
        stdout=subprocess.PIPE,
        text=True,
        cwd=root,
    )
    return last_json(proc.stdout)


def collect(base: Path, head: Path, pairs: int) -> Tuple[List[Result], List[Result]]:
    """Run both sides ``pairs`` times, the base first in even pairs."""
    results: Dict[str, List[Result]] = {"base": [], "head": []}
    for pair in range(pairs):
        order = (("base", base), ("head", head))
        for side, root in order if pair % 2 == 0 else order[::-1]:
            result = run_side(root)
            results[side].append(result)
            print(f"# pair {pair + 1} {side}: {summary(result)}", flush=True)
    return results["base"], results["head"]


def summary(result: Result) -> str:
    """The line printed for one run: each workload's verdict and metrics."""
    if result is None:
        return "no result"
    parts = []
    for name, run in result.get("workloads", {}).items():
        run = run or {}
        parts.append(f"{name}:{'ok' if run.get('correct') else 'INCORRECT'}")
        parts += [
            f"{metric}={entry['value']:.6g}"
            for metric, entry in run.get("metrics", {}).items()
        ]
    return " ".join(parts)


def incorrect_runs(side: str, results: List[Result], workloads: List[str]) -> List[str]:
    """One failure per run, or workload of a run, that is missing or incorrect."""
    failures = []
    for index, result in enumerate(results, start=1):
        if result is None:
            failures.append(f"{side} run {index}: no result line")
            continue
        for name in workloads:
            run = result.get("workloads", {}).get(name)
            if run is None:
                failures.append(f"{side} run {index}: {name} has no result")
            elif not run.get("correct"):
                failures.append(f"{side} run {index}: {name} is incorrect")
    return failures


def values(results: List[Result], workload: str, metric: str) -> List[float]:
    return [
        result["workloads"][workload]["metrics"][metric]["value"]
        for result in results
        if result is not None
    ]


def spread(samples: List[float]) -> float:
    """Interquartile range as a fraction of the median; 0 below 2 samples."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / abs(statistics.median(samples))


def compare(
    spec: Dict[str, Any], base: List[Result], head: List[Result]
) -> Tuple[List[str], List[str]]:
    """Report lines and failures for the base's and the head's result lines."""
    workloads = [entry["name"] for entry in spec["workloads"]]
    failures = incorrect_runs("base", base, workloads) + incorrect_runs(
        "head", head, workloads
    )
    if failures or not base or not head:
        return [], failures or ["no runs to compare"]
    lines = [
        f"{'workload':<14} {'metric':<22} {'base':>12} {'head':>12} "
        f"{'worse_by':>8} {'bound':>6} {'spread':>7} verdict"
    ]
    for name in workloads:
        for entry in spec["end_to_end"]:
            metric, bound = entry["name"], entry["bound"]
            base_values = values(base, name, metric)
            before = statistics.median(base_values)
            after = statistics.median(values(head, name, metric))
            noise = spread(base_values)
            change = (after - before) / before
            worse_by = change if entry["better"] == "lower" else -change
            if metric in UNGATED:
                verdict = "not gated"
            elif worse_by > bound:
                verdict = "FAIL"
                failures.append(
                    f"{name} {metric}: {after:.6g} is {worse_by:.1%} worse than "
                    f"the base's {before:.6g} (bound {bound:.0%})"
                )
            elif noise > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            lines.append(
                f"{name:<14} {metric:<22} {before:>12.6g} {after:>12.6g} "
                f"{worse_by:>+8.2%} {bound:>6.0%} {noise:>7.1%} {verdict}"
            )
    return lines, failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("base", type=Path, metavar="BASE_DIR",
                        help="checkout of the base commit")
    base = parser.parse_args(argv).base.resolve()
    if not (base / "benchmarks" / "e2e" / "run.py").is_file():
        parser.error(f"{base} has no benchmarks/e2e/run.py")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(
        f"# base {base}  head {ROOT}  pairs={PAIRS} cpu_count={os.cpu_count()} "
        f"python={sys.version.split()[0]}",
        flush=True,
    )
    lines, failures = compare(spec, *collect(base, ROOT, PAIRS))
    print("\n".join(lines))
    for failure in failures:
        print(f"REGRESSION: {failure}")
    unresolved = sum(line.endswith(" unresolved") for line in lines)
    if not failures:
        print(
            f"# every gated metric within its bound of the base ({PAIRS} pairs)"
            + (f"; {unresolved} unresolved (base spread above the bound)"
               if unresolved else "")
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
