"""Smoke tests for the perf-regression harness (quick sizes only)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from repro.experiments.cli import COMMANDS
from repro.experiments.perf import (
    BenchResult,
    format_report,
    run_bench,
    run_matching_benchmarks,
)

SCHEMA_KEYS = {"bench", "params", "wall_seconds", "throughput", "commit"}


class TestMatchingBenchmarks:
    def test_quick_run_schema_and_speedup(self):
        results = run_matching_benchmarks(quick=True)
        assert {r.bench for r in results} == {
            "react_match",
            "metropolis_match",
            "uniform_match",
        }
        for r in results:
            assert set(r.to_dict()) == SCHEMA_KEYS
            assert r.wall_seconds > 0
            assert r.throughput > 0
            # sub-millisecond calls are timed in back-to-back batches
            assert r.params["calls_per_sample"] >= 1
            if r.params["backend"] == "reference":
                assert "speedup_vs_reference" not in r.params
            else:
                assert r.params["speedup_vs_reference"] > 0


class TestDriver:
    def test_run_bench_writes_json_files(self, tmp_path):
        report = run_bench(quick=True, out_dir=tmp_path)
        for name in (
            "BENCH_matching.json",
            "BENCH_platform.json",
            "BENCH_service.json",
        ):
            payload = json.loads((tmp_path / name).read_text())
            assert isinstance(payload, list) and payload
            for record in payload:
                assert set(record) == SCHEMA_KEYS
            assert name in report
        # The end-to-end run is benchmarks/e2e's; no harness here times it.
        assert not (tmp_path / "BENCH_endtoend.json").exists()
        platform = json.loads((tmp_path / "BENCH_platform.json").read_text())
        assert {r["bench"] for r in platform} == {
            "distance_weight",
            "eq3_matrix",
            "eq2_sweep",
            "monitor_sweep",
            "graph_build",
            "endtoend_obs_overhead",
        }
        graph_build = next(r for r in platform if r["bench"] == "graph_build")
        # The §V-C batch shape: 350 of the 750 registered workers are busy,
        # so each build reads 400 rows.
        assert graph_build["params"]["registered"] == 750
        assert graph_build["params"]["available"] == 400

    def test_format_report_handles_missing_backend(self):
        text = format_report(
            [BenchResult("x", {}, wall_seconds=0.5, throughput=2.0)]
        )
        assert "x" in text

    def test_cli_exposes_bench_command(self):
        assert "bench" in COMMANDS




def _load_gate():
    path = Path(__file__).parents[2] / "benchmarks" / "perf" / "gate_e2e.py"
    spec = importlib.util.spec_from_file_location("gate_e2e", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()
SPEC = json.loads((Path(__file__).parents[2] / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
BASE_METRICS = {"completions_per_ref_s": 5000.0, "peak_rss_mb": 80.0, "setup_s": 0.4}


def _line(correct=True, skip=(), **changes):
    """A fabricated ``run.py`` result line: every workload at BASE_METRICS.

    ``changes`` maps ``<workload>__<metric>`` to a new value.
    """
    workloads = {}
    for name in WORKLOADS:
        if name in skip:
            continue
        metrics = {}
        for metric, value in BASE_METRICS.items():
            value = changes.get(f"{name}__{metric}", value)
            metrics[metric] = {"value": value, "unit": "-"}
        workloads[name] = {
            "correct": correct,
            "attempted": 3,
            "failed": 0 if correct else 1,
            "metrics": metrics if correct else {},
        }
    return json.dumps({"workloads": workloads})


def _compare(head_lines, base_lines=None, spec=SPEC):
    base_lines = base_lines or [_line()] * gate.PAIRS
    return gate.compare(
        spec,
        [gate.last_json(f"noise\n{line}\n") for line in base_lines],
        [gate.last_json(line) for line in head_lines],
    )


class TestGateE2E:
    """benchmarks/perf/gate_e2e.py: medians of both sides against the bounds."""

    def test_within_bound_passes(self):
        # -15% throughput and +9% memory sit inside the 20% and 10% bounds.
        lines, failures = _compare(
            [_line(vc_comparison__completions_per_ref_s=4250.0,
                   churn_crowd__peak_rss_mb=87.2)] * gate.PAIRS
        )
        assert failures == []
        assert len(lines) == 1 + len(WORKLOADS) * len(SPEC["end_to_end"])

    def test_beyond_bound_fails_naming_workload_and_metric(self):
        slow = _line(vc_sharded__completions_per_ref_s=3500.0)  # -30%
        fat = _line(churn_crowd__peak_rss_mb=90.0)  # +12.5%
        _, failures = _compare([slow, slow, slow, fat, fat])
        assert len(failures) == 1
        assert failures[0].startswith("vc_sharded completions_per_ref_s")
        _, failures = _compare([fat, fat, fat, slow, slow])
        assert len(failures) == 1
        assert failures[0].startswith("churn_crowd peak_rss_mb")

    def test_direction_comes_from_better(self):
        # Higher memory passes once BENCHMARK.json says higher is better.
        fat = [_line(vc_comparison__peak_rss_mb=120.0)] * gate.PAIRS
        assert _compare(fat)[1] != []
        flipped = json.loads(json.dumps(SPEC))
        for entry in flipped["end_to_end"]:
            entry["better"] = "higher" if entry["better"] == "lower" else "lower"
        assert _compare(fat, spec=flipped)[1] == []
        # ... and lower throughput then passes while higher fails.
        faster = [_line(vc_comparison__completions_per_ref_s=9000.0)] * gate.PAIRS
        assert _compare(faster)[1] == []
        assert _compare(faster, spec=flipped)[1] != []

    def test_incorrect_run_fails(self):
        head = [_line()] * (gate.PAIRS - 1) + [_line(correct=False)]
        _, failures = _compare(head)
        assert failures and all("is incorrect" in f for f in failures)
        _, failures = _compare([_line()] * gate.PAIRS, base_lines=[_line(correct=False)])
        assert failures and failures[0].startswith("base run 1")
        _, failures = _compare(["Traceback (most recent call last):"])
        assert failures == ["head run 1: no result line"]

    def test_missing_workload_fails(self):
        _, failures = _compare([_line(skip=("churn_crowd",))] * gate.PAIRS)
        assert failures and all("churn_crowd has no result" in f for f in failures)
        assert _compare([])[1] == ["no runs to compare"]

    def test_setup_s_is_printed_but_never_fails(self):
        slow_setup = [_line(vc_comparison__setup_s=4.0)] * gate.PAIRS  # +900%
        lines, failures = _compare(slow_setup)
        assert failures == []
        row = next(l for l in lines if l.startswith("vc_comparison") and "setup_s" in l)
        assert row.endswith("not gated") and "+900.00%" in row

    def test_noisy_base_reads_unresolved_not_ok(self):
        # Base throughput quartiles 3500 and 6500 around a 5000 median: a
        # 60% spread, above the 20% bound, so "within bound" shows nothing.
        noisy = [
            _line(vc_comparison__completions_per_ref_s=value)
            for value in (3000.0, 4000.0, 5000.0, 6000.0, 7000.0)
        ]

        def verdicts(head):
            lines, failures = _compare(head, base_lines=noisy)
            return failures, {
                tuple(line.split()[:2]): line.split()[-1] for line in lines[1:]
            }

        failures, rows = verdicts([_line()] * gate.PAIRS)
        assert failures == []
        assert rows[("vc_comparison", "completions_per_ref_s")] == "unresolved"
        assert rows[("vc_comparison", "peak_rss_mb")] == "ok"
        assert rows[("vc_sharded", "completions_per_ref_s")] == "ok"
        # The FAIL rule is unchanged: beyond the bound still fails.
        failures, rows = verdicts(
            [_line(vc_comparison__completions_per_ref_s=3500.0)] * gate.PAIRS
        )
        assert rows[("vc_comparison", "completions_per_ref_s")] == "FAIL"
        assert failures and failures[0].startswith("vc_comparison completions_per_ref_s")
