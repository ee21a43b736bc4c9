"""Smoke tests for the perf-regression harness (quick sizes only)."""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.cli import COMMANDS
from repro.experiments.perf import (
    BenchResult,
    check_endtoend_regression,
    format_report,
    run_bench,
    run_matching_benchmarks,
    write_bench_file,
)

SCHEMA_KEYS = {"bench", "params", "wall_seconds", "throughput", "commit"}


class TestMatchingBenchmarks:
    def test_quick_run_schema_and_speedup(self):
        results = run_matching_benchmarks(quick=True)
        assert {r.bench for r in results} == {"react_match", "metropolis_match"}
        for r in results:
            assert set(r.to_dict()) == SCHEMA_KEYS
            assert r.wall_seconds > 0
            assert r.throughput > 0
            if r.params["backend"] == "reference":
                assert "speedup_vs_reference" not in r.params
            else:
                assert r.params["speedup_vs_reference"] > 0


class TestDriver:
    def test_run_bench_writes_json_files(self, tmp_path):
        # endtoend_parallel=0 skips the sharded variant: the multiprocessing
        # spawn adds ~10 s of pure overhead on a 1-core test runner and the
        # variant's mechanics are covered by tests/dist.
        report = run_bench(quick=True, out_dir=tmp_path, endtoend_parallel=0)
        for name in (
            "BENCH_matching.json",
            "BENCH_platform.json",
            "BENCH_endtoend.json",
        ):
            payload = json.loads((tmp_path / name).read_text())
            assert isinstance(payload, list) and payload
            for record in payload:
                assert set(record) == SCHEMA_KEYS
            assert name in report
        endtoend = json.loads((tmp_path / "BENCH_endtoend.json").read_text())
        assert all(r["bench"] == "endtoend_throughput" for r in endtoend)
        by_policy = {r["params"]["policy"]: r for r in endtoend}
        assert set(by_policy) == {"react", "greedy", "traditional", "all"}
        aggregate = by_policy["all"]
        assert aggregate["params"]["variant"] == "sequential"
        assert aggregate["params"]["completed"] == sum(
            by_policy[p]["params"]["completed"]
            for p in ("react", "greedy", "traditional")
        )
        assert aggregate["throughput"] > 0
        # Quick runs use a non-comparable workload, so they must not carry
        # the committed pre-PR speedup numbers.
        assert "speedup_vs_pre_pr" not in aggregate["params"]
        platform = json.loads((tmp_path / "BENCH_platform.json").read_text())
        assert {r["bench"] for r in platform} == {
            "graph_build_prune",
            "distance_weight",
            "eq3_matrix",
            "eq2_sweep",
            "monitor_sweep",
            "endtoend_obs_overhead",
            "scalability_parallel",
        }
        parallel = next(
            r for r in platform if r["bench"] == "scalability_parallel"
        )
        # Speedup is hardware-bound (1-core CI cannot show one), so the
        # schema records cpu_count alongside it instead of asserting a ratio.
        assert parallel["params"]["cpu_count"] is not None
        assert parallel["params"]["speedup_vs_serial"] > 0

    def test_format_report_handles_missing_backend(self):
        text = format_report(
            [BenchResult("x", {}, wall_seconds=0.5, throughput=2.0)]
        )
        assert "x" in text

    def test_cli_exposes_bench_command(self):
        assert "bench" in COMMANDS


def _endtoend_record(policy, throughput, variant="sequential"):
    return BenchResult(
        bench="endtoend_throughput",
        params={
            "variant": variant,
            "policy": policy,
            "n_workers": 750,
            "n_tasks": 8371,
        },
        wall_seconds=1.0,
        throughput=throughput,
    )


class TestEndtoendRegressionCheck:
    """The CI gate: fresh sequential rates vs the committed baseline."""

    def _baseline(self, tmp_path, throughput=1000.0):
        path = tmp_path / "BENCH_endtoend.json"
        write_bench_file(path, [_endtoend_record("react", throughput)])
        return path

    def test_within_tolerance_passes(self, tmp_path):
        baseline = self._baseline(tmp_path)
        fresh = [_endtoend_record("react", 850.0)]  # -15% < 20% tolerance
        assert check_endtoend_regression(fresh, baseline, tolerance=0.2) == []

    def test_regression_fails(self, tmp_path):
        baseline = self._baseline(tmp_path)
        fresh = [_endtoend_record("react", 700.0)]  # -30%
        failures = check_endtoend_regression(fresh, baseline, tolerance=0.2)
        assert len(failures) == 1
        assert "react" in failures[0]

    def test_parallel_variant_is_informational(self, tmp_path):
        # Parallel rates depend on the host's core count, not the code, so
        # only sequential records gate — but a baseline with *no* matching
        # sequential record must fail rather than pass vacuously.
        baseline = self._baseline(tmp_path)
        sequential_ok = _endtoend_record("react", 990.0)
        parallel_slow = _endtoend_record("all", 10.0, variant="parallel")
        assert (
            check_endtoend_regression(
                [sequential_ok, parallel_slow], baseline, tolerance=0.2
            )
            == []
        )
        assert check_endtoend_regression([parallel_slow], baseline) != []

    def test_workload_mismatch_fails_loudly(self, tmp_path):
        baseline = self._baseline(tmp_path)
        fresh = [_endtoend_record("react", 5000.0)]
        fresh[0].params["n_workers"] = 60  # a --quick run
        failures = check_endtoend_regression(fresh, baseline)
        assert len(failures) == 1
        assert "comparable" in failures[0]

    def test_committed_baseline_is_comparable(self):
        # Fresh records carry no ``backend`` label while the committed
        # baseline does; the gate must still compare them (it reports a
        # failure when it compares nothing).
        baseline = Path(__file__).parents[2] / "BENCH_endtoend.json"
        fresh = [
            BenchResult(
                bench=r["bench"],
                params={k: v for k, v in r["params"].items() if k != "backend"},
                wall_seconds=r["wall_seconds"],
                throughput=r["throughput"],
            )
            for r in json.loads(baseline.read_text(encoding="utf-8"))
            if r["params"].get("variant") == "sequential"
        ]
        assert fresh
        assert check_endtoend_regression(fresh, baseline) == []
