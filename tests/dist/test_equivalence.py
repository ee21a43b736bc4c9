"""The determinism contract: ``--parallel N`` never changes the bytes.

Runs the same seeded workload inline (``parallel=1``) and across a real
``spawn`` process pool (``parallel=4``), then compares the *bytes* of the
exported result JSON/CSV and per-shard telemetry files — not just
approximate statistics — and reads the exported Prometheus counters back
against the merged results.  Also exercises the kill-and-resume path end to
end: a resumed run restores finished shards from checkpoints and still
produces identical bytes.
"""

from pathlib import Path

import pytest

from repro.dist import (
    TelemetrySpec,
    run_chaos_sharded,
    run_comparison_sharded,
    run_scalability_sharded,
)
from repro.experiments.chaos import ChaosConfig
from repro.experiments.config import EndToEndConfig, ScalabilityConfig
from repro.experiments.export import export_endtoend
from repro.obs.exporters import parse_prometheus_text
from repro.platform.policies import greedy_policy, traditional_policy

POLICIES = (greedy_policy(), traditional_policy())

CONFIG = EndToEndConfig(
    n_workers=25, arrival_rate=0.5, n_tasks=30, drain_time=120.0
)

CHAOS = ChaosConfig(n_workers=20, arrival_rate=0.5, n_tasks=25, drain_time=100.0)

SCALABILITY = ScalabilityConfig(
    worker_sizes=(20, 40), rates=(0.4, 0.8), duration=60.0, drain_time=100.0
)


def _run(tmp_path: Path, tag: str, parallel: int, checkpoint_dir=None, telemetry_dir=None):
    out_dir = tmp_path / tag
    telemetry_root = Path(telemetry_dir) if telemetry_dir is not None else out_dir
    telemetry = TelemetrySpec(
        prefix="endtoend",
        trace_dir=str(telemetry_root / "trace"),
        metrics_dir=str(telemetry_root / "metrics"),
    )
    run = run_comparison_sharded(
        CONFIG,
        policies=POLICIES,
        parallel=parallel,
        checkpoint_dir=checkpoint_dir,
        telemetry=telemetry,
    )
    export_dir = out_dir / "export"
    export_dir.mkdir(parents=True)
    export_endtoend(run.results, str(export_dir))
    return run, out_dir


def _file_map(root: Path):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _prometheus(metrics_dir: Path):
    """Each policy's exported ``.prom`` file, parsed to ``{series: value}``."""
    return {
        policy.name: parse_prometheus_text(
            (metrics_dir / f"endtoend_{policy.name}.prom").read_text()
        )
        for policy in POLICIES
    }


def _assert_identical_outputs(dir_a: Path, dir_b: Path):
    files_a, files_b = _file_map(dir_a), _file_map(dir_b)
    assert set(files_a) == set(files_b)
    for name in files_a:
        assert files_a[name] == files_b[name], f"{name} differs between runs"


class TestParallelEquivalence:
    def test_parallel_4_is_byte_identical_to_parallel_1(self, tmp_path):
        serial, serial_dir = _run(tmp_path, "serial", parallel=1)
        pooled, pooled_dir = _run(tmp_path, "pooled", parallel=4)

        # result objects merge identically...
        assert list(serial.results) == list(pooled.results)
        for name in serial.results:
            assert serial.results[name].summary == pooled.results[name].summary

        # ...each shard's exported counters agree with its merged result...
        exported = _prometheus(serial_dir / "metrics")
        for name, series in exported.items():
            summary = serial.results[name].summary
            assert series["react_tasks_received_total"] == summary["received"]
            assert series["react_tasks_completed_total"] == summary["completed"]
        assert _prometheus(pooled_dir / "metrics") == exported

        # ...and every exported file (result JSON/CSV, per-shard telemetry)
        # is byte-identical.
        _assert_identical_outputs(serial_dir, pooled_dir)

    def test_resumed_run_is_byte_identical(self, tmp_path):
        # Resume mirrors CLI usage: same flags (telemetry dirs included)
        # across the original and the resumed invocation — only then do the
        # shard fingerprints match the checkpoints.
        ckpt = tmp_path / "ckpt"
        telemetry_dir = tmp_path / "telemetry"
        fresh, fresh_dir = _run(
            tmp_path, "fresh", parallel=2,
            checkpoint_dir=ckpt, telemetry_dir=telemetry_dir,
        )
        assert fresh.computed == len(POLICIES) and fresh.resumed == 0

        resumed, resumed_dir = _run(
            tmp_path, "resumed", parallel=2,
            checkpoint_dir=ckpt, telemetry_dir=telemetry_dir,
        )
        assert resumed.computed == 0
        assert resumed.resumed == len(POLICIES)
        for name in fresh.results:
            assert fresh.results[name].summary == resumed.results[name].summary

        # the resumed run exports the same result bytes without recomputing
        _assert_identical_outputs(fresh_dir / "export", resumed_dir / "export")

    def test_duplicate_policies_rejected_before_any_shard_runs(self, tmp_path):
        # Duplicate names would collide in the merged dict and in the
        # checkpoint and telemetry file names; nothing may start or be
        # written before the check fails.
        ckpt = tmp_path / "ckpt"
        with pytest.raises(ValueError, match="duplicate policy"):
            run_comparison_sharded(
                CONFIG,
                policies=(greedy_policy(), greedy_policy()),
                parallel=2,
                checkpoint_dir=ckpt,
                telemetry=TelemetrySpec(prefix="endtoend", metrics_dir=str(tmp_path / "m")),
            )
        assert not ckpt.exists()
        assert not (tmp_path / "m").exists()


class TestOtherDrivers:
    """The chaos twins and the Figs. 9-10 sweep keep the contract too."""

    def test_chaos_twins_parallel_2_equal_inline(self):
        serial = run_chaos_sharded(CHAOS, policies=POLICIES)
        pooled = run_chaos_sharded(CHAOS, policies=POLICIES, parallel=2)
        assert list(serial.results) == [p.name for p in POLICIES]
        for pair in serial.results.values():
            assert list(pair) == ["clean", "faulted"]
            assert not pair["clean"].fault_log and pair["faulted"].fault_log
        assert pooled.results == serial.results

    def test_sweep_parallel_2_equals_inline_in_sweep_order(self):
        serial = run_scalability_sharded(SCALABILITY, policies=POLICIES)
        pooled = run_scalability_sharded(SCALABILITY, policies=POLICIES, parallel=2)
        # Point-major, techniques in policy order at each point.
        assert [(p.n_workers, p.policy_name) for p in serial.results.points] == [
            (workers, policy.name)
            for workers, _, _ in SCALABILITY.points()
            for policy in POLICIES
        ]
        assert pooled.results.points == serial.results.points
