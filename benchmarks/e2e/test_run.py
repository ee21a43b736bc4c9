"""Checks of the end-to-end benchmark runner on quick inputs.

Run with ``pytest benchmarks/e2e -q`` (outside the tier-1 ``testpaths``);
the whole file takes a couple of minutes.
"""

from __future__ import annotations

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUNNER = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
QUICK = ["--quick", "--seconds", "1"]

sys.path.insert(0, str(HERE))
from layer_trace import LayerTracer  # noqa: E402


def load_runner():
    spec = importlib.util.spec_from_file_location("e2e_run", RUNNER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def invoke(runner: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(runner), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_benchmark(dest: Path) -> Path:
    """BENCHMARK.json plus the files under its paths, and nothing else."""
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest / "benchmarks" / "e2e" / "run.py"


def test_spec_names_are_valid_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_matches_spec(workload, trace, tmp_path):
    args = ["--workload", workload, "--trace", str(trace), *QUICK]
    if trace:
        args += ["--trace-out", str(tmp_path)]
    proc = invoke(RUNNER, *args)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # correct also covers the traced-run checks: every expected layer
    # recorded a span, traced summaries equal untraced ones, coverage >= 0.95.
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for entry in declared:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    if trace:
        events = json.loads((tmp_path / f"{workload}.trace.json").read_text())["traceEvents"]
        assert events
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_is_transparent_and_covered():
    runner = load_runner()
    runner.use_checkout_src()
    from repro.experiments.config import EndToEndConfig
    from repro.sim.engine import Engine

    original = vars(Engine)["run"]
    workload = runner.WORKLOADS["vc_comparison"]
    config = EndToEndConfig(seed=42, **runner.INPUTS[workload.inputs]["quick"])
    policies = runner.make_policies(workload.policies)
    plain = runner.run_sequential(config, policies)
    with LayerTracer() as tracer:
        traced = runner.run_sequential(config, policies, sample=False)
    assert vars(Engine)["run"] is original
    assert traced.summaries == plain.summaries
    spans = tracer.span_counts()
    for layer in runner.expected_layers(workload):
        assert spans[layer] > 0, layer
    self_ns = tracer.self_ns()
    roots = sum(end - start for _l, start, end, parent in tracer.spans if parent < 0)
    assert sum(self_ns.values()) == roots
    assert roots / 1e9 >= runner.MIN_COVERAGE * traced.wall


def test_tampered_golden_fails(tmp_path):
    runner = copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    goldens_path = runner.parent / "goldens.json"
    goldens = json.loads(goldens_path.read_text())
    goldens["quick"]["vc"]["react"]["completed"] += 1
    goldens_path.write_text(json.dumps(goldens))
    proc = invoke(runner, "--workload", "vc_comparison", "--seed", "42", *QUICK, cwd=tmp_path)
    assert proc.returncode != 0
    result = last_json(proc)
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    runner = copy_benchmark(tmp_path)
    proc = invoke(runner, "--workload", "vc_comparison", "--seed", "1", *QUICK, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
