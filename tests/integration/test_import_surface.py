"""What a fresh interpreter loads, and what still runs without SciPy.

SciPy backs only the Hungarian optimum (Fig. 4's yardstick) and the
lognormal ablation, and asyncio only the ``loadtest`` service stack, so
neither may be pulled in by importing the package or its CLI; the package
root also defers ``repro.dist`` (hashlib, multiprocessing).  Every case
runs in a fresh subprocess: ``sys.modules`` of the test process has long
since seen both.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Prepended to a child script: a finder that makes ``scipy`` (and every
#: submodule) unimportable, as on an install without it.
BLOCK_SCIPY = """
import sys

class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, _NoScipy())
"""


def _run(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


def test_cli_import_loads_neither_scipy_nor_asyncio():
    result = _run(
        """
        import sys
        import repro.experiments.cli
        print(sorted(m for m in ("scipy", "asyncio") if m in sys.modules))
        """
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"


def test_package_import_defers_the_sharded_runners():
    # repro.dist loads hashlib and multiprocessing; the root package
    # exports its runners but imports them on first use.
    result = _run(
        """
        import sys
        import repro
        print("repro.dist" in sys.modules, "hashlib" in sys.modules)
        from repro import run_comparison_sharded
        print("repro.dist" in sys.modules)
        """
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.split() == ["False", "False", "True"]


def test_comparison_runs_without_scipy():
    result = _run(
        BLOCK_SCIPY
        + """
from repro import EndToEndConfig, run_comparison_sharded

config = EndToEndConfig(n_workers=30, arrival_rate=0.5, n_tasks=60, drain_time=200, seed=5)
results = run_comparison_sharded(config).results
print(sorted(results))
assert all(r.summary["completed"] > 0 for r in results.values())
assert "scipy" not in sys.modules
"""
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "['greedy', 'react', 'traditional']"


def test_hungarian_needs_scipy_only_when_it_matches():
    result = _run(
        BLOCK_SCIPY
        + """
import numpy as np
from repro import BipartiteGraph, HungarianMatcher

graph = BipartiteGraph(
    n_workers=2,
    n_tasks=2,
    edge_workers=np.array([0, 1]),
    edge_tasks=np.array([0, 1]),
    edge_weights=np.array([1.0, 2.0]),
)
try:
    HungarianMatcher().match(graph)
except ImportError as exc:
    print("ImportError", exc)
else:
    raise SystemExit("matched without scipy")
"""
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.startswith("ImportError")
