#!/usr/bin/env python
"""Perf-regression driver: run the hot-path micro-benchmarks.

Thin wrapper over :mod:`repro.experiments.perf` so the harness can be run
without installing the package::

    python benchmarks/perf/run.py [--quick] [--out DIR]

Writes ``BENCH_matching.json``, ``BENCH_platform.json`` and
``BENCH_service.json`` to the repo root (or ``--out DIR``) and prints the
throughput table.  Compare the JSON files across commits to catch
regressions; see docs/PERFORMANCE.md.  The end-to-end run is gated by
``gate_e2e.py`` in this directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.perf import run_bench  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small workloads for a smoke run"
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR", help="directory for BENCH_*.json"
    )
    args = parser.parse_args(argv)
    print(run_bench(quick=args.quick, out_dir=args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
