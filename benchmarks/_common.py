"""Shared fixtures/helpers for the figure benchmarks.

Each ``bench_figN_*.py`` regenerates one figure of the paper: it times the
relevant computation with pytest-benchmark, prints the same rows/series the
paper plots (via :mod:`repro.experiments.reporting`), and asserts the
figure's qualitative shape so a regression cannot silently pass.

The Figs. 5-8 benches run the paper's full-scale workload (750 workers,
9.375 tasks/s, 8371 tasks) and the Figs. 9-10 benches the full size sweep —
each simulated once and shared across the bench files via ``lru_cache``
(roughly half a minute and a minute and a half of wall-clock respectively).
The per-test ``benchmark`` timings use a 1/5-scale run so pytest-benchmark
rounds stay cheap.
"""

from __future__ import annotations

from functools import lru_cache

from repro.dist import run_comparison_sharded, run_scalability_sharded
from repro.experiments.config import (
    EndToEndConfig,
    MatchingSweepConfig,
    ScalabilityConfig,
)
from repro.experiments.matching_bench import run_matching_sweep

#: Full paper-scale Figs. 5-8 workload (§V-C).
ENDTOEND_CONFIG = EndToEndConfig()

#: 1/5-scale variant used for the per-test wall-clock timing rounds.
ENDTOEND_TIMING_CONFIG = EndToEndConfig(
    n_workers=150, arrival_rate=1.875, n_tasks=1675, drain_time=400, seed=42
)

#: Scaled Figs. 3-4 sweep: 300 workers, tasks up to 300, two cycle settings.
MATCHING_CONFIG = MatchingSweepConfig(
    n_workers=300,
    task_counts=(1, 75, 150, 300),
    cycles_settings=(1000, 3000),
    include_hungarian=True,
    seed=7,
)

#: The paper's full Figs. 9-10 sweep (100..1000 workers, 1.5..12.5 tasks/s).
SCALABILITY_CONFIG = ScalabilityConfig()


@lru_cache(maxsize=1)
def endtoend_results():
    """One shared Figs. 5-8 comparison run (REACT / Greedy / Traditional)."""
    return run_comparison_sharded(ENDTOEND_CONFIG).results


@lru_cache(maxsize=1)
def matching_results():
    """One shared Figs. 3-4 sweep."""
    return run_matching_sweep(MATCHING_CONFIG)


@lru_cache(maxsize=1)
def scalability_results():
    """One shared Figs. 9-10 sweep."""
    return run_scalability_sharded(SCALABILITY_CONFIG).results
