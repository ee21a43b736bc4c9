"""Tests for CSV/JSON result export."""

import csv
import json

import pytest

from repro.dist import run_comparison_sharded, run_scalability_sharded
from repro.experiments.config import EndToEndConfig, MatchingSweepConfig, ScalabilityConfig
from repro.experiments.export import (
    export_endtoend,
    export_matching_sweep,
    export_scalability,
    export_timeline,
)
from repro.experiments.matching_bench import run_matching_sweep
from repro.stats.timeline import Timeline, TimelineSample


@pytest.fixture(scope="module")
def tiny_comparison():
    return run_comparison_sharded(
        EndToEndConfig(n_workers=20, arrival_rate=0.3, n_tasks=40, drain_time=300)
    ).results


class TestMatchingExport:
    def test_round_trip(self, tmp_path):
        sweep = run_matching_sweep(
            MatchingSweepConfig(n_workers=20, task_counts=(5, 10), cycles_settings=(50,))
        )
        path = export_matching_sweep(sweep, tmp_path / "fig3_4.csv")
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(sweep.points)
        assert {r["algorithm"] for r in rows} == {"greedy", "react", "metropolis"}
        # weights survive the formatting round trip
        assert float(rows[0]["output_weight"]) == pytest.approx(
            sweep.points[0].output_weight, abs=1e-3
        )


class TestEndToEndExport:
    def test_writes_series_and_summary(self, tmp_path, tiny_comparison):
        written = export_endtoend(tiny_comparison, tmp_path)
        names = {p.name for p in written}
        assert "fig5_8_summary.json" in names
        assert "fig5_6_series_react.csv" in names
        summary = json.loads((tmp_path / "fig5_8_summary.json").read_text())
        assert set(summary) == {"react", "greedy", "traditional"}
        assert summary["react"]["received"] == 40

    def test_series_rows_match_metrics(self, tmp_path, tiny_comparison):
        export_endtoend(tiny_comparison, tmp_path)
        with (tmp_path / "fig5_6_series_react.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(tiny_comparison["react"].deadline_series)
        if rows:
            last = rows[-1]
            assert int(last["on_time"]) == tiny_comparison["react"].summary[
                "completed_on_time"
            ]


class TestScalabilityExport:
    def test_round_trip(self, tmp_path):
        result = run_scalability_sharded(
            ScalabilityConfig(worker_sizes=(10,), rates=(0.2,), duration=50.0,
                              drain_time=200.0)
        ).results
        path = export_scalability(result, tmp_path / "fig9_10.csv")
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3  # one per technique
        assert {r["technique"] for r in rows} == {"react", "greedy", "traditional"}


class TestTimelineExport:
    def test_round_trip(self, tmp_path):
        timeline = Timeline(
            samples=[
                TimelineSample(
                    time=0.0, unassigned=1, executing=0, busy_workers=0,
                    available_workers=3, trained_workers=0, completed=0,
                    completed_on_time=0, expired_unassigned=0,
                    matcher_busy_seconds=0.0,
                )
            ]
        )
        path = export_timeline(timeline, tmp_path / "timeline.csv")
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["unassigned"] == "1"
        assert rows[0]["available_workers"] == "3"

    def test_empty_timeline(self, tmp_path):
        path = export_timeline(Timeline(), tmp_path / "empty.csv")
        assert path.read_text().strip() == "time"
