"""Golden pins of the voting and chaos experiments' seeded single-region runs.

Both experiments assemble the §V-C single-region run (crowd, arrival trace,
cost model) and then differ only in what they wrap around it: voting clones
each arrival R times, chaos audits invariants and injects faults.  These
files pin their outputs end to end, so a change to the shared assembly
cannot move either experiment unnoticed:

* voting: every comparison point (``dataclasses.asdict``);
* chaos: per policy and twin, the summary, the invariant audit count, the
  fault-log length and the per-task outcomes.

Regenerate after an intentional behaviour change with:

    PYTHONPATH=src python tests/experiments/test_single_region_golden.py
"""

import dataclasses
import json
from pathlib import Path

from repro.dist import run_chaos_sharded
from repro.experiments.chaos import ChaosConfig
from repro.experiments.voting import VotingConfig, run_voting_comparison

GOLDEN_DIR = Path(__file__).parent / "goldens"
VOTING_GOLDEN = GOLDEN_DIR / "voting_points.json"
CHAOS_GOLDEN = GOLDEN_DIR / "chaos_comparison.json"


def _voting():
    result = run_voting_comparison(
        VotingConfig(
            n_workers=80, arrival_rate=0.4, n_tasks=500, replication_levels=(1, 3), seed=3
        )
    )
    return [dataclasses.asdict(point) for point in result.points]


def _chaos():
    results = run_chaos_sharded(
        ChaosConfig(n_workers=30, arrival_rate=0.8, n_tasks=120, drain_time=150.0)
    ).results
    return {
        name: {
            twin: {
                "summary": run.summary,
                "invariant_audits": run.invariant_audits,
                "fault_log": len(run.fault_log),
                "outcomes": run.outcomes,
            }
            for twin, run in pair.items()
        }
        for name, pair in results.items()
    }


def _round_trip(value):
    return json.loads(json.dumps(value))


def test_voting_matches_golden():
    got = _round_trip(_voting())
    assert [point["label"] for point in got] == ["react", "vote-1", "vote-3"]
    assert got == json.loads(VOTING_GOLDEN.read_text())


def test_chaos_matches_golden():
    got = _round_trip(_chaos())
    assert any(pair["faulted"]["fault_log"] > 0 for pair in got.values())
    assert got == json.loads(CHAOS_GOLDEN.read_text())


if __name__ == "__main__":
    VOTING_GOLDEN.write_text(json.dumps(_voting(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {VOTING_GOLDEN}")
    CHAOS_GOLDEN.write_text(json.dumps(_chaos(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {CHAOS_GOLDEN}")
