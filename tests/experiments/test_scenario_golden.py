"""Golden pin of the default scenario pack (budgets x hot regions x task mix).

``run_scenario_sharded(ScenarioConfig())`` is tuned so every policy trips
region splits, cross-region task migration and budget shedding.  A split
hands the idle workers located in the new half to the new server, so this
file pins the split-migration path end to end: per policy, the summary, the
split and migration counts, the budget-shed count and the ledger summary.

Regenerate after an intentional behaviour change with:

    PYTHONPATH=src python tests/experiments/test_scenario_golden.py
"""

import json
from pathlib import Path

from repro.dist import run_scenario_sharded
from repro.experiments.scenario import ScenarioConfig

GOLDEN = Path(__file__).parent / "goldens" / "scenario_default.json"


def _run():
    return {
        name: {
            "summary": result.summary,
            "splits_performed": result.splits_performed,
            "tasks_migrated": result.tasks_migrated,
            "workers_migrated": result.workers_migrated,
            "shed_by_budget": result.shed_by_budget,
            "budget": result.budget,
        }
        for name, result in run_scenario_sharded(ScenarioConfig()).results.items()
    }


def test_default_scenario_matches_golden():
    got = json.loads(json.dumps(_run()))
    assert any(run["workers_migrated"] > 0 for run in got.values())
    assert got == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_run(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
