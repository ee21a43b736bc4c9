"""Golden pin of REACT under the non-power-law duration families.

``react_policy(duration_model=...)`` swaps the distribution behind
Eqs. 2-3 (the ABL-MODEL ablation).  An empirical or lognormal fit has no
``alpha``/``k_min`` columns, so the Eq. 3 matrix and the Eq. 2 sweep take
their per-row fallback, evaluating each such worker's fitted model
directly.  The seeded power-law runs in ``benchmarks/e2e`` never reach that
fallback, so this file pins it: one small churned run per family, with its
end-to-end summary, its Eq. 2 withdrawal count and the estimator's fit
counters (``react_fit_cache_hits`` / ``react_fit_cache_misses``).  Churn
makes workers leave and return mid-run, so departed workers' fits and
returning workers' refits are covered too.

Regenerate after an intentional behaviour change with:

    PYTHONPATH=src python tests/integration/test_duration_model_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.experiments.config import EndToEndConfig
from repro.experiments.endtoend import run_endtoend
from repro.obs import Observability
from repro.platform.policies import react_policy

GOLDEN = Path(__file__).parent / "goldens" / "duration_models.json"

FAMILIES = ("empirical", "lognormal")
CONFIG = EndToEndConfig(
    n_workers=60,
    arrival_rate=1.0,
    n_tasks=400,
    drain_time=300.0,
    seed=7,
    churn_mean_session=200.0,
)
FIT_GAUGES = ("react_fit_cache_hits", "react_fit_cache_misses")


def _run(family):
    obs = Observability()
    result = run_endtoend(react_policy(duration_model=family), CONFIG, observability=obs)
    samples = {s.name: s.value for s in obs.registry.snapshot()}
    return {
        "summary": result.summary,
        "withdrawals": result.withdrawals,
        "fits": {name: samples[name] for name in FIT_GAUGES},
    }


@pytest.mark.parametrize("family", FAMILIES)
def test_non_power_law_run_matches_golden(family):
    got = _run(family)
    assert got["withdrawals"] > 0
    assert got["fits"]["react_fit_cache_misses"] > 0
    assert json.loads(json.dumps(got)) == json.loads(GOLDEN.read_text())[family]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({family: _run(family) for family in FAMILIES}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
