"""Differential oracle: the row-index Eq. 2 monitor against the full scan.

Each seeded run is made twice, once with the production monitor and once
with :class:`tests.platform.full_scan.FullScanMonitor`.  The two must reach
identical withdrawals (time, task, worker, elapsed, probability) and
identical run summaries.
"""

from dataclasses import astuple

import pytest

from repro.chaos import AbandonmentWave, BlackoutFault, FaultSchedule, SweepOutageFault
from repro.experiments.chaos import ChaosConfig, run_chaos
from repro.experiments.endtoend import EndToEndConfig, run_endtoend
from repro.platform.policies import greedy_policy, react_policy

from .full_scan import monitors

POLICIES = {"react": lambda: react_policy(cycles=1000), "greedy": greedy_policy}

#: The quick §V-C comparison.
QUICK_VC = EndToEndConfig(n_workers=150, arrival_rate=1.875, n_tasks=1600, drain_time=400.0)
#: Workers who leave and return with the same id.
CHURN = EndToEndConfig(
    n_workers=200, n_tasks=3000, churn_mean_session=120.0, churn_mean_absence=60.0
)
CHAOS = ChaosConfig(n_workers=80, n_tasks=600, seed=7)
CHAOS_SCHEDULE = FaultSchedule(
    (
        AbandonmentWave(start=80.0, fraction=0.6),
        SweepOutageFault(start=150.0, duration=40.0),
        AbandonmentWave(start=200.0, fraction=0.8),
        BlackoutFault(start=260.0, duration=30.0),
        AbandonmentWave(start=300.0, fraction=0.5),
    ),
    seed=3,
)


def _twice(run):
    """(summary, withdrawals) for the production monitor, then the full scan."""
    out = []
    for full_scan in (False, True):
        with monitors(full_scan) as built:
            result = run()
        assert len(built) == 1
        out.append((result.summary, [astuple(w) for w in built[0].withdrawals]))
    return out


def _assert_same(run):
    (summary, withdrawals), (ref_summary, ref_withdrawals) = _twice(run)
    assert withdrawals, "the run must exercise the Eq. 2 rule"
    assert withdrawals == ref_withdrawals
    assert summary == ref_summary


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_quick_vc_comparison(policy):
    _assert_same(lambda: run_endtoend(POLICIES[policy](), QUICK_VC))


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_churn(policy):
    _assert_same(lambda: run_endtoend(POLICIES[policy](), CHURN))


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_chaos_abandonment_waves_and_blackout(policy):
    _assert_same(lambda: run_chaos(POLICIES[policy](), CHAOS, CHAOS_SCHEDULE))
