"""Per-fault-kind regression suite.

For every fault kind, an audited REACT run (invariants I1-I4, I6, I7 re-checked
every simulated second) under a single injected fault must

a) replay bit-identically from the same seeds,
b) never violate an invariant (the monitor raises mid-run if it does),
c) degrade the on-time ratio only within a per-kind bound versus the
   fault-free twin run at the same seed, and
d) fully recover: completions resume after the fault window and every
   task is accounted for by the end of the drain.
"""

import pytest

from repro.chaos import (
    AbandonmentWave,
    BlackoutFault,
    FaultSchedule,
    MatcherStallFault,
    NoShowFault,
    StaleProfileFault,
    SweepOutageFault,
)
from repro.experiments.chaos import ChaosConfig, ChaosRunResult, run_chaos
from repro.platform.policies import react_policy

CONFIG = ChaosConfig(
    n_workers=40, arrival_rate=0.8, n_tasks=160, drain_time=300.0, seed=23
)

FAULT_START = 60.0
FAULT_WINDOW = 40.0

#: (fault instance, max tolerated on-time drop vs. the fault-free twin).
#: The bounds are deliberately loose — they catch "the platform fell over",
#: not noise — but every one of them would trip if a fault kind started
#: losing tasks instead of degrading gracefully.
CASES = {
    "abandonment-wave": (
        AbandonmentWave(start=FAULT_START, fraction=0.75),
        0.30,
    ),
    "no-show": (
        NoShowFault(
            start=FAULT_START, duration=FAULT_WINDOW, probability=0.8, hold_time=20.0
        ),
        0.30,
    ),
    "stale-profile": (
        StaleProfileFault(start=FAULT_START, duration=FAULT_WINDOW, distortion=15.0),
        0.25,
    ),
    "matcher-stall": (
        MatcherStallFault(start=FAULT_START, duration=FAULT_WINDOW, extra_latency=25.0),
        0.30,
    ),
    "sweep-outage": (
        SweepOutageFault(start=FAULT_START, duration=FAULT_WINDOW),
        0.25,
    ),
    "blackout": (
        BlackoutFault(start=FAULT_START, duration=30.0),
        0.35,
    ),
}

_CACHE = {}


def _run(kind=None):
    """Cached audited run: ``kind=None`` is the fault-free twin."""
    if kind not in _CACHE:
        schedule = None
        if kind is not None:
            schedule = FaultSchedule(faults=(CASES[kind][0],), seed=5)
        _CACHE[kind] = run_chaos(react_policy(cycles=300), CONFIG, schedule=schedule)
    return _CACHE[kind]


@pytest.fixture(scope="module", params=sorted(CASES), ids=sorted(CASES))
def kind(request):
    return request.param


def test_clean_twin_baseline():
    clean = _run(None)
    assert clean.summary["received"] == CONFIG.n_tasks
    assert clean.on_time_fraction > 0.4
    assert clean.summary["chaos_faults_injected"] == 0


def test_replays_bit_identically(kind):
    first = _run(kind)
    schedule = FaultSchedule(faults=(CASES[kind][0],), seed=5)
    second = run_chaos(react_policy(cycles=300), CONFIG, schedule=schedule)
    assert first.summary == second.summary
    assert first.fault_log == second.fault_log
    assert first.outcomes == second.outcomes


def test_invariants_audited_throughout(kind):
    # run_chaos raises InvariantViolation mid-run on any breach; getting a
    # result back *is* the assertion.  Check the audit grid actually ran.
    result = _run(kind)
    horizon = CONFIG.horizon(FaultSchedule(faults=(CASES[kind][0],)))
    assert result.invariant_audits >= int(horizon) - 1


def test_fault_actually_fired(kind):
    result = _run(kind)
    fault = CASES[kind][0]
    activations = [e for e in result.fault_log if e.action == "activate"]
    assert [e.kind for e in activations] == [fault.kind]
    assert activations[0].time == fault.start
    if fault.duration > 0:
        deactivations = [e for e in result.fault_log if e.action == "deactivate"]
        assert [e.kind for e in deactivations] == [fault.kind]
        assert deactivations[0].time == fault.end
    # ...and left a trace in the metrics.
    expected_counter = {
        "abandonment-wave": "chaos_abandonments",
        "no-show": "chaos_no_shows",
        "stale-profile": "chaos_corrupted_observations",
        "matcher-stall": "matcher_stall_seconds",
        "sweep-outage": None,  # an outage *prevents* actions; see below
        "blackout": "blackout_orphaned",
    }[kind]
    if expected_counter is not None:
        assert result.summary[expected_counter] > 0


def test_degradation_is_bounded(kind):
    clean, faulted = _run(None), _run(kind)
    _, max_drop = CASES[kind]
    drop = clean.on_time_fraction - faulted.on_time_fraction
    assert drop <= max_drop, (
        f"{kind}: on-time dropped {drop:.1%} (clean "
        f"{clean.on_time_fraction:.1%} -> faulted {faulted.on_time_fraction:.1%})"
    )


def test_full_recovery_after_fault_window(kind):
    faulted = _run(kind)
    fault = CASES[kind][0]
    # Conservation: every submitted task reached a terminal state...
    summary = faulted.summary
    assert summary["received"] == CONFIG.n_tasks
    assert summary["completed"] + summary["expired_unassigned"] == CONFIG.n_tasks
    # ...nothing is stuck in a queue or the deferred pool...
    assert summary["pending_unassigned"] == 0
    assert summary["pending_assigned"] == 0
    assert summary["pending_deferred"] == 0
    # ...and the platform kept completing tasks *after* the window closed.
    post_fault = [
        completed_at
        for (_task_id, met, completed_at) in faulted.outcomes
        if met and completed_at is not None and completed_at > fault.end + 30.0
    ]
    assert post_fault, f"{kind}: no on-time completions after recovery"


def test_blackout_readopts_orphans():
    result = _run("blackout")
    summary = result.summary
    assert summary["blackout_orphaned"] > 0
    assert summary["readopted_tasks"] == summary["blackout_orphaned"]
    deactivation = [e for e in result.fault_log if e.action == "deactivate"][0]
    assert f"readopted={summary['readopted_tasks']}" in deactivation.detail
