"""Acceptance: the all-faults scenario end to end.

One of every fault kind strikes the same seeded workload for all three
techniques, with invariants I1-I4, I6, I7 audited every simulated second.  The run
must complete with zero violations, every policy must degrade gracefully
rather than collapse, and the paper's technique ordering — REACT >= Greedy
>= Traditional on on-time ratio — must survive the chaos.
"""

import pytest

from repro.chaos import FAULT_KINDS
from repro.dist import run_chaos_sharded
from repro.experiments.chaos import ChaosConfig, report_chaos, standard_schedule

CONFIG = ChaosConfig(
    n_workers=60, arrival_rate=1.0, n_tasks=300, drain_time=300.0, seed=17
)


@pytest.fixture(scope="module")
def comparison():
    return run_chaos_sharded(CONFIG, schedule=standard_schedule(CONFIG)).results


class TestAllFaultsEndToEnd:
    def test_every_policy_survives_every_fault(self, comparison):
        # Getting results back at all means no InvariantViolation fired
        # during ~1000 per-second audits per run; double-check the audit
        # grids actually ran and all six faults actually struck.
        schedule = standard_schedule(CONFIG)
        for pair in comparison.values():
            for result in pair.values():
                assert result.invariant_audits >= int(CONFIG.horizon(schedule)) - 1
            faulted = pair["faulted"]
            assert faulted.summary["chaos_faults_injected"] == len(FAULT_KINDS)
            activated = {e.kind for e in faulted.fault_log if e.action == "activate"}
            assert len(activated) == len(FAULT_KINDS)

    def test_degradation_is_graceful(self, comparison):
        for name, pair in comparison.items():
            drop = pair["clean"].on_time_fraction - pair["faulted"].on_time_fraction
            assert drop <= 0.15, f"{name} collapsed under faults (drop {drop:.1%})"
            # Conservation under chaos: every task is accounted for.
            # (Traditional legitimately strands abandoned tasks in the
            # assigned pool forever — it has no Eq. 2 sweep and no expiry
            # pull-back; REACT and Greedy must drain completely.)
            summary = pair["faulted"].summary
            pending = (
                summary["pending_unassigned"]
                + summary["pending_assigned"]
                + summary["pending_deferred"]
            )
            terminal = summary["completed"] + summary["expired_unassigned"]
            assert terminal + pending == CONFIG.n_tasks
            if name != "traditional":
                assert pending == 0

    def test_technique_ordering_survives_the_faults(self, comparison):
        react = comparison["react"]["faulted"].on_time_fraction
        greedy = comparison["greedy"]["faulted"].on_time_fraction
        traditional = comparison["traditional"]["faulted"].on_time_fraction
        assert react >= greedy >= traditional

    def test_report_renders(self, comparison):
        text = report_chaos(comparison)
        for name in ("react", "greedy", "traditional"):
            assert name in text
        assert "on-time ratio under injected faults" in text
        assert "I1-I4, I6, I7" in text
