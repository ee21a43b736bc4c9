"""A finished simulated run leaves nothing behind.

A run's object graph is owned one way (DESIGN.md, "Ownership"): the driver
holds the engine and the server, the server its components, and a child
calls back into its owner through a weak reference.  When the run ends the
driver empties its engine.  Reference counting then frees the whole graph
the moment the driver returns, so the cyclic collector finds nothing:

* ``gc.collect()`` returns 0 after each run, with the collector disabled
  and one warm-up run in the process (imports and lazy caches allocate
  cyclic garbage once);
* traced memory after a run is back near its value before it.  A graph
  kept alive by a live reference (a module-level registry or cache) is not
  garbage, so only this check sees it.
"""

import gc
import tracemalloc
from contextlib import contextmanager

import pytest

from repro.experiments.chaos import ChaosConfig, run_chaos, standard_schedule
from repro.experiments.config import EndToEndConfig
from repro.experiments.endtoend import arm_arrivals, assemble_run, run_endtoend
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.experiments.voting import VotingConfig, run_voting_comparison
from repro.obs import Observability
from repro.platform.invariants import InvariantMonitor
from repro.platform.policies import greedy_policy, react_policy, traditional_policy

SMALL = EndToEndConfig(n_workers=30, arrival_rate=3.0, n_tasks=300, drain_time=100.0, seed=1)
CHURN = EndToEndConfig(
    n_workers=30, arrival_rate=3.0, n_tasks=300, drain_time=100.0, seed=1,
    churn_mean_session=60.0,
)
CHAOS = ChaosConfig(n_workers=30, arrival_rate=0.8, n_tasks=120, drain_time=150.0)
#: for the tracemalloc check, which slows the run down several times
TINY = EndToEndConfig(n_workers=20, arrival_rate=3.0, n_tasks=150, drain_time=100.0, seed=1)
VOTING = VotingConfig(
    n_workers=20, arrival_rate=0.4, n_tasks=60, replication_levels=(1, 3), seed=3
)
#: the CLI's ``scenario --quick`` configuration
SCENARIO = ScenarioConfig(n_tasks=150, n_workers=50, horizon=150.0, requester_budget=0.3)


def _cut_mid_execution(stop=True):
    """A run that ends while executions are out: their completion events
    never fire, yet the assignment records hold them.  Without ``stop`` the
    periodic batch trigger and Eq. 2 sweep are still armed at the end."""
    config = EndToEndConfig(
        n_workers=30, arrival_rate=3.0, n_tasks=300, drain_time=0.0, seed=1
    )
    with assemble_run(react_policy(), config) as (engine, rng, server, crowd):
        for profile, behavior in crowd:
            server.add_worker(profile, behavior)
        server.start()
        arm_arrivals(engine, rng, config, server.submit_task)
        engine.run(until=config.horizon)
        if stop:
            server.stop()
        assert any(
            assignment.completion_event is not None
            for assignment in server.task_management._assigned.values()
        ), "the run must end with executions in flight"


def _audited_without_monitor_stop():
    """An audited run whose invariant monitor is never stopped: only its
    periodic process and the engine refer to it at the end."""
    with assemble_run(react_policy(), SMALL) as (engine, rng, server, crowd):
        for profile, behavior in crowd:
            server.add_worker(profile, behavior)
        server.start()
        InvariantMonitor(engine, server).start()
        arm_arrivals(engine, rng, SMALL, server.submit_task)
        engine.run(until=SMALL.horizon)
        server.stop()


RUNS = {
    "traditional": lambda: run_endtoend(traditional_policy(), SMALL),
    "react": lambda: run_endtoend(react_policy(), SMALL),
    "greedy": lambda: run_endtoend(greedy_policy(), SMALL),
    "react_churn": lambda: run_endtoend(react_policy(), CHURN),
    "react_observability": lambda: run_endtoend(
        react_policy(), SMALL, observability=Observability()
    ),
    "chaos_standard_schedule": lambda: run_chaos(
        react_policy(), CHAOS, schedule=standard_schedule(CHAOS)
    ),
    "voting": lambda: run_voting_comparison(VOTING),
    "cut_mid_execution": _cut_mid_execution,
    "cut_without_stop": lambda: _cut_mid_execution(stop=False),
    "audited_without_monitor_stop": _audited_without_monitor_stop,
    "scenario": lambda: run_scenario(react_policy(), SCENARIO),
}


@pytest.fixture(scope="module")
def warmed_up():
    run_endtoend(react_policy(), SMALL)


@contextmanager
def collector_off():
    """Collect what pytest left, then keep the collector out of the run."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_finished_run_leaves_no_cyclic_garbage(name, warmed_up):
    with collector_off():
        RUNS[name]()
        unreachable = gc.collect()
    assert unreachable == 0


def test_a_finished_run_releases_its_memory(warmed_up):
    """Two back-to-back runs: each returns traced memory to near where it
    started.  A run's graph here is ~300 KB; what stays behind (~40 KB)
    is the interpreter's free lists of tuples and floats."""
    with collector_off():
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            run_endtoend(react_policy(), TINY)
            after_first = tracemalloc.get_traced_memory()[0]
            run_endtoend(react_policy(), TINY)
            after_second = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    assert after_first - baseline < 128 * 1024
    assert abs(after_second - after_first) < 16 * 1024
