"""Injector surface: arming rules, state queries, log filtering."""

import pytest

from repro.chaos import (
    BlackoutFault,
    FaultInjector,
    FaultSchedule,
    MatcherStallFault,
    SweepOutageFault,
)
from repro.obs import Observability
from repro.platform.policies import react_policy
from repro.platform.server import REACTServer
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


@pytest.fixture
def server():
    engine = Engine()
    server = REACTServer(engine=engine, policy=react_policy(), rng=RngRegistry(seed=1))
    server.start()
    return server


def test_arm_twice_raises(server):
    injector = FaultInjector(server.engine, server, FaultSchedule())
    injector.arm()
    with pytest.raises(RuntimeError):
        injector.arm()


def test_active_faults_gauge_tracks_windows():
    engine = Engine()
    server = REACTServer(
        engine=engine, policy=react_policy(), rng=RngRegistry(seed=1),
        observability=Observability(),
    )
    server.start()
    schedule = FaultSchedule(
        faults=(MatcherStallFault(start=5.0, duration=10.0, extra_latency=1.0),)
    )
    FaultInjector(engine, server, schedule).arm()
    registry = server.obs.registry
    assert registry.value("react_chaos_faults_active") == 0
    engine.run(until=7.0)
    assert registry.value("react_chaos_faults_active") == 1
    engine.run(until=20.0)
    assert registry.value("react_chaos_faults_active") == 0


def test_overlapping_suspensions_are_reference_counted(server):
    """The sweep only resumes when the *last* overlapping window closes."""
    schedule = FaultSchedule(
        faults=(
            SweepOutageFault(start=2.0, duration=10.0),
            BlackoutFault(start=6.0, duration=10.0),
        )
    )
    FaultInjector(server.engine, server, schedule).arm()
    server.engine.run(until=4.0)
    assert server.dynamic_assignment.suspended
    assert not server.scheduling.suspended  # outage alone spares the matcher
    server.engine.run(until=13.0)  # outage over, blackout still on
    assert server.dynamic_assignment.suspended
    assert server.scheduling.suspended
    server.engine.run(until=17.0)
    assert not server.dynamic_assignment.suspended
    assert not server.scheduling.suspended


def test_entries_filters_by_kind(server):
    schedule = FaultSchedule(
        faults=(
            SweepOutageFault(start=1.0, duration=2.0),
            MatcherStallFault(start=2.0, duration=2.0, extra_latency=1.0),
        )
    )
    injector = FaultInjector(server.engine, server, schedule).arm()
    server.engine.run(until=10.0)
    assert len(injector.entries()) == 4  # two activations + two deactivations
    outage_entries = injector.entries("sweep-outage")
    assert len(outage_entries) == 2
    assert {e.action for e in outage_entries} == {"activate", "deactivate"}


def test_inject_abandonment_needs_a_live_execution(server):
    assert server.inject_abandonment(task_id=99_999) is False
    assert server.metrics.chaos_abandonments == 0
