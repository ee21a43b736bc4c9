"""Differential oracle: the columnar graph build against the per-worker walk.

Hypothesis draws a worker population, registers it with a
:class:`~repro.platform.profiling.ProfilingComponent` (some workers busy,
offline, or departed and returned), and builds the batch graph twice: once
through the worker table, as the Scheduling Component does, and once with
:mod:`tests.graph.per_worker_oracle`.  The keep mask, the weights, the Eq. 3
matrix and the :class:`~repro.graph.builders.GraphBuildReport` must be
bit-identical, before and after the histories grow.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deadline import DeadlineEstimator
from repro.core.weights import AccuracyWeight, DistanceWeight, HybridWeight
from repro.graph.bipartite import BipartiteGraph
from repro.graph.builders import AssignmentGraphBuilder, RewardRange
from repro.model.task import Task, TaskCategory
from repro.model.worker import WorkerProfile
from repro.model.worker_table import profile_mismatches
from repro.platform.profiling import ProfilingComponent
from repro.stats.duration_models import EmpiricalFamily, LogNormalFamily

from . import per_worker_oracle as oracle

CATEGORIES = (TaskCategory.GENERIC, TaskCategory.PRICE_CHECK, TaskCategory.TRAFFIC_MONITORING)
WEIGHTS = {
    "accuracy": AccuracyWeight,
    "distance": lambda: DistanceWeight(max_km=8.0),
    "hybrid": lambda: HybridWeight(beta=0.3, max_km=8.0),
}
FAMILIES = {"powerlaw": lambda: None, "empirical": EmpiricalFamily, "lognormal": LogNormalFamily}

#: Rewards on and just past the drawn reward-range bounds.
REWARDS = (0.01, 0.04, 0.05, 0.055, 0.1, 0.15, 0.155, 0.2)

durations = st.floats(0.5, 150.0, allow_nan=False)
feedback = st.tuples(durations, st.sampled_from(CATEGORIES), st.booleans())


@st.composite
def workers(draw, worker_id):
    profile = WorkerProfile(
        worker_id=worker_id,
        latitude=draw(st.floats(37.95, 38.05)),
        longitude=draw(st.floats(23.65, 23.75)),
    )
    for duration, category, positive in draw(st.lists(feedback, max_size=8)):
        profile.record_completion(duration, category, positive)
    profile.assignment_count = draw(st.integers(0, 5))
    state = draw(st.sampled_from(("free", "free", "busy", "offline", "returned")))
    return profile, state


@st.composite
def batches(draw):
    n_workers = draw(st.integers(1, 10))
    population = [draw(workers(worker_id)) for worker_id in range(n_workers)]
    now = draw(st.floats(0.0, 150.0))
    tasks = [
        Task(
            latitude=draw(st.floats(37.95, 38.05)),
            longitude=draw(st.floats(23.65, 23.75)),
            deadline=draw(st.floats(1.0, 200.0)),
            submitted_at=draw(st.floats(0.0, 100.0)),
            category=draw(st.sampled_from(CATEGORIES)),
            reward=draw(st.sampled_from(REWARDS)),
        )
        for _ in range(draw(st.integers(1, 6)))
    ]
    ranges = draw(
        st.dictionaries(
            st.integers(0, n_workers + 2),
            st.builds(
                RewardRange,
                st.sampled_from((0.0, 0.04, 0.05)),
                st.sampled_from((0.05, 0.06, 0.15, float("inf"))),
            ),
            max_size=4,
        )
    )
    funded = draw(st.none() | st.lists(st.booleans(), min_size=len(tasks), max_size=len(tasks)))
    return dict(
        population=population,
        tasks=tasks,
        now=now,
        ranges=ranges,
        funded=funded,
        min_history=draw(st.sampled_from((0, 1, 3))),
        family=draw(st.sampled_from(sorted(FAMILIES))),
        weight=draw(st.sampled_from(sorted(WEIGHTS))),
        bound=draw(st.sampled_from((0.0, 0.1, 0.5, 0.9))),
        min_weight=draw(st.none() | st.sampled_from((0.2, 0.6))),
        later=draw(st.lists(st.tuples(st.integers(0, n_workers - 1), durations), max_size=6)),
    )


class _Budget:
    def __init__(self, tasks, funded):
        self._funded = {task.task_id: ok for task, ok in zip(tasks, funded)}

    def allows(self, task):
        return self._funded[task.task_id]


def _register(population):
    component = ProfilingComponent()
    for profile, _state in population:
        component.register(profile)
    for profile, state in population:
        if state == "busy":
            component.record_assignment(profile.worker_id, task_id=10_000 + profile.worker_id)
        elif state == "offline":
            component.set_online(profile.worker_id, False)
        elif state == "returned":
            component.register(component.deregister(profile.worker_id))
    return component


def _assert_same_build(case, component, builder, reference):
    tasks, now = case["tasks"], case["now"]
    rows = component.table.rows(component.available_workers())
    profiles = [p for p in component if p.online and p.available]
    assert rows.profiles.tolist() == profiles  # registration order, returns last

    graph, report = builder.build(rows, tasks, now)
    keep, weights, expected = oracle.build(builder, reference, profiles, tasks, now)
    assert report == expected
    if not profiles:
        assert graph.n_edges == 0
        return
    want = BipartiteGraph.from_dense(weights, mask=keep)
    assert graph.edge_workers.tobytes() == want.edge_workers.tobytes()
    assert graph.edge_tasks.tobytes() == want.edge_tasks.tobytes()
    assert graph.edge_weights.tobytes() == want.edge_weights.tobytes()

    plain = builder.weight_function.matrix(rows, tasks)
    expected_weights = oracle.weight_matrix(builder.weight_function, profiles, tasks)
    assert plain.tobytes() == expected_weights.tobytes()
    ttd = np.array([task.time_to_deadline(now) for task in tasks], dtype=np.float64)
    eq3 = builder.estimator.completion_probability_matrix(rows, ttd)
    assert eq3.tobytes() == oracle.eq3_matrix(reference, profiles, ttd).tobytes()


@given(case=batches())
@settings(max_examples=120, deadline=None)
def test_columnar_build_matches_per_worker_walk(case):
    component = _register(case["population"])

    def estimator():
        return DeadlineEstimator(case["min_history"], family=FAMILIES[case["family"]]())

    builder = AssignmentGraphBuilder(
        weight_function=WEIGHTS[case["weight"]](),
        estimator=estimator(),
        edge_probability_bound=case["bound"],
        min_weight=case["min_weight"],
        reward_ranges=case["ranges"],
        budget=None if case["funded"] is None else _Budget(case["tasks"], case["funded"]),
    )
    reference = estimator()
    _assert_same_build(case, component, builder, reference)

    # Histories grow between batches: the stale rows must be refitted.
    for worker_id, duration in case["later"]:
        profile = component.get(worker_id)
        if profile.current_task is None:
            component.record_completion(worker_id, duration, CATEGORIES[0], duration < 20.0)
        else:
            component.record_withdrawal(
                worker_id, elapsed=duration, task_id=profile.current_task
            )
    assert profile_mismatches(component.table, list(component)) == []
    _assert_same_build(case, component, builder, reference)
