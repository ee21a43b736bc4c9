"""Differential oracle: the columnar graph build against the per-worker walk.

Hypothesis draws a worker population, registers it with a
:class:`~repro.model.worker_table.WorkerTable` (some workers busy,
offline, or departed and returned) while the oracle keeps its own record
of each worker, and builds the batch graph twice: once through the worker
table, as the Scheduling Component does, and once with
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
from repro.graph.builders import MAX_WEIGHT, AssignmentGraphBuilder, RewardRange
from repro.model.task import Task, TaskCategory
from repro.model.worker import WorkerProfile
from repro.model.worker_table import WorkerTable
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
    worker = oracle.Worker(
        worker_id=worker_id,
        latitude=draw(st.floats(37.95, 38.05)),
        longitude=draw(st.floats(23.65, 23.75)),
    )
    history = draw(st.lists(feedback, max_size=8))
    assignments = draw(st.integers(0, 5))
    state = draw(st.sampled_from(("free", "free", "busy", "offline", "returned")))
    return worker, history, assignments, state


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
        later=draw(st.lists(st.tuples(st.integers(0, n_workers - 1), durations), max_size=6)),
    )


class _Budget:
    def __init__(self, tasks, funded):
        self._funded = {task.task_id: ok for task, ok in zip(tasks, funded)}

    def allows(self, task):
        return self._funded[task.task_id]


def _register(population):
    """The population registered with a Profiling Component, with each
    write mirrored in the oracle's :class:`~per_worker_oracle.Worker`."""
    component = WorkerTable()
    for worker, history, assignments, _state in population:
        worker_id = worker.worker_id
        profile = WorkerProfile(worker_id, worker.latitude, worker.longitude)
        component.register(profile)
        for duration, category, positive in history:
            component.complete(worker_id, duration, category, positive)
            worker.complete(duration, category, positive)
        for _ in range(assignments):
            component.assign(worker_id, task_id=0)
            component.release(worker_id)
        worker.assignment_count = assignments
    for worker, _history, _assignments, state in population:
        worker_id = worker.worker_id
        if state == "busy":
            component.assign(worker_id, task_id=10_000 + worker_id)
            worker.assignment_count += 1
        elif state == "offline":
            component.set_online(worker_id, False)
        elif state == "returned":
            history = component.deregister(worker_id)
            component.register(
                WorkerProfile(worker_id, worker.latitude, worker.longitude), history
            )
    return component


def _assert_same_build(case, component, builder, reference):
    tasks, now = case["tasks"], case["now"]
    rows = component.rows(component.available_slots())
    by_id = {worker.worker_id: worker for worker, *_ in case["population"]}
    free = [by_id[w] for w in component if component.is_free(w)]
    # registration order, returns last
    assert rows.worker_ids.tolist() == [worker.worker_id for worker in free]

    graph, report = builder.build(rows, tasks, now)
    keep, weights, expected = oracle.build(builder, reference, free, tasks, now)
    assert report == expected
    if not free:
        assert graph.n_edges == 0
        return
    want = BipartiteGraph.from_dense(weights, mask=keep)
    assert graph.edge_workers.tobytes() == want.edge_workers.tobytes()
    assert graph.edge_tasks.tobytes() == want.edge_tasks.tobytes()
    assert graph.edge_weights.tobytes() == want.edge_weights.tobytes()

    plain = builder.weight_function.matrix(rows, tasks)
    expected_weights = oracle.weight_matrix(builder.weight_function, free, tasks)
    assert plain.tobytes() == expected_weights.tobytes()
    ttd = np.array([task.time_to_deadline(now) for task in tasks], dtype=np.float64)
    eq3 = builder.estimator.completion_probability_matrix(rows, ttd)
    assert eq3.tobytes() == oracle.eq3_matrix(reference, free, ttd).tobytes()


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
        reward_ranges=case["ranges"],
        budget=None if case["funded"] is None else _Budget(case["tasks"], case["funded"]),
    )
    reference = estimator()
    _assert_same_build(case, component, builder, reference)

    # Histories grow between batches: the stale rows must be refitted.
    workers = [worker for worker, *_ in case["population"]]
    for worker_id, duration in case["later"]:
        task_id = component.current_task(worker_id)
        if task_id is None:
            component.complete(worker_id, duration, CATEGORIES[0], duration < 20.0)
            workers[worker_id].complete(duration, CATEGORIES[0], duration < 20.0)
        else:
            component.record_withdrawal(worker_id, elapsed=duration, task_id=task_id)
            workers[worker_id].execution_times.append(duration)  # censored
    _assert_same_build(case, component, builder, reference)


class _HoledAccuracy(AccuracyWeight):
    """Eq. 1 with NaN holes: a weight function may leave cells undefined."""

    @staticmethod
    def holes(shape):
        holes = np.zeros(shape, dtype=bool)
        holes[::2, ::3] = True
        return holes

    def matrix(self, workers, tasks):
        out = super().matrix(workers, tasks)
        out[self.holes(out.shape)] = np.nan
        return out


def test_nan_weights_drop_out_except_in_cold_start_rows():
    # A NaN weight never becomes an edge, except in a cold-start row, whose
    # weights are all overwritten with MAX_WEIGHT first.  Cold rows with
    # and without an Eq. 3 fit, trained rows, and expired columns.
    rng = np.random.default_rng(4)
    population = []
    for worker_id in range(9):
        history = [
            (float(d), CATEGORIES[i % 3], bool(i % 2))
            for i, d in enumerate(5.0 + rng.pareto(2.0, 6) * 10.0)
        ]
        kind = worker_id % 3  # 0: cold with a fit, 1: cold without, 2: trained
        assignments = {0: 1, 1: 0, 2: len(history)}[kind]
        population.append(
            (
                oracle.Worker(worker_id, 38.0, 23.7),
                [] if kind == 1 else history,
                assignments,
                "free",
            )
        )
    tasks = [
        Task(
            latitude=38.0,
            longitude=23.7,
            deadline=float(deadline),
            submitted_at=0.0,
            category=CATEGORIES[j % 3],
        )
        for j, deadline in enumerate([5.0, 20.0, *rng.uniform(21.0, 120.0, 8)])
    ]
    now = 20.0
    component = _register(population)
    builder = AssignmentGraphBuilder(
        weight_function=_HoledAccuracy(),
        estimator=DeadlineEstimator(3),
        edge_probability_bound=0.1,
    )
    graph, report = builder.build(component.rows(component.available_slots()), tasks, now)

    free = [worker for worker, *_ in population]
    keep, weights, expected = oracle.build(builder, DeadlineEstimator(3), free, tasks, now)
    cold = np.array([worker.assignment_count < 3 for worker in free])
    holes = _HoledAccuracy.holes(weights.shape)
    weights[holes & ~cold[:, None]] = np.nan
    want = BipartiteGraph.from_dense(weights, mask=keep)
    expected.kept_edges = want.n_edges
    assert report == expected
    assert graph.edge_workers.tobytes() == want.edge_workers.tobytes()
    assert graph.edge_tasks.tobytes() == want.edge_tasks.tobytes()
    assert graph.edge_weights.tobytes() == want.edge_weights.tobytes()
    # The case reaches what it is about: holes dropped from trained rows,
    # holes in cold rows kept at MAX_WEIGHT, and expired columns.
    assert want.n_edges < int(keep.sum())
    in_cold_hole = holes[graph.edge_workers, graph.edge_tasks] & cold[graph.edge_workers]
    assert in_cold_hole.any()
    assert np.all(graph.edge_weights[in_cold_hole] == MAX_WEIGHT)
    assert not np.isin([0, 1], graph.edge_tasks).any()  # ttd < 0 and ttd == 0
