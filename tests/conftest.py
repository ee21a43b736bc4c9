"""Shared fixtures for the REACT reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.bipartite import BipartiteGraph
from repro.model.task import Task, TaskCategory, reset_task_ids
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


@pytest.fixture(autouse=True)
def _fresh_task_ids():
    """Keep task ids deterministic per test."""
    reset_task_ids()
    yield


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def registry() -> RngRegistry:
    return RngRegistry(seed=99)


@pytest.fixture
def small_graph(rng) -> BipartiteGraph:
    """A 20x12 full bipartite graph with U[0,1] weights."""
    return BipartiteGraph.full(rng.random((20, 12)))


@pytest.fixture
def sparse_graph() -> BipartiteGraph:
    """A hand-built sparse graph with a known optimal matching.

    Workers 0-2, tasks 0-2:
        (0,0,0.9) (0,1,0.5) (1,0,0.8) (1,2,0.7) (2,2,0.6)
    Optimum: (0,0)+(1,2)+... = 0.9 + 0.7 = 1.6, plus (2,?) none free for task 1
    except worker 0... optimal = (0,1)+(1,0)+(2,2) = 0.5+0.8+0.6 = 1.9.
    """
    edges = [(0, 0, 0.9), (0, 1, 0.5), (1, 0, 0.8), (1, 2, 0.7), (2, 2, 0.6)]
    return BipartiteGraph.from_edges(3, 3, edges)


@pytest.fixture
def make_task():
    def _make(
        deadline: float = 90.0,
        submitted_at: float = 0.0,
        category: TaskCategory = TaskCategory.GENERIC,
        reward: float = 0.05,
    ) -> Task:
        return Task(
            latitude=0.0,
            longitude=0.0,
            deadline=deadline,
            reward=reward,
            category=category,
            submitted_at=submitted_at,
        )

    return _make
