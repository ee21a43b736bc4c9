"""Traditional (AMT-like) uniform assignment baseline.

Section V-C: "in the traditional approach we try to simulate the traditional
non real-time crowdsourcing systems, such as the AMT.  Hence, we use uniform
matching for the assignment and the probabilistic model that we developed is
not being used."

Workers on AMT self-select tasks without regard to skill or deadline;
uniform random matching over the available edges models that.  Each task is
given a uniformly random still-free neighbouring worker, in random task
order (so neither early tasks nor early workers are systematically
favoured).

Draw-count contract: one ``rng.permutation(n_tasks)``, then one
``rng.integers(0, k)`` per matched task, where ``k`` is the number of that
task's still-free neighbours, listed in ascending edge-index order.  Two
paths honour it.  On a complete graph in ``from_dense``'s worker-major edge
order (every Traditional batch: a zero Eq. 3 bound keeps every edge), each
task's free-neighbour list is the same ascending list of free workers, so
the tasks draw from one shared list and the walk stops when it empties.
Any other graph (reward ranges, budget gate, hand-built edge lists)
walks each task's edge slice, and stops once every worker that has an edge
is taken.  :func:`repro.core.kernels.reference.uniform_match`
keeps the slice walk as it ran on every graph; the equivalence tests pin
both paths against it.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ...graph.bipartite import BipartiteGraph
from .base import Matcher, MatchingResult, empty_result


class UniformMatcher(Matcher):
    """Uniform random task→worker matching; ignores edge weights."""

    name = "uniform"

    def match(
        self, graph: BipartiteGraph, rng: Optional[np.random.Generator] = None
    ) -> MatchingResult:
        if graph.is_empty:
            return empty_result(graph, self.name)
        rng = self._rng(rng)
        if _is_complete_worker_major(graph):
            chosen = _draw_shared(graph.n_workers, graph.n_tasks, rng)
        else:
            chosen = _walk_slices(graph, rng)
        return MatchingResult(
            graph=graph,
            edge_indices=np.asarray(sorted(chosen), dtype=np.int64),
            algorithm=self.name,
            stats={"tasks_matched": len(chosen)},
        )


def _is_complete_worker_major(graph: BipartiteGraph) -> bool:
    """Whether edge ``w * n_tasks + t`` joins worker ``w`` and task ``t``.

    Every edge array is compared in full: a complete graph listed in
    another order gives its tasks differently ordered neighbour slices, so
    only this exact layout may take the shared-list path.
    """
    n_w, n_t = graph.n_workers, graph.n_tasks
    if graph.n_edges != n_w * n_t:
        return False
    return bool(
        (graph.edge_workers.reshape(n_w, n_t) == np.arange(n_w)[:, None]).all()
        and (graph.edge_tasks.reshape(n_w, n_t) == np.arange(n_t)).all()
    )


def _draw_shared(n_workers: int, n_tasks: int, rng: np.random.Generator) -> List[int]:
    """Complete graph: every task draws from one ascending free-worker list."""
    free = list(range(n_workers))
    chosen: List[int] = []
    for task in rng.permutation(n_tasks).tolist():
        worker = free.pop(rng.integers(0, len(free)))
        chosen.append(worker * n_tasks + task)
        if not free:
            break
    return chosen


def _walk_slices(graph: BipartiteGraph, rng: np.random.Generator) -> List[int]:
    """Any graph: filter each task's edge slice down to its free workers."""
    ew = graph.edge_workers
    order = np.argsort(graph.edge_tasks, kind="stable")
    bounds = np.searchsorted(
        graph.edge_tasks[order], np.arange(graph.n_tasks + 1)
    ).tolist()
    order_list = order.tolist()
    owner_list = ew[order].tolist()
    worker_free = bytearray(b"\x01") * graph.n_workers
    # Workers with no edge are never taken; once the others all are, no
    # later task has a free neighbour and would draw nothing.
    takeable = int(np.count_nonzero(np.bincount(ew, minlength=graph.n_workers)))
    chosen: List[int] = []
    for task in rng.permutation(graph.n_tasks).tolist():
        start, stop = bounds[task], bounds[task + 1]
        if start == stop:
            continue
        free = [pos for pos in range(start, stop) if worker_free[owner_list[pos]]]
        if not free:
            continue
        pos = free[rng.integers(0, len(free))]
        worker_free[owner_list[pos]] = 0
        chosen.append(order_list[pos])
        if len(chosen) == takeable:
            break
    return chosen
