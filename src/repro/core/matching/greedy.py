"""Greedy matching baseline (§V-B of the paper).

"The basic idea of the Greedy matching is to select the edge
(worker_i, task_j) for any unassigned task_j ∈ V with the highest weight
w_ij, that is subject to the constraints defined for the WBGM.  The
complexity of such an approach is O(V·E) since for every task it needs to
iterate through the edges and check its weight with all of the available
workers."

Two implementations are provided:

* :class:`GreedyMatcher` — the paper's per-task scan.  Tasks are processed
  in index order; each takes its best still-free worker.  Output quality is
  near-optimal on full graphs (Fig. 4) but the O(V·E) cost is what melts
  down in Figs. 5/9 — that cost is reproduced in simulated time by
  :mod:`repro.platform.cost`, so the host computes the same choices with
  one ``argmax`` per task row of a dense task × worker weight view.
* :class:`SortedGreedyMatcher` — an ablation variant: globally sort edges by
  descending weight and sweep once, O(E log E).  Not in the paper; included
  to quantify how much of Greedy's pain is the naive scan.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...graph.bipartite import BipartiteGraph
from .base import Matcher, MatchingResult, empty_result


class GreedyMatcher(Matcher):
    """Per-task highest-weight-edge selection (the paper's Greedy).

    Each task, in index order, takes its highest-weight edge to a worker
    no earlier task took; a tie goes to the lowest edge index.  The scan
    runs over a dense ``(n_tasks, n_workers)`` view of the edge list, with
    ``-1.0`` where there is no edge (below every valid weight, since
    :class:`BipartiteGraph` rejects negative ones): one ``argmax`` per task
    row, after which the taken worker's column is set to ``-1.0``.  Memory
    is O(n_tasks·n_workers): 8 bytes per cell for the weights plus 1 to 8
    for the edge index.  For
    :class:`~repro.graph.builders.AssignmentGraphBuilder` graphs that is
    less than the two float64 weight matrices and the keep mask its
    ``build`` allocates for the same cells.
    """

    name = "greedy"

    def match(
        self, graph: BipartiteGraph, rng: Optional[np.random.Generator] = None
    ) -> MatchingResult:
        if graph.is_empty:
            return empty_result(graph, self.name)
        ew = graph.edge_workers
        et = graph.edge_tasks
        weight = np.full((graph.n_tasks, graph.n_workers), -1.0)
        weight[et, ew] = graph.edge_weights
        # Edge index per (task, worker); read only where an edge exists.
        edge_dtype = np.min_scalar_type(graph.n_edges)
        edge = np.empty((graph.n_tasks, graph.n_workers), dtype=edge_dtype)
        edge[et, ew] = np.arange(graph.n_edges, dtype=edge_dtype)

        # ``argmax`` breaks a tie by the lowest worker index.  That is the
        # lowest edge index when the edges are listed worker-major with
        # tasks ascending (``from_dense`` order, so every builder graph);
        # in any other order a tied row is resolved by edge index.
        worker_major = bool(
            np.all((ew[1:] > ew[:-1]) | ((ew[1:] == ew[:-1]) & (et[1:] > et[:-1])))
        )
        takeable = int(np.count_nonzero(np.bincount(ew, minlength=graph.n_workers)))
        task_worker = np.full(graph.n_tasks, -1, dtype=np.int64)
        chosen: list[int] = []
        for task in np.flatnonzero(np.bincount(et, minlength=graph.n_tasks)).tolist():
            row = weight[task]
            worker = int(row.argmax())
            best = row[worker]
            if best < 0:
                continue
            if not worker_major:
                tied = np.flatnonzero(row == best)
                worker = int(tied[edge[task, tied].argmin()])
            weight[:, worker] = -1.0
            task_worker[task] = worker
            chosen.append(int(edge[task, worker]))
            if len(chosen) == takeable:
                break

        return MatchingResult(
            graph=graph,
            edge_indices=np.asarray(chosen, dtype=np.int64),
            algorithm=self.name,
            stats={"tasks_matched": len(chosen)},
            task_worker=task_worker,
        )


class SortedGreedyMatcher(Matcher):
    """Global descending-weight sweep, O(E log E) (ablation variant).

    ``threshold`` is the sweep's quality bar: edges below it are never
    taken.  Here it is 0.0, no bar, since weights are non-negative;
    :class:`~repro.core.matching.threshold.ThresholdMatcher` is this sweep
    with a bar.
    """

    name = "sorted-greedy"
    threshold = 0.0

    def match(
        self, graph: BipartiteGraph, rng: Optional[np.random.Generator] = None
    ) -> MatchingResult:
        if graph.is_empty:
            return empty_result(graph, self.name)
        wt = graph.edge_weights
        order = np.argsort(-wt, kind="stable").tolist()
        # Plain lists, as in GreedyMatcher: same decisions, no NumPy scalars.
        ew = graph.edge_workers.tolist()
        et = graph.edge_tasks.tolist()
        weights = wt.tolist()
        bar = self.threshold

        worker_free = bytearray(b"\x01") * graph.n_workers
        task_free = bytearray(b"\x01") * graph.n_tasks
        chosen: list[int] = []
        for e in order:
            if weights[e] < bar:
                # Descending order: every remaining edge is below the bar.
                break
            w, t = ew[e], et[e]
            if worker_free[w] and task_free[t]:
                worker_free[w] = 0
                task_free[t] = 0
                chosen.append(e)

        return MatchingResult(
            graph=graph,
            edge_indices=np.asarray(chosen, dtype=np.int64),
            algorithm=self.name,
            stats={"tasks_matched": len(chosen)},
        )
