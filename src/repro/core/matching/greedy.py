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
    row, after which the taken worker's column is set to ``-1.0``.

    Memory is one float64 per cell, the view itself, on a graph whose edges
    are listed worker-major with tasks ascending (``from_dense`` order, so
    every :class:`~repro.graph.builders.AssignmentGraphBuilder` graph).
    There ``argmax``'s lowest-worker tie rule is the lowest-edge-index rule,
    and the chosen edges' indices are looked up in the sorted edge list
    once the view is freed.  A graph in any other order also holds a
    ``(n_tasks, n_workers)`` edge-index matrix (1 to 8 bytes per cell) to
    resolve tied rows.
    """

    name = "greedy"

    def match(
        self, graph: BipartiteGraph, rng: Optional[np.random.Generator] = None
    ) -> MatchingResult:
        if graph.is_empty:
            return empty_result(graph, self.name)
        ew = graph.edge_workers
        et = graph.edge_tasks
        n_tasks = graph.n_tasks
        # ``argmax`` breaks a tie by the lowest worker index.  That is the
        # lowest edge index when the edges are listed worker-major with
        # tasks ascending; in any other order a tied row is resolved by
        # edge index, read from a matrix of them.
        worker_major = bool(
            np.all((ew[1:] > ew[:-1]) | ((ew[1:] == ew[:-1]) & (et[1:] > et[:-1])))
        )
        edge = None
        if not worker_major:
            # Edge index per (task, worker); read only where an edge exists.
            edge_dtype = np.min_scalar_type(graph.n_edges)
            edge = np.empty((n_tasks, graph.n_workers), dtype=edge_dtype)
            edge[et, ew] = np.arange(graph.n_edges, dtype=edge_dtype)
        task_worker = _scan_rows(graph, edge)

        # Tasks were taken in index order, so that is the edges' order too.
        tasks = np.flatnonzero(task_worker >= 0)
        workers = task_worker[tasks]
        if edge is None:
            # Worker-major edges sort by ``worker * n_tasks + task``.
            keys = ew * n_tasks
            keys += et
            chosen = np.searchsorted(keys, workers * n_tasks + tasks)
        else:
            chosen = edge[tasks, workers]
        return MatchingResult(
            graph=graph,
            edge_indices=chosen,
            algorithm=self.name,
            stats={"tasks_matched": len(chosen)},
            task_worker=task_worker,
        )


def _scan_rows(graph: BipartiteGraph, edge: Optional[np.ndarray]) -> np.ndarray:
    """:class:`GreedyMatcher`'s row scan: the dense task → worker row.

    The dense weight view lives only inside this call, so it is freed
    before the caller looks up the chosen edges.  ``edge`` is the
    edge-index matrix that resolves tied rows, or None when ``argmax``'s
    own tie rule already picks the lowest edge index.
    """
    ew = graph.edge_workers
    et = graph.edge_tasks
    # Counted first: ``bincount`` takes an edge-sized buffer of its own.
    takeable = int(np.count_nonzero(np.bincount(ew, minlength=graph.n_workers)))
    tasks = np.flatnonzero(np.bincount(et, minlength=graph.n_tasks)).tolist()
    weight = np.full((graph.n_tasks, graph.n_workers), -1.0)
    weight[et, ew] = graph.edge_weights
    task_worker = np.full(graph.n_tasks, -1, dtype=np.int64)
    matched = 0
    for task in tasks:
        row = weight[task]
        worker = int(row.argmax())
        best = row[worker]
        if best < 0:
            continue
        if edge is not None:
            tied = np.flatnonzero(row == best)
            worker = int(tied[edge[task, tied].argmin()])
        weight[:, worker] = -1.0
        task_worker[task] = worker
        matched += 1
        if matched == takeable:
            break
    return task_worker


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
