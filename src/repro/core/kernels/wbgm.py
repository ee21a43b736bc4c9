"""Weighted bipartite graph matching kernels: REACT and Metropolis.

One optimised kernel per algorithm.  Both run the same decisions as the
seed loops in :mod:`repro.core.kernels.reference`, restructured for
CPython speed:

* the loop only ever touches the edge picked this cycle or an edge already
  in the matching, so instead of converting the full O(E) edge arrays the
  kernels gather the picked edges' endpoints and weights with one vectorized
  fancy-index (O(cycles)) and read them from plain lists (~20 ns per access
  versus ~100+ ns for NumPy scalar indexing);
* a matched edge's endpoints and weight are carried in the per-vertex state
  (``worker_edge_task``, ``worker_edge_w``, …), so conflict eviction needs
  no random access into the edge arrays at all;
* state lives in a ``bytearray`` / plain lists, ``math.exp`` is hoisted to a
  local, and the per-cycle stream is consumed through one ``zip`` unpack
  instead of five indexed list reads.

``ndarray.tolist()`` preserves exact float64 values and ``math.exp`` of the
same double yields the same double, so every comparison sees identical bits;
the equivalence suite (``tests/core_matching/test_kernel_equivalence.py``)
asserts selected edges, counters and RNG consumption match the reference.

:func:`wbgm_accept_loop` is the *full* Algorithm 1 step: the
accept/evict/remove/reject cycle loop followed by a dense task-assignment
extraction, returning ``(edge_indices, task_assignment, stats)``.
``task_assignment[j]`` is the matched worker index of task ``j`` (or
:data:`~repro.core.kernels.reference.NO_EDGE`) and is one-to-one *by
construction*: each entry comes from the kernel's ``task_edge`` index, which
holds at most one edge per task, and each worker appears at most once because
``worker_edge`` holds at most one edge per worker.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from .reference import NO_EDGE


def _matched_indices(worker_edge: list) -> np.ndarray:
    """Ascending int64 indices of the matched edges.

    Every selected edge is registered at its worker endpoint exactly once,
    so collecting from the O(|U|) vertex state and sorting is equivalent to
    ``np.flatnonzero`` over the O(E) selection mask, just cheaper.
    """
    matched = sorted(e for e in worker_edge if e != NO_EDGE)
    return np.asarray(matched, dtype=np.int64)


def wbgm_accept_loop(
    ew: np.ndarray,
    et: np.ndarray,
    wt: np.ndarray,
    n_workers: int,
    n_tasks: int,
    picks: np.ndarray,
    alphas: np.ndarray,
    inv_k: float,
) -> Tuple[np.ndarray, np.ndarray, Dict[str, int]]:
    """Algorithm 1 cycle loop over plain-list state, plus the dense row.

    Returns ``(edge_indices, task_assignment, stats)`` with counters
    ``accepted_add`` / ``accepted_evict`` / ``accepted_remove`` /
    ``rejected``.  The task → worker mapping falls out of the per-vertex
    state the loop maintains anyway, so no post-hoc edge scan is needed.
    """
    stream = zip(
        picks.tolist(),
        ew[picks].tolist(),
        et[picks].tolist(),
        wt[picks].tolist(),
        alphas.tolist(),
    )
    exp = math.exp

    selected = bytearray(len(wt))
    worker_edge = [NO_EDGE] * n_workers
    worker_edge_task = [NO_EDGE] * n_workers
    worker_edge_w = [0.0] * n_workers
    task_edge = [NO_EDGE] * n_tasks
    task_edge_worker = [NO_EDGE] * n_tasks
    task_edge_w = [0.0] * n_tasks

    accepted_add = accepted_evict = accepted_remove = rejected = 0

    for e, wi, tj, w_new, alpha in stream:
        if selected[e]:
            # Flip removes edge e: g(x') = g - w_e <= g.
            if w_new <= 0.0 or alpha <= exp(-w_new * inv_k):
                selected[e] = 0
                worker_edge[wi] = NO_EDGE
                task_edge[tj] = NO_EDGE
                accepted_remove += 1
            else:
                rejected += 1
            continue

        conflict_w = worker_edge[wi]
        conflict_t = task_edge[tj]
        if conflict_w == NO_EDGE and conflict_t == NO_EDGE:
            # Conflict-free addition: always accept (non-negative weights).
            accepted_add += 1
        else:
            # Conflict branch: accept only if the new edge outweighs every
            # matched edge it collides with (at most two, found by lookup).
            if conflict_w != NO_EDGE and worker_edge_w[wi] >= w_new:
                rejected += 1
                continue
            if conflict_t != NO_EDGE and task_edge_w[tj] >= w_new:
                rejected += 1
                continue
            if conflict_w != NO_EDGE:
                selected[conflict_w] = 0
                task_edge[worker_edge_task[wi]] = NO_EDGE
                worker_edge[wi] = NO_EDGE
            if conflict_t != NO_EDGE:
                selected[conflict_t] = 0
                worker_edge[task_edge_worker[tj]] = NO_EDGE
                task_edge[tj] = NO_EDGE
            accepted_evict += 1
        selected[e] = 1
        worker_edge[wi] = e
        worker_edge_task[wi] = tj
        worker_edge_w[wi] = w_new
        task_edge[tj] = e
        task_edge_worker[tj] = wi
        task_edge_w[tj] = w_new

    # ``task_edge_worker`` entries are only authoritative while the task's
    # ``task_edge`` slot is occupied (removal leaves them stale on purpose).
    task_assignment = np.full(n_tasks, NO_EDGE, dtype=np.int64)
    for tj, e in enumerate(task_edge):
        if e != NO_EDGE:
            task_assignment[tj] = task_edge_worker[tj]

    stats = {
        "accepted_add": accepted_add,
        "accepted_evict": accepted_evict,
        "accepted_remove": accepted_remove,
        "rejected": rejected,
    }
    return _matched_indices(worker_edge), task_assignment, stats


def metropolis_match(
    ew: np.ndarray,
    et: np.ndarray,
    wt: np.ndarray,
    n_workers: int,
    n_tasks: int,
    picks: np.ndarray,
    alphas: np.ndarray,
    inv_k: float,
) -> Tuple[np.ndarray, Dict[str, int]]:
    """Metropolis cycle loop over plain-list state.

    Returns ``(edge_indices, stats)`` with counters ``accepted_add`` /
    ``accepted_remove`` / ``collapses`` / ``rejected``.  The running
    fitness ``g`` is accumulated in the same order as the reference, so the
    collapse-acceptance comparisons see identical doubles.
    """
    stream = zip(
        picks.tolist(),
        ew[picks].tolist(),
        et[picks].tolist(),
        wt[picks].tolist(),
        alphas.tolist(),
    )
    n_edges = len(wt)
    exp = math.exp

    selected = bytearray(n_edges)
    worker_edge = [NO_EDGE] * n_workers
    task_edge = [NO_EDGE] * n_tasks
    g = 0.0

    accepted_add = accepted_remove = collapses = rejected = 0

    for e, wi, tj, w, alpha in stream:
        if selected[e]:
            if w <= 0.0 or alpha <= exp(-w * inv_k):
                selected[e] = 0
                worker_edge[wi] = NO_EDGE
                task_edge[tj] = NO_EDGE
                g = max(0.0, g - w)
                accepted_remove += 1
            else:
                rejected += 1
            continue

        if worker_edge[wi] == NO_EDGE and task_edge[tj] == NO_EDGE:
            selected[e] = 1
            worker_edge[wi] = e
            task_edge[tj] = e
            g += w
            accepted_add += 1
            continue

        # Conflicting addition: g(x') = 0, accept with exp((0 - g)/K).
        if g > 0.0 and alpha > exp(-g * inv_k):
            rejected += 1
            continue
        # Zero-fitness state accepted: collapse to the single new edge.
        selected = bytearray(n_edges)
        worker_edge = [NO_EDGE] * n_workers
        task_edge = [NO_EDGE] * n_tasks
        selected[e] = 1
        worker_edge[wi] = e
        task_edge[tj] = e
        g = w
        collapses += 1

    stats = {
        "accepted_add": accepted_add,
        "accepted_remove": accepted_remove,
        "collapses": collapses,
        "rejected": rejected,
    }
    return _matched_indices(worker_edge), stats
