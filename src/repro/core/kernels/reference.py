"""Seed (reference) implementations of the matching cycle loops.

These are the inner loops exactly as the matchers shipped them before the
kernels layer existed: per-cycle NumPy scalar indexing on the edge arrays,
and, for :func:`uniform_match`, the per-task slice walk the uniform matcher
ran on every graph before complete graphs drew from one shared free-worker
list.  They are deliberately kept verbatim — slow, but the behavioural
ground truth that the optimised kernels in :mod:`repro.core.kernels.wbgm`
and :class:`~repro.core.matching.uniform.UniformMatcher` must match bit for
bit (same selected edges, same stats counters, same consumption of the
random sequences).  Production code never calls them: they are the
oracle of the equivalence suite and the denominator of the perf harness's
``speedup_vs_reference``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

#: Sentinel for "vertex currently unmatched" in the index arrays.
NO_EDGE = -1


def react_match(
    ew: np.ndarray,
    et: np.ndarray,
    wt: np.ndarray,
    n_workers: int,
    n_tasks: int,
    picks: np.ndarray,
    alphas: np.ndarray,
    inv_k: float,
) -> Tuple[np.ndarray, Dict[str, int]]:
    """Algorithm 1 cycle loop as in the seed ``ReactMatcher.match``."""
    n_edges = len(wt)
    budget = len(picks)
    selected = np.zeros(n_edges, dtype=bool)
    worker_edge = np.full(n_workers, NO_EDGE, dtype=np.int64)
    task_edge = np.full(n_tasks, NO_EDGE, dtype=np.int64)
    g = 0.0

    accepted_add = accepted_evict = accepted_remove = rejected = 0

    for cycle in range(budget):
        e = int(picks[cycle])
        if selected[e]:
            # Flip removes edge e: g(x') = g - w_e <= g.
            w = wt[e]
            if w <= 0.0:
                # g(x') == g(x): accept (the >= branch of Algorithm 1).
                selected[e] = False
                worker_edge[ew[e]] = NO_EDGE
                task_edge[et[e]] = NO_EDGE
                accepted_remove += 1
            elif alphas[cycle] <= math.exp(-w * inv_k):
                selected[e] = False
                worker_edge[ew[e]] = NO_EDGE
                task_edge[et[e]] = NO_EDGE
                g -= w
                accepted_remove += 1
            else:
                rejected += 1
            continue

        wi = ew[e]
        tj = et[e]
        conflict_w = worker_edge[wi]
        conflict_t = task_edge[tj]
        if conflict_w == NO_EDGE and conflict_t == NO_EDGE:
            # Conflict-free addition: g(x') = g + w >= g, always accept.
            selected[e] = True
            worker_edge[wi] = e
            task_edge[tj] = e
            g += wt[e]
            accepted_add += 1
            continue

        # g(x') = 0 branch: new edge collides with one or two matched
        # edges.  Accept only if it outweighs *every* one of them.
        w_new = wt[e]
        beats = True
        if conflict_w != NO_EDGE and wt[conflict_w] >= w_new:
            beats = False
        if beats and conflict_t != NO_EDGE and wt[conflict_t] >= w_new:
            beats = False
        if not beats:
            rejected += 1
            continue
        for old in {int(conflict_w), int(conflict_t)}:
            if old == NO_EDGE:
                continue
            selected[old] = False
            worker_edge[ew[old]] = NO_EDGE
            task_edge[et[old]] = NO_EDGE
            g -= wt[old]
        selected[e] = True
        worker_edge[wi] = e
        task_edge[tj] = e
        g += w_new
        accepted_evict += 1

    stats = {
        "accepted_add": accepted_add,
        "accepted_evict": accepted_evict,
        "accepted_remove": accepted_remove,
        "rejected": rejected,
    }
    return np.flatnonzero(selected), stats


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
    """Metropolis cycle loop as in the seed ``MetropolisMatcher.match``."""
    n_edges = len(wt)
    cycles = len(picks)
    selected = np.zeros(n_edges, dtype=bool)
    worker_edge = np.full(n_workers, NO_EDGE, dtype=np.int64)
    task_edge = np.full(n_tasks, NO_EDGE, dtype=np.int64)
    g = 0.0

    accepted_add = accepted_remove = collapses = rejected = 0

    for cycle in range(cycles):
        e = int(picks[cycle])
        if selected[e]:
            w = wt[e]
            if w <= 0.0 or alphas[cycle] <= math.exp(-w * inv_k):
                selected[e] = False
                worker_edge[ew[e]] = NO_EDGE
                task_edge[et[e]] = NO_EDGE
                g = max(0.0, g - w)
                accepted_remove += 1
            else:
                rejected += 1
            continue

        wi = ew[e]
        tj = et[e]
        if worker_edge[wi] == NO_EDGE and task_edge[tj] == NO_EDGE:
            selected[e] = True
            worker_edge[wi] = e
            task_edge[tj] = e
            g += wt[e]
            accepted_add += 1
            continue

        # Conflicting addition: g(x') = 0, accept with exp((0 - g)/K).
        if g > 0.0 and alphas[cycle] > math.exp(-g * inv_k):
            rejected += 1
            continue
        # Accepted a zero-fitness state: the matching collapses to the
        # single new edge (all previously selected edges are dropped so
        # the state is a valid matching again).
        selected[:] = False
        worker_edge[:] = NO_EDGE
        task_edge[:] = NO_EDGE
        selected[e] = True
        worker_edge[wi] = e
        task_edge[tj] = e
        g = float(wt[e])
        collapses += 1

    stats = {
        "accepted_add": accepted_add,
        "accepted_remove": accepted_remove,
        "collapses": collapses,
        "rejected": rejected,
    }
    return np.flatnonzero(selected), stats


def uniform_match(
    ew: np.ndarray,
    et: np.ndarray,
    n_workers: int,
    n_tasks: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniform task-by-task walk as in the seed ``UniformMatcher.match``.

    Argsorts the edges by task, then visits the tasks in ``rng.permutation``
    order and gives each a uniformly random still-free neighbour, drawn
    from that task's whole edge slice.  Returns the chosen edge indices,
    ascending.
    """
    order = np.argsort(et, kind="stable")
    sorted_tasks = et[order]
    boundaries = np.searchsorted(sorted_tasks, np.arange(n_tasks + 1))

    order_list = order.tolist()
    owner_list = ew[order].tolist()
    bounds = boundaries.tolist()
    worker_free = bytearray(b"\x01") * n_workers
    chosen: List[int] = []
    for task in rng.permutation(n_tasks).tolist():
        start, stop = bounds[task], bounds[task + 1]
        if start == stop:
            continue
        free = [pos for pos in range(start, stop) if worker_free[owner_list[pos]]]
        if not free:
            continue
        pos = free[rng.integers(0, len(free))]
        worker_free[owner_list[pos]] = 0
        chosen.append(order_list[pos])
    return np.asarray(sorted(chosen), dtype=np.int64)
