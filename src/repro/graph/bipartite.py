"""Weighted bipartite graph between workers and tasks.

Section III-C: vertices in U are available workers, vertices in V are pending
tasks, and an edge (worker_i, task_j) with weight ``w_ij = F(worker_i,
task_j)`` represents a feasible assignment.  The graph is stored as a
structure-of-arrays edge list (parallel NumPy arrays of worker indices, task
indices and weights), which is both the compact representation for sparse
pruned graphs and the fast layout for the randomized matchers that pick
uniform random edges millions of times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class BipartiteGraph:
    """Immutable weighted bipartite graph in edge-list form.

    Attributes
    ----------
    n_workers, n_tasks:
        Sizes of the two vertex sets (|U| and |V|).
    edge_workers, edge_tasks:
        ``int64`` arrays of equal length; edge ``e`` joins
        ``edge_workers[e]`` with ``edge_tasks[e]``.
    edge_weights:
        ``float64`` array of the same length; ``w_ij`` values.  The paper's
        experiments use weights in [0, 1] (Eq. 1 accuracies) but the graph
        itself only requires finite non-negative weights.
    """

    n_workers: int
    n_tasks: int
    edge_workers: np.ndarray
    edge_tasks: np.ndarray
    edge_weights: np.ndarray

    def __post_init__(self) -> None:
        ew = np.ascontiguousarray(self.edge_workers, dtype=np.int64)
        et = np.ascontiguousarray(self.edge_tasks, dtype=np.int64)
        wt = np.ascontiguousarray(self.edge_weights, dtype=np.float64)
        object.__setattr__(self, "edge_workers", ew)
        object.__setattr__(self, "edge_tasks", et)
        object.__setattr__(self, "edge_weights", wt)
        if not (len(ew) == len(et) == len(wt)):
            raise ValueError(
                f"edge array length mismatch: {len(ew)}, {len(et)}, {len(wt)}"
            )
        if self.n_workers < 0 or self.n_tasks < 0:
            raise ValueError("vertex counts must be non-negative")
        if len(ew):
            if ew.min() < 0 or ew.max() >= self.n_workers:
                raise ValueError("edge_workers index out of range")
            if et.min() < 0 or et.max() >= self.n_tasks:
                raise ValueError("edge_tasks index out of range")
            if not np.all(np.isfinite(wt)):
                raise ValueError("edge weights must be finite")
            if wt.min() < 0:
                raise ValueError("edge weights must be non-negative")
            # Duplicate (worker, task) pairs would let the matchers count the
            # same assignment twice; reject them eagerly.
            keys = ew * max(self.n_tasks, 1) + et
            if len(np.unique(keys)) != len(keys):
                raise ValueError("duplicate (worker, task) edges")

    @classmethod
    def _trusted(
        cls,
        n_workers: int,
        n_tasks: int,
        edge_workers: np.ndarray,
        edge_tasks: np.ndarray,
        edge_weights: np.ndarray,
    ) -> "BipartiteGraph":
        """Construct without re-running the O(E) validation scans.

        Internal fast path for derivations that provably preserve every
        invariant — e.g. pruning, which takes a subset of already-validated
        edge arrays.  Callers must pass contiguous arrays of the canonical
        dtypes (boolean/fancy indexing of validated arrays yields exactly
        that).
        """
        graph = object.__new__(cls)
        object.__setattr__(graph, "n_workers", n_workers)
        object.__setattr__(graph, "n_tasks", n_tasks)
        object.__setattr__(graph, "edge_workers", edge_workers)
        object.__setattr__(graph, "edge_tasks", edge_tasks)
        object.__setattr__(graph, "edge_weights", edge_weights)
        return graph

    # ------------------------------------------------------- lazy adjacency
    def _cache(self) -> dict:
        """Per-instance cache for derived structures (lazy, never pickled).

        Created on first use so both construction paths (validated and
        trusted) share it; the graph's edge arrays are immutable, so cached
        derivations stay valid for the instance's lifetime.
        """
        cache = self.__dict__.get("_derived_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_derived_cache", cache)
        return cache

    def _csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR adjacency over the tasks.

        Returns ``(indptr, order)``: ``order[indptr[v]:indptr[v+1]]`` are
        the edge indices incident to task ``v``, ascending (stable sort
        preserves edge-array order inside each bucket, matching what the
        old ``np.flatnonzero`` scans returned).
        """
        cache = self._cache()
        if "csr_task" not in cache:
            ids, n = self.edge_tasks, self.n_tasks
            order = np.argsort(ids, kind="stable")
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(ids, minlength=n), out=indptr[1:])
            cache["csr_task"] = (indptr, order)
        return cache["csr_task"]

    # ------------------------------------------------------------ queries
    @property
    def n_edges(self) -> int:
        return len(self.edge_workers)

    @property
    def is_empty(self) -> bool:
        return self.n_edges == 0

    def worker_degrees(self) -> np.ndarray:
        cache = self._cache()
        if "worker_degrees" not in cache:
            cache["worker_degrees"] = np.bincount(
                self.edge_workers, minlength=self.n_workers
            )
        return cache["worker_degrees"].copy()

    def task_degrees(self) -> np.ndarray:
        cache = self._cache()
        if "task_degrees" not in cache:
            cache["task_degrees"] = np.bincount(
                self.edge_tasks, minlength=self.n_tasks
            )
        return cache["task_degrees"].copy()

    def edges_of_task(self, task: int) -> np.ndarray:
        """Edge indices incident to ``task``, ascending."""
        if not 0 <= task < self.n_tasks:
            return np.empty(0, dtype=np.int64)
        indptr, order = self._csr()
        return order[indptr[task] : indptr[task + 1]]

    def to_dense(self, fill: float = np.nan) -> np.ndarray:
        """(n_workers, n_tasks) weight matrix; absent edges take ``fill``."""
        dense = np.full((self.n_workers, self.n_tasks), fill, dtype=np.float64)
        dense[self.edge_workers, self.edge_tasks] = self.edge_weights
        return dense

    # -------------------------------------------------------- constructors
    @classmethod
    def from_dense(
        cls, weights: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> "BipartiteGraph":
        """Build from a (workers × tasks) weight matrix.

        ``mask`` selects which entries become edges; by default every finite
        entry does.  NaN entries never become edges.
        """
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
        present = np.isfinite(weights)
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != weights.shape:
                raise ValueError("mask shape must match weights shape")
            present &= mask
        workers, tasks = np.nonzero(present)
        edge_weights = weights[workers, tasks]
        # ``nonzero`` of a matrix mask yields in-range indices and distinct
        # (worker, task) pairs by construction, and non-finite entries were
        # masked out above — of the validating constructor's scans only the
        # non-negativity check can still fail, so run just that one and take
        # the trusted path (this is the per-batch graph-build hot loop).
        if len(edge_weights) and edge_weights.min() < 0:
            raise ValueError("edge weights must be non-negative")
        return cls._trusted(
            n_workers=weights.shape[0],
            n_tasks=weights.shape[1],
            edge_workers=workers,
            edge_tasks=tasks,
            edge_weights=edge_weights,
        )

    @classmethod
    def full(cls, weights: np.ndarray) -> "BipartiteGraph":
        """Complete bipartite graph from a dense weight matrix.

        This is the paper's Fig. 3/4 "worst case scenario for the WBGM
        algorithms" — every task connected to every worker.
        """
        weights = np.asarray(weights, dtype=np.float64)
        if not np.all(np.isfinite(weights)):
            raise ValueError("full() requires all-finite weights")
        return cls.from_dense(weights)

    @classmethod
    def from_edges(
        cls,
        n_workers: int,
        n_tasks: int,
        edges: Iterable[Tuple[int, int, float]],
    ) -> "BipartiteGraph":
        """Build from (worker, task, weight) triples."""
        triples = list(edges)
        if triples:
            workers, tasks, weights = map(np.asarray, zip(*triples))
        else:
            workers = tasks = np.empty(0, dtype=np.int64)
            weights = np.empty(0, dtype=np.float64)
        return cls(
            n_workers=n_workers,
            n_tasks=n_tasks,
            edge_workers=workers,
            edge_tasks=tasks,
            edge_weights=weights,
        )

    @classmethod
    def empty(cls, n_workers: int, n_tasks: int) -> "BipartiteGraph":
        return cls.from_edges(n_workers, n_tasks, [])

    # ------------------------------------------------------------- editing
    def with_pruned_edges(self, keep: np.ndarray) -> "BipartiteGraph":
        """Copy with only the edges selected by boolean mask ``keep``."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self.n_edges,):
            raise ValueError("keep mask must have one entry per edge")
        # A subset of validated edges cannot violate any invariant (index
        # ranges, finiteness, non-negativity, pair uniqueness), so skip the
        # O(E) re-validation scans via the trusted constructor.
        return BipartiteGraph._trusted(
            n_workers=self.n_workers,
            n_tasks=self.n_tasks,
            edge_workers=self.edge_workers[keep],
            edge_tasks=self.edge_tasks[keep],
            edge_weights=self.edge_weights[keep],
        )

    def prune_below(self, min_weight: float) -> "BipartiteGraph":
        """Drop low-weight edges (§IV-A: "low weighted edges could be pruned
        to reduce the graph's size since they would imply a task assignment
        with worker of a low quality")."""
        return self.with_pruned_edges(self.edge_weights >= min_weight)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BipartiteGraph(workers={self.n_workers}, tasks={self.n_tasks}, "
            f"edges={self.n_edges})"
        )
