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

        Internal fast path for :meth:`from_dense`, whose edge arrays meet
        every invariant but non-negativity by construction.  Callers must
        pass contiguous arrays of the canonical dtypes (``np.nonzero`` and
        fancy indexing yield exactly that).
        """
        graph = object.__new__(cls)
        object.__setattr__(graph, "n_workers", n_workers)
        object.__setattr__(graph, "n_tasks", n_tasks)
        object.__setattr__(graph, "edge_workers", edge_workers)
        object.__setattr__(graph, "edge_tasks", edge_tasks)
        object.__setattr__(graph, "edge_weights", edge_weights)
        return graph

    # ------------------------------------------------------------ queries
    @property
    def n_edges(self) -> int:
        return len(self.edge_workers)

    @property
    def is_empty(self) -> bool:
        return self.n_edges == 0

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BipartiteGraph(workers={self.n_workers}, tasks={self.n_tasks}, "
            f"edges={self.n_edges})"
        )
