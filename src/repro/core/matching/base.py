"""Matcher interface and matching-result container.

All matchers consume a :class:`~repro.graph.bipartite.BipartiteGraph` and
produce a :class:`MatchingResult` — a set of selected edges such that no two
share a vertex (the constraint set of the paper's §III-C maximization
problem).  The randomized matchers additionally accept an RNG so that the
platform can route their randomness through a named stream.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...graph.bipartite import BipartiteGraph


class MatchingError(ValueError):
    """Raised when a produced matching violates the one-to-one constraints."""


def has_duplicates(values: np.ndarray) -> bool:
    """Whether an integer array repeats a value.

    Same verdict as ``len(np.unique(values)) != len(values)``; a set of the
    listed values skips ``unique``'s sort, which dominates at matching sizes
    (a few to a few hundred edges per batch).
    """
    return len(values) > 1 and len(set(values.tolist())) != len(values)


@dataclass(frozen=True)
class MatchingResult:
    """Outcome of one matcher invocation.

    Attributes
    ----------
    graph:
        The input graph (kept so validation and weight audits are possible).
    edge_indices:
        Indices into the graph's edge arrays; the selected matching M.
    algorithm:
        Matcher name (for reporting).
    cycles_used:
        Iterations consumed (randomized matchers) or 0.
    stats:
        Free-form per-run counters (accepted/rejected moves etc.).
    task_worker:
        Optional dense ``int64`` array of length ``graph.n_tasks`` mapping
        task index → matched worker index (``-1`` unmatched), produced
        in-kernel by :func:`repro.core.kernels.wbgm_accept_loop` or by
        :class:`~repro.core.matching.greedy.GreedyMatcher`'s row scan.
        When a matcher supplies it, the mapping is one-to-one *by
        construction* (the matcher's per-vertex state admits at most one
        edge per worker and per task), so :meth:`validate` and the
        ``__post_init__`` duplicate check become O(1) and
        :meth:`task_assignment` needs no per-edge scan.
    """

    graph: BipartiteGraph
    edge_indices: np.ndarray
    algorithm: str
    cycles_used: int = 0
    stats: Dict[str, int] = field(default_factory=dict)
    task_worker: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        idx = np.ascontiguousarray(self.edge_indices, dtype=np.int64)
        object.__setattr__(self, "edge_indices", idx)
        if len(idx) and (idx.min() < 0 or idx.max() >= self.graph.n_edges):
            raise MatchingError("edge index out of range")
        if self.task_worker is not None:
            if len(self.task_worker) != self.graph.n_tasks:
                raise MatchingError("task_worker length != graph.n_tasks")
            # A matcher-built row is duplicate-free by construction.
            return
        if has_duplicates(idx):
            raise MatchingError("duplicate edge in matching")

    # ----------------------------------------------------------- contents
    @property
    def size(self) -> int:
        """Cardinality |M|."""
        return len(self.edge_indices)

    @property
    def total_weight(self) -> float:
        """The objective Σ w_ij x_ij the paper maximizes (fitness g(x))."""
        return float(self.graph.edge_weights[self.edge_indices].sum())

    @property
    def workers(self) -> np.ndarray:
        return self.graph.edge_workers[self.edge_indices]

    @property
    def tasks(self) -> np.ndarray:
        return self.graph.edge_tasks[self.edge_indices]

    def pairs(self) -> List[Tuple[int, int]]:
        """(worker_index, task_index) pairs of the matching."""
        return list(zip(self.workers.tolist(), self.tasks.tolist()))

    def task_assignment(self) -> Dict[int, int]:
        """task index → worker index mapping."""
        if self.task_worker is not None:
            row = self.task_worker.tolist()
            return {t: w for t, w in enumerate(row) if w >= 0}
        return {int(t): int(w) for w, t in zip(self.workers, self.tasks)}

    def task_assignment_dense(self) -> np.ndarray:
        """Dense task index → worker index array (``-1`` = unmatched).

        Returns the matcher-precomputed :attr:`task_worker` row when present;
        otherwise derives it once from the matched edges.
        """
        if self.task_worker is not None:
            return self.task_worker
        row = np.full(self.graph.n_tasks, -1, dtype=np.int64)
        row[self.tasks] = self.workers
        return row

    # ---------------------------------------------------------- validation
    def validate(self) -> None:
        """Raise :class:`MatchingError` unless M is a valid matching.

        Checks the two §III-C constraint families: each worker in at most
        one selected edge, each task in at most one selected edge.  A
        matcher-supplied :attr:`task_worker` row certifies both families by
        construction, so the uniqueness scans are skipped.
        """
        if self.task_worker is not None:
            return
        workers = self.workers
        tasks = self.tasks
        if has_duplicates(workers):
            raise MatchingError("a worker appears in two matched edges")
        if has_duplicates(tasks):
            raise MatchingError("a task appears in two matched edges")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MatchingResult(algorithm={self.algorithm!r}, size={self.size}, "
            f"weight={self.total_weight:.4f})"
        )


class Matcher(abc.ABC):
    """Abstract weighted-bipartite-graph matcher."""

    #: Short identifier used in reports and the registry.
    name: str = "abstract"

    @abc.abstractmethod
    def match(
        self, graph: BipartiteGraph, rng: Optional[np.random.Generator] = None
    ) -> MatchingResult:
        """Compute a matching of ``graph``.

        Deterministic matchers ignore ``rng``; randomized ones require it —
        the platform threads the named matcher stream (``sim.rng``), and
        standalone callers must pass ``np.random.default_rng(seed)``.
        Omitting it raises :class:`MatchingError` rather than silently
        falling back to OS entropy, which would make reruns diverge.
        """

    def _rng(self, rng: Optional[np.random.Generator]) -> np.random.Generator:
        if rng is None:
            raise MatchingError(
                f"{type(self).__name__} is randomized and requires an explicit "
                "rng: thread the platform's matcher stream "
                "(RngRegistry.stream(STREAM_MATCHER)) or pass "
                "np.random.default_rng(seed). An implicit unseeded generator "
                "would break run-to-run reproducibility (reprolint DET001)."
            )
        return rng

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def empty_result(graph: BipartiteGraph, algorithm: str) -> MatchingResult:
    """The empty matching (used for empty graphs)."""
    return MatchingResult(
        graph=graph,
        edge_indices=np.empty(0, dtype=np.int64),
        algorithm=algorithm,
    )
