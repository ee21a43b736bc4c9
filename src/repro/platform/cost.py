"""Matcher-latency cost models and retainer payment accounting.

The paper's end-to-end results (Figs. 5-10) are driven by the *time the
matching algorithm takes on the server*: while Greedy grinds through its
O(V·E) scan, arriving tasks queue and their deadlines burn (Fig. 5's
collapse).  Our Python matchers have different absolute constants than the
authors' Java middleware, so the simulation charges matcher latency through
an explicit cost model instead of wall-clock:

* :class:`PaperCalibratedCost` — analytic costs whose coefficients are fit
  to the paper's own Fig. 3 measurements:

  - Greedy, O(V·E): 99.7 s at V = 1000 tasks, E = 10⁶ edges
    → κ_greedy = 99.7 / (1000·10⁶) ≈ 9.97·10⁻⁸ s per (task·edge).
  - REACT / Metropolis, O(c·E): 12 s at c·E = 10⁹ and 45 s at 3·10⁹
    (1000 and 3000 cycles on the full 1000×1000 graph).  The two points are
    not proportional, so we use the piecewise-linear interpolation through
    (0, 0), (10⁹, 12 s), (3·10⁹, 45 s) in the c·E product — exact on both
    published measurements and zero for an empty graph.
  - Uniform (Traditional): O(V) — AMT-style self-selection has no matching
    computation worth modelling.
  - Hungarian O(n³) and sorted-greedy O(E log E) coefficients are
    order-of-magnitude placements for the reference algorithms (the paper
    reports no timings for them).

  ``batch_overhead`` adds a fixed per-invocation cost (RPC, graph
  marshalling).

* :class:`ZeroCost` — instantaneous matching, for pure-algorithm studies.

Host wall time never enters a simulated latency, so a seeded run is
deterministic whatever machine executes it.

The second half of the module is the platform's *economic* ledger
(:class:`RetainerCostConfig` / :class:`RetainerLedger`): retainer-pool
recruiting (docs/RETAINER.md) pays workers a wage while they idle on
retainer plus a flat payment per executed assignment.  The ledger keeps a
per-worker account so experiment reports can attribute spend, and its
invariants — cost monotone in time on retainer, zero-duration assignments
cost zero, totals equal the sum of the per-worker accounts — are
property-tested in ``tests/platform/test_cost_properties.py``.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class BatchShape:
    """Size descriptors of one matching invocation."""

    n_workers: int
    n_tasks: int
    n_edges: int
    cycles: int = 0

    def __post_init__(self) -> None:
        if min(self.n_workers, self.n_tasks, self.n_edges, self.cycles) < 0:
            raise ValueError(f"negative batch dimension: {self}")


class CostModel(abc.ABC):
    """Maps a matcher invocation to simulated seconds of server latency."""

    @abc.abstractmethod
    def seconds(self, algorithm: str, shape: BatchShape) -> float:
        """Simulated latency of running ``algorithm`` on ``shape``."""


class ZeroCost(CostModel):
    """Matching is free (isolates algorithm quality from latency)."""

    def seconds(self, algorithm: str, shape: BatchShape) -> float:
        return 0.0


#: Fig. 3 calibration points, documented in the module docstring.
KAPPA_GREEDY = 99.7 / (1000 * 1_000_000)  # s per task·edge
_RANDOMIZED_KNOTS = ((0.0, 0.0), (1e9, 12.0), (3e9, 45.0))  # (cycles·edges, s)
KAPPA_UNIFORM = 1e-6  # s per task: negligible by construction
KAPPA_HUNGARIAN = 1e-8  # s per n³
KAPPA_SORTED_GREEDY = 2e-8  # s per edge·log2(edge)


def _interp_knots(u: float) -> float:
    """Piecewise-linear through the Fig. 3 knots; extrapolates the last slope."""
    knots = _RANDOMIZED_KNOTS
    for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
        if u <= x1:
            return y0 + (u - x0) * (y1 - y0) / (x1 - x0)
    (x0, y0), (x1, y1) = knots[-2], knots[-1]
    return y1 + (u - x1) * (y1 - y0) / (x1 - x0)


@dataclass(frozen=True)
class PaperCalibratedCost(CostModel):
    """Analytic latency model calibrated to the paper's Fig. 3."""

    batch_overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.batch_overhead < 0:
            raise ValueError(f"batch_overhead must be non-negative, got {self.batch_overhead}")

    def seconds(self, algorithm: str, shape: BatchShape) -> float:
        if shape.n_edges == 0 and algorithm != "uniform":
            return self.batch_overhead
        if algorithm in ("react", "metropolis"):
            base = _interp_knots(float(shape.cycles) * shape.n_edges)
        elif algorithm == "greedy":
            base = KAPPA_GREEDY * shape.n_tasks * shape.n_edges
        elif algorithm == "uniform":
            base = KAPPA_UNIFORM * shape.n_tasks
        elif algorithm == "hungarian":
            n = max(shape.n_workers, shape.n_tasks)
            base = KAPPA_HUNGARIAN * float(n) ** 3
        elif algorithm in ("sorted-greedy", "threshold"):
            # The threshold matcher is a sorted-greedy sweep with an early
            # exit at the quality bar; same O(E log E) sort dominates.
            base = KAPPA_SORTED_GREEDY * shape.n_edges * math.log2(shape.n_edges + 1)
        else:
            raise KeyError(f"no calibrated cost for algorithm {algorithm!r}")
        return base + self.batch_overhead


# =====================================================================
# Retainer payment accounting (docs/RETAINER.md)
# =====================================================================
@dataclass(frozen=True)
class RetainerCostConfig:
    """Payment schedule of a retainer pool.

    ``wage_per_second`` is paid to a worker for every second he is *held*
    idle on retainer (the Bernstein et al. "small payment to be on call");
    ``task_payment`` is the flat price of one executed assignment.
    """

    wage_per_second: float = 0.01
    task_payment: float = 0.05

    def __post_init__(self) -> None:
        if self.wage_per_second < 0:
            raise ValueError(
                f"wage_per_second must be non-negative, got {self.wage_per_second}"
            )
        if self.task_payment < 0:
            raise ValueError(
                f"task_payment must be non-negative, got {self.task_payment}"
            )


@dataclass
class WorkerAccount:
    """One worker's running totals in a :class:`RetainerLedger`."""

    retainer_seconds: float = 0.0
    retainer_cost: float = 0.0
    assignments_paid: int = 0
    assignment_cost: float = 0.0

    @property
    def total(self) -> float:
        return self.retainer_cost + self.assignment_cost


class RetainerLedger:
    """Per-worker account book for retainer wages and task payments.

    All mutation goes through :meth:`accrue_hold` (idle-on-retainer wage)
    and :meth:`charge_assignment` (flat payment per non-empty execution);
    totals are derived, never stored, so they cannot drift from the
    per-worker accounts.
    """

    def __init__(self, config: RetainerCostConfig) -> None:
        self.config = config
        self._accounts: Dict[int, WorkerAccount] = {}

    # ----------------------------------------------------------- mutation
    def accrue_hold(self, worker_id: int, seconds: float) -> float:
        """Charge the retainer wage for ``seconds`` of idle hold time.

        Returns the cost charged.  Monotone: a longer hold never costs
        less, and zero seconds cost zero.
        """
        if seconds < 0:
            raise ValueError(f"hold seconds must be non-negative, got {seconds}")
        account = self._accounts.setdefault(worker_id, WorkerAccount())
        cost = self.config.wage_per_second * seconds
        account.retainer_seconds += seconds
        account.retainer_cost += cost
        return cost

    def charge_assignment(self, worker_id: int, duration: float) -> float:
        """Charge the flat task payment for one executed assignment.

        A zero-duration assignment performed no work and costs zero (the
        worker never held the task); negative durations are rejected.
        """
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        account = self._accounts.setdefault(worker_id, WorkerAccount())
        if duration == 0:
            return 0.0
        account.assignments_paid += 1
        account.assignment_cost += self.config.task_payment
        return self.config.task_payment

    # ------------------------------------------------------------ queries
    def account(self, worker_id: int) -> WorkerAccount:
        """The (possibly empty) account of one worker."""
        return self._accounts.get(worker_id, WorkerAccount())

    def accounts(self) -> Dict[int, WorkerAccount]:
        """Per-worker accounts keyed by worker id (a live view is not given)."""
        return dict(self._accounts)

    @property
    def retainer_cost(self) -> float:
        return sum(a.retainer_cost for a in self._accounts.values())

    @property
    def retainer_seconds(self) -> float:
        return sum(a.retainer_seconds for a in self._accounts.values())

    @property
    def assignment_cost(self) -> float:
        return sum(a.assignment_cost for a in self._accounts.values())

    @property
    def assignments_paid(self) -> int:
        return sum(a.assignments_paid for a in self._accounts.values())

    @property
    def total_cost(self) -> float:
        """Grand total — by construction the sum of per-worker totals."""
        return sum(a.total for a in self._accounts.values())

    def cost_per_task(self, completed_tasks: int) -> float:
        """Total spend attributed to each of ``completed_tasks`` tasks."""
        if completed_tasks <= 0:
            return 0.0
        return self.total_cost / completed_tasks
