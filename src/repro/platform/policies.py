"""Scheduling policies: the three techniques compared in §V-C.

A :class:`SchedulingPolicy` bundles every knob of the REACT server so the
experiment harnesses can swap techniques declaratively:

* :func:`react_policy` — REACT WBGM matcher (1000 cycles), probabilistic
  model on (Eq. 3 edge pruning at 0.1, Eq. 2 reassignment at 0.1, z = 3).
* :func:`greedy_policy` — Greedy matcher, *with* the probabilistic model
  ("When we use the Greedy matching we also use the online probabilistic
  model to reassign the tasks, as in the REACT algorithm").
* :func:`traditional_policy` — AMT-like: uniform matching, no probabilistic
  model, expired tasks still get handed to workers (nothing in a
  traditional platform stops a worker from picking up a stale task).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..core.matching.base import Matcher
from ..core.matching.registry import create_matcher
from ..core.weights import WeightFunction, make_weight_function
from .cost import RetainerCostConfig


@dataclass(frozen=True)
class RetainerSpec:
    """Retainer-pool recruiting attached to a scheduling policy.

    When set on a :class:`SchedulingPolicy`, the end-to-end harness runs a
    marketplace (workers arrive over time instead of pre-connecting) and
    holds up to ``size`` of them on paid retainer ahead of the matcher —
    the Bernstein et al. model implemented in :mod:`repro.retainer`.
    """

    #: Pool capacity c; ``repro.retainer.analytic.optimal_pool_size`` gives
    #: the budget-optimal choice for a given (lam, mu, wage, wait-cost).
    size: int = 20
    wage_per_second: float = 0.01
    task_payment: float = 0.05
    #: Seconds between a release alert and the worker rejoining the matcher
    #: (the "come back to the tab" delay).
    release_latency: float = 0.5
    #: Period of the recruiter sweep (re-pooling, patience culls).
    sweep_interval: float = 1.0
    #: Periodically retune ``size`` from a live EWMA arrival-rate estimate
    #: (:mod:`repro.retainer.adaptive`); needs ``wage_per_second > 0``.
    adaptive: bool = False
    #: Seconds between adaptive retunes.
    adaptive_interval: float = 30.0
    #: Requester-side cost of one task-second of queueing, fed to
    #: ``optimal_pool_size`` by the adaptive sizer.
    wait_cost_per_second: float = 0.05

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"retainer size must be >= 1, got {self.size}")
        if not (self.wage_per_second >= 0 and self.task_payment >= 0):
            raise ValueError("retainer payments must be non-negative")
        if not self.release_latency >= 0:
            raise ValueError("release_latency must be non-negative")
        if not self.sweep_interval > 0:
            raise ValueError("sweep_interval must be positive")
        if self.adaptive and self.wage_per_second <= 0:
            raise ValueError("adaptive sizing requires wage_per_second > 0")
        if not self.adaptive_interval > 0:
            raise ValueError("adaptive_interval must be positive")
        if not self.wait_cost_per_second >= 0:
            raise ValueError("wait_cost_per_second must be non-negative")

    def cost_config(self) -> RetainerCostConfig:
        return RetainerCostConfig(
            wage_per_second=self.wage_per_second, task_payment=self.task_payment
        )


@dataclass(frozen=True)
class SchedulingPolicy:
    """Complete configuration of a REACT server's scheduling behaviour.

    Attributes mirror the experimental setup of §V-C; see the module
    docstring for the three presets.
    """

    name: str
    matcher_name: str = "react"
    cycles: int = 1000
    k_constant: float = 0.05
    adaptive_cycles: bool = False
    weight_function_name: str = "accuracy"
    #: Constructor kwargs for the weight function, as a tuple of
    #: ``(name, value)`` pairs so the frozen policy stays hashable — e.g.
    #: ``(("speed_kmh", 25.0),)`` for the travel-time weight.  ``None``
    #: (the default) builds the weight with its defaults.
    weight_params: Optional[Tuple[Tuple[str, float], ...]] = None
    #: Enables Eq. 3 edge pruning and the Eq. 2 reassignment monitor.
    use_probabilistic_model: bool = True
    #: Lower bound on Eq. 3 below which edges are pruned.
    edge_probability_bound: float = 0.1
    #: Eq. 2 threshold under which a running task is pulled back (10%).
    reassign_threshold: float = 0.1
    #: Completed tasks required before the model activates for a worker (z).
    min_history: int = 3
    #: Duration-distribution family for Eqs. 2-3: "power-law" (the paper's
    #: §IV-B choice), "empirical", or "lognormal" (ABL-MODEL ablation).
    duration_model: str = "power-law"
    #: Batch trigger: run the matcher once this many tasks are unassigned.
    batch_threshold: int = 10
    #: Fallback periodic batch trigger so stragglers are not starved.
    batch_period: float = 5.0
    #: Whether tasks whose deadline lapsed in the queue may still be handed
    #: to workers (True for the traditional baseline) or are retired.
    assign_expired: bool = False
    #: AMT semantics (§II): "If the deadline expires while being executed,
    #: the task returns to the tasks repository as unassigned."  All three
    #: techniques inherit this platform behaviour; it is the only way an
    #: *abandoned* task ever resurfaces under the traditional baseline.
    expire_running_tasks: bool = True
    #: Charge the matcher's latency against the full region graph (every
    #: in-flight task × every online worker) instead of the batch subgraph.
    #: This reproduces the paper's O(V·E) accounting for Greedy, whose
    #: implementation scans the region's maintained edge list per task; the
    #: randomized matchers only ever touch the batch subgraph they flip
    #: edges in, so they stay charged on the batch (Fig. 3 calibration).
    charge_region_graph: bool = False
    #: Retainer-pool recruiting (docs/RETAINER.md); None = on-demand only.
    #: Policies with a retainer require the harness's marketplace mode
    #: (``EndToEndConfig.worker_arrival_rate``).
    retainer: Optional[RetainerSpec] = None

    def __post_init__(self) -> None:
        if self.batch_threshold < 1:
            raise ValueError(f"batch_threshold must be >= 1, got {self.batch_threshold}")
        if self.batch_period <= 0:
            raise ValueError(f"batch_period must be positive, got {self.batch_period}")
        if not (0.0 <= self.edge_probability_bound <= 1.0):
            raise ValueError("edge_probability_bound must be in [0,1]")
        if not (0.0 <= self.reassign_threshold <= 1.0):
            raise ValueError("reassign_threshold must be in [0,1]")
        if self.min_history < 0:
            raise ValueError("min_history must be >= 0")
        if self.duration_model not in ("power-law", "empirical", "lognormal"):
            raise ValueError(f"unknown duration_model {self.duration_model!r}")

    # ------------------------------------------------------------ factories
    def build_matcher(self) -> Matcher:
        if self.matcher_name in ("react", "metropolis"):
            return create_matcher(
                self.matcher_name,
                cycles=self.cycles,
                k_constant=self.k_constant,
                adaptive_cycles=self.adaptive_cycles,
            )
        return create_matcher(self.matcher_name)

    def build_weight_function(self) -> WeightFunction:
        return make_weight_function(
            self.weight_function_name, **dict(self.weight_params or ())
        )


def react_policy(
    cycles: int = 1000,
    reassign_threshold: float = 0.1,
    min_history: int = 3,
    **overrides: Any,
) -> SchedulingPolicy:
    """The REACT technique exactly as configured in §V-C."""
    return SchedulingPolicy(
        name="react",
        matcher_name="react",
        cycles=cycles,
        reassign_threshold=reassign_threshold,
        min_history=min_history,
        **overrides,
    )


def greedy_policy(**overrides: Any) -> SchedulingPolicy:
    """Greedy matching + the probabilistic reassignment model (§V-C).

    Per the paper's §V-B Discussion, Greedy does not need to gather a batch:
    "the Greedy one can be either triggered for each unassigned task or wait
    for a number of tasks" — its natural configuration (and the one whose
    queueing behaviour Fig. 5 exhibits) triggers per task, paying the region
    edge-list scan on every invocation.
    """
    overrides.setdefault("charge_region_graph", True)
    overrides.setdefault("batch_threshold", 1)
    return SchedulingPolicy(
        name="greedy",
        matcher_name="greedy",
        **overrides,
    )


def traditional_policy(**overrides: Any) -> SchedulingPolicy:
    """AMT-like baseline: uniform assignment, no probabilistic model.

    "It does not react when the user delays a task" (§V-C): once handed to
    a worker, a task stays with him — no Eq. 2 monitor and no deadline
    pull-back — so slow workers deliver late results and abandoned tasks
    are simply lost.  This is what produces the paper's traditional-curve
    numbers (≈51% on-time, worst execution times in Figs. 7-8).
    """
    overrides.setdefault("expire_running_tasks", False)
    return SchedulingPolicy(
        name="traditional",
        matcher_name="uniform",
        weight_function_name="constant",
        use_probabilistic_model=False,
        assign_expired=True,
        **overrides,
    )


def react_retainer_policy(
    retainer: Optional[RetainerSpec] = None,
    cycles: int = 1000,
    **overrides: Any,
) -> SchedulingPolicy:
    """REACT plus a retainer pool ahead of the matcher.

    Identical scheduling behaviour to :func:`react_policy`; the difference
    is supply-side — arriving workers are banked on paid retainer and
    released to demand within ``retainer.release_latency`` seconds instead
    of browsing off if nothing is queued.
    """
    return SchedulingPolicy(
        name="react_retainer",
        matcher_name="react",
        cycles=cycles,
        retainer=retainer if retainer is not None else RetainerSpec(),
        **overrides,
    )


def metropolis_policy(cycles: int = 1000, **overrides: Any) -> SchedulingPolicy:
    """Metropolis matching with the probabilistic model (for ablations)."""
    return SchedulingPolicy(
        name="metropolis",
        matcher_name="metropolis",
        cycles=cycles,
        **overrides,
    )
