"""Resilience layer: graceful degradation under injected (or real) faults.

The chaos subsystem (:mod:`repro.chaos`) proves the platform *survives*
misbehaving reality; this module is what makes the survival graceful.
Three mechanisms, all declaratively configured by :class:`ResilienceConfig`
and all off by default (a server built without a config behaves exactly as
the paper's middleware):

* **Retry with exponential backoff** — a task withdrawn from its worker
  (Eq. 2, deadline expiry return) does not instantly rejoin the matcher's
  queue; it is parked for ``base * factor**(assignments-1)`` seconds
  (capped).  A task that keeps bouncing between dawdlers consumes matcher
  slots at a geometrically decreasing rate instead of thrashing.
* **Per-task reassignment budget** — after ``max_reassignments`` handouts
  the platform stops re-matching the task and retires it (counted in
  :attr:`~repro.stats.metrics.MetricsCollector.reassignment_budget_exhausted`),
  bounding the worst-case work amplification any single task can cause.
* **Degraded-mode scheduling** — :class:`DegradedModeController` watches
  every published batch's simulated matcher latency; when it exceeds
  ``latency_budget`` for ``trip_after`` consecutive batches the REACT WBGM
  matcher is swapped for the cheap fallback (Greedy by default), and swapped
  back after ``recover_after`` consecutive batches under budget.  This is
  the classic circuit-breaker shape: correctness of assignments is traded
  for queue drain speed only while the matcher is the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..core.matching.base import Matcher
from ..core.matching.registry import create_matcher
from ..obs.runtime import ObservabilityLike, resolve
from ..obs.trace import SCHEDULER_TRACK
from ..sim.clock import EventClock
from ..stats.metrics import MetricsCollector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .scheduling import BatchRecord, SchedulingComponent


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the resilience layer (all mechanisms optional).

    ``retry_backoff_base <= 0`` disables the backoff (withdrawn tasks
    rejoin the queue immediately, the paper's behaviour);
    ``max_reassignments=None`` disables the budget; ``latency_budget=None``
    disables degraded mode.
    """

    #: First-retry park time in seconds (<= 0 disables backoff).
    retry_backoff_base: float = 2.0
    #: Multiplier applied per additional reassignment.
    retry_backoff_factor: float = 2.0
    #: Upper bound on any single park time.
    retry_backoff_cap: float = 30.0
    #: Total handouts allowed per task before it is retired (None = no cap).
    max_reassignments: Optional[int] = None
    #: Simulated matcher seconds per batch above which the batch counts as
    #: over budget (None disables the degraded-mode controller).
    latency_budget: Optional[float] = None
    #: Consecutive over-budget batches before the fallback engages.
    trip_after: int = 2
    #: Consecutive in-budget batches before the primary matcher returns.
    recover_after: int = 2
    #: Registry name of the fallback matcher.
    fallback_matcher: str = "greedy"

    def __post_init__(self) -> None:
        if self.retry_backoff_factor <= 0:
            raise ValueError("retry_backoff_factor must be positive")
        if self.retry_backoff_cap < 0:
            raise ValueError("retry_backoff_cap must be non-negative")
        if self.max_reassignments is not None and self.max_reassignments < 1:
            raise ValueError("max_reassignments must be >= 1 or None")
        if self.latency_budget is not None and self.latency_budget <= 0:
            raise ValueError("latency_budget must be positive or None")
        if self.trip_after < 1 or self.recover_after < 1:
            raise ValueError("trip_after/recover_after must be >= 1")

    @property
    def backoff_enabled(self) -> bool:
        return self.retry_backoff_base > 0

    def backoff_delay(self, assignments: int) -> float:
        """Park time before retry number ``assignments`` re-queues."""
        exponent = max(0, assignments - 1)
        return min(
            self.retry_backoff_cap,
            self.retry_backoff_base * self.retry_backoff_factor ** exponent,
        )


class DegradedModeController:
    """Latency circuit breaker: REACT WBGM -> fallback matcher and back."""

    def __init__(
        self,
        engine: EventClock,
        scheduling: "SchedulingComponent",
        config: ResilienceConfig,
        metrics: MetricsCollector,
        observability: Optional[ObservabilityLike] = None,
    ) -> None:
        if config.latency_budget is None:
            raise ValueError("DegradedModeController needs a latency_budget")
        self._engine = engine
        self._scheduling = scheduling
        self._config = config
        self._metrics = metrics
        obs = resolve(observability)
        self._tracer = obs.tracer
        obs.registry.gauge(
            "react_degraded_mode", "1 while the fallback matcher is engaged",
            source=lambda: self.degraded,
        )
        self._primary: Matcher = scheduling.matcher
        self._fallback: Matcher = create_matcher(config.fallback_matcher)
        self._over = 0
        self._under = 0
        self._engaged_at: Optional[float] = None
        self.degraded = False

    def observe(self, record: "BatchRecord") -> None:
        """Feed one published batch; may trip or reset the breaker."""
        if record.simulated_seconds > self._config.latency_budget:
            self._over += 1
            self._under = 0
        else:
            self._under += 1
            self._over = 0
        if not self.degraded and self._over >= self._config.trip_after:
            self._engage()
        elif self.degraded and self._under >= self._config.recover_after:
            self._disengage()

    def _engage(self) -> None:
        self.degraded = True
        self._engaged_at = self._engine.now
        self._scheduling.set_matcher(self._fallback)
        self._metrics.degraded_mode_switches += 1
        self._tracer.instant(
            "degraded.engage",
            cat="resilience",
            tid=SCHEDULER_TRACK,
            fallback=self._fallback.name,
        )

    def _disengage(self) -> None:
        self.degraded = False
        self._scheduling.set_matcher(self._primary)
        duration = 0.0
        if self._engaged_at is not None:
            duration = self._engine.now - self._engaged_at
            self._metrics.degraded_mode_seconds += duration
            self._engaged_at = None
        self._tracer.instant(
            "degraded.disengage",
            cat="resilience",
            tid=SCHEDULER_TRACK,
            degraded_seconds=round(duration, 3),
        )

    def finalize(self) -> None:
        """End-of-run accounting: close an open degraded interval."""
        if self.degraded and self._engaged_at is not None:
            self._metrics.degraded_mode_seconds += self._engine.now - self._engaged_at
            self._engaged_at = self._engine.now
