"""Adaptive retainer sizing: live arrival-rate estimate -> ``c*`` retunes.

The closed-form ``optimal_pool_size`` (:mod:`repro.retainer.analytic`) needs
the task arrival rate lam — known in a benchmark, unknown on a live
platform where demand ramps.  This module closes the loop:

* :class:`EwmaRateEstimator` maintains an exponentially weighted moving
  average of inter-arrival gaps; its ``rate`` (1 / mean gap) tracks a
  ramping workload with bounded lag and O(1) state;
* :class:`AdaptivePoolSizer` wakes every ``interval`` simulated seconds,
  reads the estimated lam (and a service-rate estimate mu from observed
  worker times when available), recomputes ``c* = optimal_pool_size(...)``
  and applies it through :meth:`RetainerPool.resize` — evicted workers are
  handed back to the recruiter as walk-ins instead of vanishing.

Both classes are clock-agnostic (they observe time only through the events
that invoke them), so the same sizer runs under the DES engine and the
wall-clock service runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

from ..sim.clock import EventClock
from ..sim.process import PeriodicProcess
from ..sim.weak import weak_method
from .analytic import optimal_pool_size
from .pool import RetainerPool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..stats.metrics import MetricsCollector


class EwmaRateEstimator:
    """EWMA of inter-arrival gaps; ``rate`` is the smoothed arrival rate.

    ``alpha`` weights the newest gap; with arrivals at rate lam the
    estimate converges to lam with time constant ~``1/(alpha·lam)``
    seconds.  Before two observations the rate is ``None`` (no gap seen).
    """

    def __init__(self, alpha: float = 0.2) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self._alpha = alpha
        self._last_at: Optional[float] = None
        self._mean_gap: Optional[float] = None
        self.observations = 0

    def observe(self, now: float) -> None:
        """Record one arrival at time ``now`` (nondecreasing)."""
        self.observations += 1
        if self._last_at is not None:
            gap = max(now - self._last_at, 0.0)
            if self._mean_gap is None:
                self._mean_gap = gap
            else:
                self._mean_gap += self._alpha * (gap - self._mean_gap)
        self._last_at = now

    @property
    def rate(self) -> Optional[float]:
        """Smoothed arrivals per second; None until two arrivals were seen."""
        if self._mean_gap is None or self._mean_gap <= 0:
            return None
        return 1.0 / self._mean_gap


@dataclass
class RetuneRecord:
    """One sizer wake-up that changed (or confirmed) the capacity."""

    at: float
    arrival_rate: float
    service_rate: float
    capacity: int
    evicted: int


class AdaptivePoolSizer:
    """Periodic ``c*`` retuning for a live :class:`RetainerPool`."""

    def __init__(
        self,
        engine: EventClock,
        pool: RetainerPool,
        estimator: EwmaRateEstimator,
        wage_per_second: float,
        wait_cost_per_second: float,
        interval: float = 30.0,
        service_rate_fallback: float = 1.0 / 60.0,
        metrics: Optional["MetricsCollector"] = None,
        on_evict: Optional[Callable[[int], None]] = None,
        min_capacity: int = 1,
        max_capacity: int = 10_000,
    ) -> None:
        if wage_per_second <= 0:
            raise ValueError(
                "adaptive sizing needs a positive wage_per_second "
                f"(optimal_pool_size is undefined at wage {wage_per_second})"
            )
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if service_rate_fallback <= 0:
            raise ValueError(
                f"service_rate_fallback must be positive, got {service_rate_fallback}"
            )
        if not 1 <= min_capacity <= max_capacity:
            raise ValueError(
                f"need 1 <= min_capacity <= max_capacity, got "
                f"[{min_capacity}, {max_capacity}]"
            )
        self._engine = engine
        self._pool = pool
        self._estimator = estimator
        self._wage = wage_per_second
        self._wait_cost = wait_cost_per_second
        self._fallback_mu = service_rate_fallback
        self._metrics = metrics
        self._on_evict = on_evict
        self._min_c = min_capacity
        self._max_c = max_capacity
        self.retunes: List[RetuneRecord] = []
        self.evictions = 0
        self._process = PeriodicProcess(
            engine, period=interval, action=weak_method(self.retune)
        )

    def stop(self) -> None:
        self._process.stop()

    def observe_arrival(self) -> None:
        """Convenience: feed one task arrival at the current clock time."""
        self._estimator.observe(self._engine.now)

    # ------------------------------------------------------------ internals
    def _service_rate(self) -> float:
        """mu from observed worker times; fallback until completions exist."""
        if self._metrics is not None:
            times = [
                outcome.worker_time
                for outcome in self._metrics.outcomes[-200:]
                if outcome.worker_time is not None and outcome.worker_time > 0
            ]
            if times:
                return len(times) / sum(times)
        return self._fallback_mu

    def retune(self, now: float) -> Optional[int]:
        """One wake-up: recompute ``c*`` and resize; returns the new c."""
        lam = self._estimator.rate
        if lam is None or lam <= 0:
            return None
        mu = self._service_rate()
        capacity = optimal_pool_size(
            arrival_rate=lam,
            service_rate=mu,
            wage_per_second=self._wage,
            wait_cost_per_second=self._wait_cost,
            c_max=self._max_c,
        )
        capacity = max(self._min_c, min(capacity, self._max_c))
        evicted = 0
        if capacity != self._pool.capacity:
            evicted = self._pool.resize(capacity, on_evict=self._on_evict)
            self.evictions += evicted
        self.retunes.append(
            RetuneRecord(
                at=now,
                arrival_rate=lam,
                service_rate=mu,
                capacity=capacity,
                evicted=evicted,
            )
        )
        return capacity
