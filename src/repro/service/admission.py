"""Admission control for the live gateway: token bucket + bounded backlog.

The real-time guarantee the paper's middleware offers only holds while the
matcher keeps up with arrivals; past that point every extra admitted task
degrades *all* in-flight deadlines.  The gateway therefore sheds load at
the door with two independent guards, both surfaced to clients as HTTP 429
with a ``Retry-After`` hint:

* a **token bucket** caps the sustained submit rate (``rate`` tasks/s,
  bursts up to ``burst``) — the knob mirrors the paper's arrival-rate axis
  (1.5-12.5 tasks/s per region in §IV);
* a **backlog bound** caps in-flight tasks (submitted, not yet completed or
  expired) so the unassigned queue cannot grow without bound even when the
  bucket rate is misconfigured above the region's service capacity.

Both guards are clock-agnostic: they read time from the injected
:class:`~repro.sim.clock.EventClock`, so admission behaviour is unit-tested
on the deterministic DES engine and served from the wall-clock runtime
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..obs.registry import MetricsRegistry
from ..sim.clock import EventClock


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, capacity ``burst``.

    ``admit(now)`` consumes one token if available and returns
    ``(True, 0.0)``; otherwise ``(False, retry_after)`` where
    ``retry_after`` is the time until a full token accrues.
    """

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last = 0.0

    def _refill(self, now: float) -> None:
        elapsed = now - self._last
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._last = now

    def admit(self, now: float) -> Tuple[bool, float]:
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self._tokens) / self.rate

    @property
    def tokens(self) -> float:
        """Current token count (as of the last admit call)."""
        return self._tokens


@dataclass(frozen=True)
class AdmissionConfig:
    """Gateway admission knobs.

    ``rate``/``burst`` parameterise the token bucket; ``max_in_flight``
    bounds the middleware backlog; ``backlog_retry_after`` is the
    Retry-After hint handed out on backlog rejections (the bucket computes
    its own exact hint).
    """

    rate: float = 50.0
    burst: int = 100
    max_in_flight: int = 1000
    backlog_retry_after: float = 1.0

    def __post_init__(self) -> None:
        # ``0 < x < inf`` is False for NaN too.  A NaN rate would refill the
        # bucket to ``burst`` on every call, so it would admit everything.
        if not 0 < self.rate < math.inf:
            raise ValueError(f"rate must be positive and finite, got {self.rate}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )
        if not 0 < self.backlog_retry_after < math.inf:
            raise ValueError(
                "backlog_retry_after must be positive and finite, "
                f"got {self.backlog_retry_after}"
            )


@dataclass(frozen=True)
class AdmissionDecision:
    admitted: bool
    #: "rate" | "backlog" when rejected, None when admitted.
    reason: Optional[str] = None
    retry_after: float = 0.0


class AdmissionController:
    """Applies the config's two guards and keeps the shedding counters."""

    def __init__(
        self,
        config: AdmissionConfig,
        clock: EventClock,
        backlog_fn: Callable[[], int],
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self._clock = clock
        self._backlog_fn = backlog_fn
        self._bucket = TokenBucket(config.rate, config.burst)
        if registry is not None:
            self._admitted_total = registry.counter(
                "service_admitted_total", "Tasks admitted by the gateway"
            )
            rejected = registry.counter(
                "service_rejected_total",
                "Tasks rejected by admission control",
                labelnames=("reason",),
            )
            self._rejected_rate = rejected.labels(reason="rate")
            self._rejected_backlog = rejected.labels(reason="backlog")
        else:
            self._admitted_total = None
            self._rejected_rate = None
            self._rejected_backlog = None
        self.admitted = 0
        self.rejected_rate = 0
        self.rejected_backlog = 0

    def check(self) -> AdmissionDecision:
        """One submit attempt: backlog guard first, then the bucket.

        Backlog is checked first so a saturated middleware rejects without
        draining bucket tokens (a retrying client would otherwise also eat
        the budget of clients arriving once capacity returns).
        """
        if self._backlog_fn() >= self.config.max_in_flight:
            self.rejected_backlog += 1
            if self._rejected_backlog is not None:
                self._rejected_backlog.inc()
            return AdmissionDecision(
                admitted=False,
                reason="backlog",
                retry_after=self.config.backlog_retry_after,
            )
        ok, retry_after = self._bucket.admit(self._clock.now)
        if not ok:
            self.rejected_rate += 1
            if self._rejected_rate is not None:
                self._rejected_rate.inc()
            return AdmissionDecision(
                admitted=False, reason="rate", retry_after=retry_after
            )
        self.admitted += 1
        if self._admitted_total is not None:
            self._admitted_total.inc()
        return AdmissionDecision(admitted=True)
