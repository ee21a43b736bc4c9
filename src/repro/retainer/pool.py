"""The retainer pool: paid standby workers released to tasks on demand.

Real-time crowdsourcing systems pre-recruit workers onto a paid *retainer*
so they can be handed a task within seconds instead of waiting for a fresh
marketplace arrival (Bernstein et al.).  :class:`RetainerPool` is that
layer, expressed against the simulation engine:

* workers are *held* idle on retainer (FIFO), earning
  :class:`~repro.platform.cost.RetainerCostConfig.wage_per_second` through
  a :class:`~repro.platform.cost.RetainerLedger`;
* a demand-side :meth:`request` either dispatches the longest-held idle
  worker after ``release_latency`` simulated seconds (the "come back to
  the tab" alert delay) or queues FIFO until a worker is returned;
* :meth:`return_worker` puts a worker back on hold — or hands him straight
  to the oldest queued request, which is what makes a saturated pool behave
  as the M/M/c queue the analytic module (:mod:`repro.retainer.analytic`)
  predicts and ``tests/validation/`` measures.

The pool is policy-free: it neither knows what a worker is nor why demand
arrives.  :mod:`repro.retainer.recruit` adapts it to the REACT server, and
:mod:`repro.retainer.validate` drives it directly as a plain M/M/c system.

Telemetry (all through the :mod:`repro.obs` facade): ``retainer_pool_held``
/ ``retainer_pool_outstanding`` gauges, a ``retainer_release_latency_seconds``
histogram of request-to-dispatch delay (queue wait + release latency), and
``retainer_wage_cost_total`` / ``retainer_releases_total`` /
``retainer_rejected_workers_total`` counters.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from ..obs.runtime import ObservabilityLike, resolve
from ..platform.cost import RetainerCostConfig, RetainerLedger
from ..sim.clock import EventClock
from ..sim.events import Event, EventKind

#: Dispatch callback: receives ``(worker_id, waited_seconds)`` where the
#: wait covers queueing *and* the release latency.
ReleaseCallback = Callable[[int, float], None]


class RetainerPool:
    """Capacity-bounded FIFO pool of retained workers with release latency."""

    def __init__(
        self,
        engine: EventClock,
        capacity: int,
        cost: Optional[RetainerCostConfig] = None,
        release_latency: float = 0.0,
        observability: Optional[ObservabilityLike] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if release_latency < 0:
            raise ValueError(
                f"release_latency must be non-negative, got {release_latency}"
            )
        self._engine = engine
        self.capacity = capacity
        self.release_latency = release_latency
        self.ledger = RetainerLedger(cost if cost is not None else RetainerCostConfig())
        #: worker_id -> simulated time the current hold started (FIFO order).
        self._held: Dict[int, float] = {}
        #: pending demand: (callback, requested_at), FIFO.
        self._waiting: Deque[Tuple[ReleaseCallback, float]] = deque()
        #: workers dispatched and not yet returned.
        self._outstanding: set[int] = set()
        obs = resolve(observability)
        registry = obs.registry
        self._tracer = obs.tracer
        registry.gauge(
            "retainer_pool_held", "Workers currently held idle on retainer",
            source=lambda: len(self._held),
        )
        registry.gauge(
            "retainer_pool_outstanding", "Released workers not yet returned",
            source=lambda: len(self._outstanding),
        )
        self._obs_latency = registry.histogram(
            "retainer_release_latency_seconds",
            "Demand request to worker dispatch (queue wait + release latency)",
            buckets=(0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0),
        )
        self._obs_wage = registry.counter(
            "retainer_wage_cost_total", "Retainer wages accrued (currency units)"
        )
        self._obs_releases = registry.counter(
            "retainer_releases_total", "Workers dispatched to demand"
        )
        self._obs_rejected = registry.counter(
            "retainer_rejected_workers_total",
            "Workers offered to an already-full pool",
        )

    # -------------------------------------------------------------- state
    @property
    def held_count(self) -> int:
        """Workers idle on retainer right now."""
        return len(self._held)

    @property
    def outstanding_count(self) -> int:
        """Workers released to demand and not yet returned."""
        return len(self._outstanding)

    @property
    def pending_requests(self) -> int:
        return len(self._waiting)

    @property
    def has_room(self) -> bool:
        """Whether one more worker can be held or put to queued demand."""
        return len(self._held) + len(self._outstanding) < self.capacity

    def is_held(self, worker_id: int) -> bool:
        return worker_id in self._held

    # ------------------------------------------------------------- supply
    def add_worker(self, worker_id: int) -> bool:
        """Offer a worker to the pool; False when it is already full.

        A worker joining while demand is queued skips the hold entirely and
        is dispatched to the oldest request.
        """
        if worker_id in self._held or worker_id in self._outstanding:
            raise ValueError(f"worker {worker_id} is already pooled")
        if not self.has_room:
            self._obs_rejected.inc()
            return False
        if self._waiting:
            callback, requested_at = self._waiting.popleft()
            self._dispatch(worker_id, callback, requested_at)
            return True
        self._hold(worker_id)
        return True

    def return_worker(self, worker_id: int) -> None:
        """A released worker comes back; re-held or dispatched to demand."""
        if worker_id not in self._outstanding:
            raise ValueError(f"worker {worker_id} was not released by this pool")
        self._outstanding.discard(worker_id)
        if self._waiting:
            callback, requested_at = self._waiting.popleft()
            self._dispatch(worker_id, callback, requested_at)
            return
        self._hold(worker_id)

    def resize(
        self,
        new_capacity: int,
        on_evict: Optional[Callable[[int], None]] = None,
    ) -> int:
        """Retune capacity; shrinking evicts surplus *idle* workers.

        Growth just raises the bound (filling it is the recruiter's job —
        future arrivals find room).  Shrinking evicts newest-held workers
        first (LIFO keeps the longest-held seniority intact) until the pool
        fits, invoking ``on_evict(worker_id)`` per eviction so the caller
        can return the human to walk-in status.  Outstanding workers are
        never evicted mid-dispatch; if they alone exceed the new capacity
        the overshoot decays as they are withdrawn or the next resize runs.
        Returns the number of evictions.
        """
        if new_capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {new_capacity}")
        self.capacity = new_capacity
        evicted = 0
        while (
            self._held
            and len(self._held) + len(self._outstanding) > new_capacity
        ):
            worker_id = next(reversed(self._held))
            self._end_hold(worker_id)
            evicted += 1
            self._tracer.instant(
                "retainer.evict", cat="retainer", worker_id=worker_id
            )
            if on_evict is not None:
                on_evict(worker_id)
        return evicted

    # ------------------------------------------------------------- demand
    def request(self, callback: ReleaseCallback) -> None:
        """Ask for one worker; ``callback(worker_id, waited)`` on dispatch.

        Dispatch happens ``release_latency`` seconds after an idle worker
        is available — immediately for a non-empty pool, or when the next
        worker is returned/added otherwise (FIFO in request order).
        """
        now = self._engine.now
        if self._held:
            worker_id = next(iter(self._held))
            self._dispatch(worker_id, callback, requested_at=now)
            return
        self._waiting.append((callback, now))

    def cancel_requests(self) -> int:
        """Drop all queued demand (end-of-run cleanup); returns the count."""
        dropped = len(self._waiting)
        self._waiting.clear()
        return dropped

    # ------------------------------------------------------------ closing
    def settle(self) -> None:
        """Close out open holds so the ledger covers the full run.

        Idempotent at a fixed simulated time; workers stay held (their next
        hold interval restarts at ``now``).
        """
        now = self._engine.now
        for worker_id in list(self._held):
            self._accrue(worker_id, now)
            self._held[worker_id] = now

    # ------------------------------------------------------------ internals
    def _hold(self, worker_id: int) -> None:
        self._held[worker_id] = self._engine.now

    def _end_hold(self, worker_id: int) -> None:
        self._accrue(worker_id, self._engine.now)
        del self._held[worker_id]

    def _accrue(self, worker_id: int, now: float) -> None:
        held_since = self._held[worker_id]
        cost = self.ledger.accrue_hold(worker_id, now - held_since)
        self._obs_wage.inc(cost)

    def _dispatch(
        self, worker_id: int, callback: ReleaseCallback, requested_at: float
    ) -> None:
        if worker_id in self._held:
            self._end_hold(worker_id)
        self._outstanding.add(worker_id)
        self._engine.schedule(
            self.release_latency,
            EventKind.CALLBACK,
            self._on_released,
            payload=(worker_id, callback, requested_at),
        )

    def _on_released(self, event: Event) -> None:
        worker_id, callback, requested_at = event.payload
        waited = self._engine.now - requested_at
        self._obs_latency.observe(waited)
        self._obs_releases.inc()
        self._tracer.instant(
            "retainer.release",
            cat="retainer",
            worker_id=worker_id,
            waited=waited,
        )
        callback(worker_id, waited)
