"""Marketplace recruiting: worker arrivals, patience, and the retainer.

The stock end-to-end experiment connects every worker at t = 0; real
platforms recruit from a *marketplace* where workers show up over time and
leave if nothing engages them.  :class:`RetainerRecruiter` drives that
supply side for one :class:`~repro.platform.server.REACTServer`:

* workers arrive via an inter-arrival gap stream (the Poisson processes of
  :mod:`repro.workload.arrivals`), drawing identity/behaviour pairs from a
  pre-generated population;
* an arriving worker is *held on retainer* when the policy runs a
  :class:`~repro.retainer.pool.RetainerPool` with room — paid to stand by,
  invisible to the matcher until released;
* otherwise he browses as a walk-in: online and matchable, but gone after
  ``patience`` idle seconds (the supply the plain on-demand baseline
  wastes, and the retainer banks);
* demand releases held workers: every task submission and a periodic sweep
  size the release rate to the unassigned backlog, and released workers
  whose backlog is drained return to the pool.

Plain REACT under the same marketplace is the recruiter with
``pool=None`` — identical arrival trace and patience, no retainer — which
is exactly the REACT-vs-REACT-with-retainer comparison the ROADMAP asks
for (Bernstein/Karger/Miller).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from ..model.worker import WorkerBehavior, WorkerProfile
from ..obs.runtime import ObservabilityLike, resolve
from ..sim.clock import EventClock
from ..sim.events import EventKind
from ..sim.process import GeneratorProcess, PeriodicProcess
from ..sim.weak import weak_method
from .pool import RetainerPool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..platform.server import REACTServer

Supply = Sequence[Tuple[WorkerProfile, WorkerBehavior]]


@dataclass
class RecruiterStats:
    """Counters the retainer comparison report prints."""

    arrived: int = 0
    retained: int = 0
    walk_ins: int = 0
    patience_departures: int = 0
    releases_requested: int = 0
    repooled: int = 0


@dataclass
class _Managed:
    """Recruiter-side state of one recruited worker."""

    #: currently dispatched by the pool (outstanding) — never patience-culled.
    pooled: bool
    #: first sweep time at which the worker was observed idle (walk-ins only).
    idle_since: Optional[float] = None


class RetainerRecruiter:
    """Supply-side driver: arrivals, patience culls, retainer release."""

    def __init__(
        self,
        engine: EventClock,
        server: "REACTServer",
        supply: Supply,
        gaps: Iterator[Tuple[float, int]],
        patience: float,
        pool: Optional[RetainerPool] = None,
        sweep_interval: float = 1.0,
        observability: Optional[ObservabilityLike] = None,
    ) -> None:
        if patience <= 0:
            raise ValueError(f"patience must be positive, got {patience}")
        if sweep_interval <= 0:
            raise ValueError(f"sweep_interval must be positive, got {sweep_interval}")
        self._engine = engine
        self._server = server
        self._supply = iter(supply)
        self._gaps = gaps
        self._patience = patience
        self.pool = pool
        self._sweep_interval = sweep_interval
        self._managed: Dict[int, _Managed] = {}
        self._pending_releases = 0
        self._arrivals: Optional[GeneratorProcess] = None
        self._sweeper: Optional[PeriodicProcess] = None
        self.stats = RecruiterStats()
        obs = resolve(observability)
        self._tracer = obs.tracer
        obs.registry.gauge(
            "marketplace_walkin_workers", "Unretained online marketplace workers",
            source=self._walkin_count,
        )
        obs.registry.counter(
            "marketplace_patience_departures_total",
            "Walk-in workers who left after idling out their patience",
            source=lambda: self.stats.patience_departures,
        )

    # ----------------------------------------------------------- lifecycle
    def start(self, prefill: int = 0) -> None:
        """Pre-recruit ``prefill`` workers onto the retainer, arm processes."""
        if self._arrivals is not None:
            raise RuntimeError("recruiter already started")
        if prefill and self.pool is None:
            raise ValueError("prefill requires a retainer pool")
        for _ in range(prefill):
            if not self._recruit(onto_retainer=True):
                break
        self._arrivals = GeneratorProcess(
            self._engine,
            self._gaps,
            self._on_arrival,
            kind=EventKind.WORKER_ARRIVAL,
        )
        self._sweeper = PeriodicProcess(
            self._engine,
            period=self._sweep_interval,
            action=weak_method(self._sweep),
            kind=EventKind.CALLBACK,
        )

    def stop(self) -> None:
        """Stop arrivals/sweeps and settle the wage ledger at current time."""
        if self._arrivals is not None:
            self._arrivals.stop()
            self._arrivals = None
        if self._sweeper is not None:
            self._sweeper.stop()
            self._sweeper = None
        if self.pool is not None:
            self.pool.cancel_requests()
            self.pool.settle()

    # ------------------------------------------------------------- supply
    def _next_worker(self) -> Optional[Tuple[WorkerProfile, WorkerBehavior]]:
        try:
            return next(self._supply)
        except StopIteration:
            return None

    def _recruit(self, onto_retainer: bool) -> bool:
        """Bring the next supply worker in; returns False when exhausted."""
        pair = self._next_worker()
        if pair is None:
            return False
        profile, behavior = pair
        self.stats.arrived += 1
        self._server.add_worker(profile, behavior)
        managed = _Managed(pooled=False)
        self._managed[profile.worker_id] = managed
        if (
            onto_retainer
            and self.pool is not None
            and self.pool.add_worker(profile.worker_id)
        ):
            managed.pooled = True
            # Held on retainer: paid to wait, invisible to the matcher.
            self._server.profiling.set_online(profile.worker_id, False)
            self.stats.retained += 1
            self._tracer.instant(
                "retainer.hold", cat="retainer", worker_id=profile.worker_id
            )
        else:
            managed.idle_since = self._engine.now
            self.stats.walk_ins += 1
        return True

    def _on_arrival(self, _payload: object) -> None:
        if self._recruit(onto_retainer=True):
            self._server.scheduling.maybe_trigger()

    # ------------------------------------------------------------- demand
    def notify_demand(self) -> None:
        """A task was submitted; release held workers to cover the backlog."""
        self._release_for_backlog()

    def _release_for_backlog(self) -> None:
        if self.pool is None:
            return
        backlog = self._server.task_management.unassigned_count
        idle_online = self._server.profiling.n_available
        needed = backlog - idle_online - self._pending_releases
        for _ in range(needed):
            self._pending_releases += 1
            self.stats.releases_requested += 1
            self.pool.request(self._on_release)

    def _on_release(self, worker_id: int, waited: float) -> None:
        self._pending_releases -= 1
        managed = self._managed[worker_id]
        self._server.profiling.set_online(worker_id, True)
        managed.idle_since = None
        self._tracer.instant(
            "retainer.online", cat="retainer", worker_id=worker_id, waited=waited
        )
        self._server.scheduling.maybe_trigger()

    def release_to_walkin(self, worker_id: int) -> None:
        """A worker evicted from the pool rejoins the floor as a walk-in.

        Hook for :class:`~repro.retainer.adaptive.AdaptivePoolSizer`: a
        capacity shrink should not delete the human — he goes back online,
        matchable, with his patience clock starting now.
        """
        managed = self._managed.get(worker_id)
        if managed is None:
            return
        managed.pooled = False
        self._server.profiling.set_online(worker_id, True)
        managed.idle_since = self._engine.now
        self.stats.walk_ins += 1
        self._tracer.instant(
            "retainer.evicted_to_walkin", cat="retainer", worker_id=worker_id
        )
        self._server.scheduling.maybe_trigger()

    # -------------------------------------------------------------- sweep
    def _sweep(self, now: float) -> None:
        self._release_for_backlog()
        backlog = self._server.task_management.unassigned_count
        departures: List[int] = []
        for worker_id, managed in self._managed.items():
            if not self._server.profiling.is_free(worker_id):
                # Busy (or still held/dispatching): no idle clock runs.
                managed.idle_since = None
                continue
            if managed.pooled:
                # A released worker with nothing left to do goes back on
                # retainer (and may be handed straight to queued demand).
                if backlog == 0 and self.pool is not None:
                    self._server.profiling.set_online(worker_id, False)
                    self.pool.return_worker(worker_id)
                    self.stats.repooled += 1
                continue
            if managed.idle_since is None:
                managed.idle_since = now
            elif now - managed.idle_since >= self._patience:
                departures.append(worker_id)
        for worker_id in departures:
            self._depart(worker_id)

    def _depart(self, worker_id: int) -> None:
        del self._managed[worker_id]  # the human left the marketplace
        self.stats.patience_departures += 1
        self._tracer.instant(
            "marketplace.departure", cat="retainer", worker_id=worker_id
        )
        if worker_id in self._server.profiling:
            self._server.remove_worker(worker_id)

    # ------------------------------------------------------------ queries
    def _walkin_count(self) -> int:
        profiling = self._server.profiling
        return sum(
            1
            for worker_id, m in self._managed.items()
            if not m.pooled and profiling.is_online(worker_id)
        )


def charge_task_payments(
    pool: RetainerPool, outcomes: Sequence[Tuple[Optional[int], Optional[float]]]
) -> float:
    """Post-run: charge the flat task payment for every completed execution.

    ``outcomes`` are ``(final_worker, worker_time)`` pairs; incomplete tasks
    (no worker or no duration) cost nothing.  Returns the total charged.
    """
    total = 0.0
    for worker_id, duration in outcomes:
        if worker_id is None or duration is None:
            continue
        total += pool.ledger.charge_assignment(worker_id, duration)
    return total
