"""Multi-region coordinator (§III-A spatial decomposition; §V-D remedy).

Routes each worker and task to the REACT server owning its geographic
region, and moves queued work between regions in the two ways the paper
describes:

* **Split** (§V-D): "One possible solution for that problem is to split the
  regions so that each of the servers would contain sufficient workers and
  tasks without being overloaded."  Splitting re-partitions an overloaded
  region's *future* arrivals between two child servers; idle workers and
  queued tasks located in the new half move with it, while in-flight tasks
  finish on their original server (a live migration protocol is out of the
  paper's scope).
* **Tier escalation** (§III-A): regions are organised into tiers "ranging
  from small local areas at the lowest tier, to the entire network area at
  the highest tier".  Regions sharing a cell of the 2×-coarser grid form a
  sibling group; with ``escalate_after`` set, a periodic sweep hands every
  queued task that has waited that long (and is not yet expired) to the
  sibling with the most free workers, then, if the whole group is starved,
  to the best server network-wide.

Both move only *queued* tasks (never batched or assigned ones), so they
compose safely with the scheduling machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..model.region import Region
from ..model.task import Task
from ..model.worker import WorkerBehavior, WorkerProfile
from ..obs.runtime import ObservabilityLike, resolve
from ..obs.trace import PLATFORM_TRACK
from ..sim.clock import EventClock
from ..sim.events import EventKind
from ..sim.process import PeriodicProcess
from ..sim.rng import RngRegistry
from ..sim.weak import weak_method
from .cost import CostModel
from .policies import SchedulingPolicy
from .server import REACTServer, RegionServer

#: Builds one region server.  The default constructs a :class:`REACTServer`
#: (simulation mode); the live gateway injects a factory producing
#: ``repro.service.bridge.LiveRegionServer`` (pull delivery) instead.
ServerFactory = Callable[
    [EventClock, SchedulingPolicy, RngRegistry, Optional[CostModel]], RegionServer
]


@dataclass
class RegionEntry:
    region: Region
    server: RegionServer
    #: Monotonically unique id; also the RNG fork offset for this server, so
    #: no two servers — including ones created by later splits — ever share
    #: a stream derivation.
    server_id: int
    rng: RngRegistry
    #: Cell of the 2×-coarser grid holding this region: regions sharing it
    #: are escalation siblings.  Split children inherit their parent's.
    group: Tuple[int, int]


@dataclass(frozen=True)
class EscalationRecord:
    """One queued task handed from one region's server to another's."""

    time: float
    task_id: int
    from_server: int
    to_server: int
    waited: float
    network_wide: bool


class Coordinator:
    """Owns the region → server map, the split-on-overload policy and the
    tier-escalation sweep."""

    def __init__(
        self,
        engine: EventClock,
        policy: SchedulingPolicy,
        regions: List[Region],
        rng: RngRegistry,
        cost_model: Optional[CostModel] = None,
        overload_queue_limit: Optional[int] = None,
        observability: Optional[ObservabilityLike] = None,
        server_factory: Optional[ServerFactory] = None,
        max_splits_per_submit: int = 4,
        escalate_after: Optional[float] = None,
        escalation_interval: float = 5.0,
    ) -> None:
        if not regions:
            raise ValueError("at least one region is required")
        if overload_queue_limit is not None and overload_queue_limit < 1:
            raise ValueError("overload_queue_limit must be >= 1")
        if max_splits_per_submit < 1:
            raise ValueError("max_splits_per_submit must be >= 1")
        if (escalate_after is not None and escalate_after <= 0) or escalation_interval <= 0:
            raise ValueError("escalate_after and escalation_interval must be positive")
        self._engine = engine
        self._policy = policy
        self._rng = rng
        self._cost_model = cost_model
        self._server_factory = server_factory
        self._overload_limit = overload_queue_limit
        self._max_splits_per_submit = max_splits_per_submit
        # Split telemetry only: child servers are built without observability
        # because each MetricsCollector exposes its counts as sourced series,
        # which a registry refuses to register twice.  Per-server obs belongs
        # to single-server drivers.
        obs = resolve(observability)
        self._tracer = obs.tracer
        obs.registry.counter(
            "react_region_splits_total", "Region splits performed by the coordinator",
            source=lambda: self._splits,
        )
        obs.registry.gauge(
            "react_regions", "Regions (= servers) currently managed",
            source=lambda: len(self._entries),
        )
        self._entries: List[RegionEntry] = []
        self._splits = 0
        self._tasks_migrated = 0
        self._workers_migrated = 0
        self._next_server_id = 0
        # A region's escalation group is the cell of the 2×-coarser grid its
        # centre falls in, measured from the initial regions' bounding box:
        # (row // 2, col // 2) on a uniform grid.
        lat0 = min(region.lat_min for region in regions)
        lon0 = min(region.lon_min for region in regions)
        for region in regions:
            lat, lon = region.center
            group = (
                int((lat - lat0) / (2 * (region.lat_max - region.lat_min))),
                int((lon - lon0) / (2 * (region.lon_max - region.lon_min))),
            )
            self._entries.append(self._make_entry(region, group))
        self._escalate_after = escalate_after
        self.escalations: List[EscalationRecord] = []
        self._sweeper: Optional[PeriodicProcess] = None
        # Armed after the servers are built: the sweep's event sequence
        # numbers follow theirs, the order the seeded escalation golden pins.
        if escalate_after is not None:
            self._sweeper = PeriodicProcess(
                engine, period=escalation_interval, action=weak_method(self._escalate),
                kind=EventKind.CALLBACK,
            )

    def _make_entry(self, region: Region, group: Tuple[int, int]) -> RegionEntry:
        """Build a server for ``region`` under a monotonically unique id.

        Servers used to be numbered by list position, so a server created by
        a later split could reuse an earlier server's index-derived RNG
        streams (correlating e.g. their matcher edge-flip draws).  A single
        counter that only ever increments makes every fork offset — and with
        it every stream spawn key — unique for the coordinator's lifetime.
        """
        server_id = self._next_server_id
        self._next_server_id += 1
        rng = self._rng.fork(server_id)
        if self._server_factory is not None:
            server = self._server_factory(
                self._engine, self._policy, rng, self._cost_model
            )
        else:
            server = REACTServer(
                engine=self._engine,
                policy=self._policy,
                rng=rng,
                cost_model=self._cost_model,
            )
        server.start()
        return RegionEntry(
            region=region, server=server, server_id=server_id, rng=rng, group=group
        )

    # ------------------------------------------------------------- routing
    @property
    def servers(self) -> List[RegionServer]:
        return [entry.server for entry in self._entries]

    @property
    def regions(self) -> List[Region]:
        return [entry.region for entry in self._entries]

    @property
    def splits_performed(self) -> int:
        return self._splits

    @property
    def tasks_migrated(self) -> int:
        """Queued tasks handed to a freshly split-off server, cumulative."""
        return self._tasks_migrated

    @property
    def workers_migrated(self) -> int:
        """Idle workers re-routed to a freshly split-off server, cumulative."""
        return self._workers_migrated

    def _entry_for(self, latitude: float, longitude: float) -> RegionEntry:
        for entry in self._entries:
            if entry.region.contains(latitude, longitude):
                return entry
        raise ValueError(
            f"point ({latitude}, {longitude}) is outside every region"
        )

    def server_for(self, latitude: float, longitude: float) -> RegionServer:
        return self._entry_for(latitude, longitude).server

    def add_worker(
        self, profile: WorkerProfile, behavior: Optional[WorkerBehavior] = None
    ) -> None:
        """Register the worker with the server owning his location (§IV-A:
        "Each worker is registered to the server related to the area where
        he belongs").  ``behavior`` carries the simulated ground truth and
        is None for live (service-mode) workers."""
        self._entry_for(profile.latitude, profile.longitude).server.add_worker(
            profile, behavior
        )

    def submit_task(self, task: Task) -> None:
        """Route by the task's coordinates, then check for overload.

        Splitting cascades: one split halves a region but migrates only the
        queued tasks of the *new* half, so either half can still sit above
        ``overload_queue_limit`` — both are re-checked (and re-split) until
        every resulting server is under the limit, its region is too thin to
        split further, or ``max_splits_per_submit`` splits have been spent
        on this submission.
        """
        entry = self._entry_for(task.latitude, task.longitude)
        entry.server.submit_task(task)
        if self._overload_limit is None:
            return
        budget = self._max_splits_per_submit
        pending = [entry]
        while pending and budget > 0:
            candidate = pending.pop(0)
            queue = candidate.server.task_management.unassigned_count
            if queue <= self._overload_limit or not candidate.region.splittable:
                continue
            kept, created = self._split(candidate)
            budget -= 1
            pending.extend((kept, created))

    # --------------------------------------------------------------- split
    def _split(self, entry: RegionEntry) -> Tuple[RegionEntry, RegionEntry]:
        """Split an overloaded region in half (§V-D).

        The existing server keeps one half (with all its in-flight work and
        history); a fresh server takes the other half, inheriting (a) the
        idle workers located there and (b) the queued — not yet batched or
        assigned — tasks whose coordinates fall inside it.  Workers who are
        mid-execution stay on the old server regardless of location: a live
        hand-off protocol is outside the paper's scope.

        Returns the (kept-half, new-half) entries so the submit-path cascade
        can re-check both for residual overload.
        """
        half_keep, half_new = entry.region.split()
        idx = self._entries.index(entry)
        old = entry.server
        new_entry = self._make_entry(half_new, entry.group)
        new_server = new_entry.server
        keep_entry = RegionEntry(
            region=half_keep,
            server=old,
            server_id=entry.server_id,
            rng=entry.rng,
            group=entry.group,
        )
        self._entries[idx : idx + 1] = [keep_entry, new_entry]
        self._splits += 1

        # Migrate idle workers located in the new half, with their history
        # and simulated ground truth (None on a live server).
        for profile in old.profiling.profiles():
            if old.profiling.current_task(profile.worker_id) is not None:
                continue
            if not half_new.contains(profile.latitude, profile.longitude):
                continue
            behavior = old.behavior_of(profile.worker_id)
            history = old.remove_worker(profile.worker_id)
            new_server.add_worker(profile, behavior, history)
            self._workers_migrated += 1

        # Migrate the queued tasks belonging to the new half — this is the
        # actual load relief the paper's remedy is after.
        migrated = old.task_management.extract_unassigned(
            lambda task: half_new.contains(task.latitude, task.longitude)
        )
        for task in migrated:
            new_server.adopt_task(task)
        self._tasks_migrated += len(migrated)

        self._tracer.instant(
            "region.split",
            cat="coordinator",
            tid=PLATFORM_TRACK,
            regions=len(self._entries),
            migrated_tasks=len(migrated),
        )
        return keep_entry, new_entry

    # ---------------------------------------------------------- escalation
    def siblings(self, server_id: int) -> List[int]:
        """Ids of the other servers in ``server_id``'s sibling group."""
        group = next(e.group for e in self._entries if e.server_id == server_id)
        return [
            e.server_id for e in self._entries
            if e.group == group and e.server_id != server_id
        ]

    @staticmethod
    def _most_free(candidates: List[RegionEntry]) -> Optional[RegionEntry]:
        """The candidate with the most free workers (first wins ties), or
        None when no candidate has any."""
        best, best_free = None, 0
        for entry in candidates:
            free = entry.server.profiling.n_available
            if free > best_free:
                best, best_free = entry, free
        return best

    def _escalate(self, now: float) -> None:
        """One sweep: hand each region's stale queued tasks to the best-
        staffed sibling, else network-wide, else back to its own queue."""
        assert self._escalate_after is not None  # armed only when set
        after = self._escalate_after
        for entry in self._entries:
            stale = entry.server.task_management.extract_unassigned(
                lambda t: (now - t.submitted_at) >= after and not t.is_expired(now)
            )
            if not stale:
                continue
            others = [e for e in self._entries if e is not entry]
            target = self._most_free([e for e in others if e.group == entry.group])
            network_wide = target is None
            if target is None:
                target = self._most_free(others)
            if target is None:
                for task in stale:
                    entry.server.adopt_task(task)
                continue
            for task in stale:
                target.server.adopt_task(task)
                self.escalations.append(
                    EscalationRecord(
                        time=now,
                        task_id=task.task_id,
                        from_server=entry.server_id,
                        to_server=target.server_id,
                        waited=now - task.submitted_at,
                        network_wide=network_wide,
                    )
                )

    def stop(self) -> None:
        """Stop the escalation sweep and every server."""
        if self._sweeper is not None:
            self._sweeper.stop()
        for server in self.servers:
            server.stop()

    # -------------------------------------------------------------- summary
    def aggregate_summary(self) -> Dict[str, float]:
        """Combine the headline metrics across all servers.

        Counters are summed; fractions are recomputed over the combined
        counts; the two time averages are weighted by each server's
        completed-task count (summing averages would overstate them).
        """
        totals: Dict[str, float] = {}
        average_keys = ("avg_worker_time", "avg_total_time")
        fraction_keys = ("on_time_fraction", "positive_feedback_fraction")
        summaries = [server.drain_and_summary() for server in self.servers]
        for summary in summaries:
            for key, value in summary.items():
                if value is None or key in average_keys or key in fraction_keys:
                    continue
                totals[key] = totals.get(key, 0) + value
        received = totals.get("received", 0)
        if received:
            totals["on_time_fraction"] = round(
                totals.get("completed_on_time", 0) / received, 4
            )
            totals["positive_feedback_fraction"] = round(
                totals.get("positive_feedbacks", 0) / received, 4
            )
        for key in average_keys:
            weighted = [
                (summary[key], summary["completed"])
                for summary in summaries
                if summary.get(key) is not None and summary.get("completed")
            ]
            weight = sum(n for _, n in weighted)
            if weight:
                totals[key] = round(
                    sum(v * n for v, n in weighted) / weight, 3
                )
        return totals
