"""Tiered region coordination with task escalation (§III-A).

The paper organises regions into *tiers* — "ranging from small local areas
at the lowest tier, to the entire network area at the highest tier; this
allows the system to collect task information from all the users in a
scalable manner".  This module turns that sketch into a working mechanism:

* the service area is decomposed into a ``2^depth × 2^depth`` grid of leaf
  regions, each owned by a REACT server (workers register locally);
* leaves sharing a parent cell at the next tier form a *sibling group*;
* a periodic escalation monitor watches each leaf's unassigned queue: a
  task that has waited longer than ``escalate_after`` seconds (and still
  has deadline budget) is handed to the sibling leaf with the most
  available workers — first within the immediate parent cell, then, if the
  whole group is starved, anywhere in the grid (the "entire network" tier).

Escalation moves only *queued* tasks (never batched or assigned ones), so
it composes safely with the scheduling machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..model.region import RegionGrid
from ..model.task import Task
from ..model.worker import WorkerBehavior, WorkerProfile
from ..sim.clock import EventClock
from ..sim.events import EventKind
from ..sim.process import PeriodicProcess
from ..sim.rng import RngRegistry
from .cost import CostModel
from .policies import SchedulingPolicy
from .server import REACTServer


@dataclass(frozen=True)
class EscalationRecord:
    """One task hand-off between sibling regions."""

    time: float
    task_id: int
    from_cell: Tuple[int, int]
    to_cell: Tuple[int, int]
    waited: float
    network_wide: bool


class TieredCoordinator:
    """A quad-tree-tiered deployment of REACT servers with escalation."""

    def __init__(
        self,
        engine: EventClock,
        policy: SchedulingPolicy,
        rng: RngRegistry,
        lat_min: float = 0.0,
        lat_max: float = 1.0,
        lon_min: float = 0.0,
        lon_max: float = 1.0,
        depth: int = 2,
        escalate_after: float = 15.0,
        check_interval: float = 5.0,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if escalate_after <= 0 or check_interval <= 0:
            raise ValueError("escalate_after and check_interval must be positive")
        self._engine = engine
        self._escalate_after = escalate_after
        side = 2**depth
        self._side = side
        self._grid = RegionGrid(lat_min, lat_max, lon_min, lon_max, rows=side, cols=side)
        self._servers: Dict[Tuple[int, int], REACTServer] = {}
        self._cell_of_region: Dict[int, Tuple[int, int]] = {}
        for index, region in enumerate(self._grid.regions):
            cell = (index // side, index % side)
            server = REACTServer(
                engine=engine,
                policy=policy,
                rng=rng.fork(index),
                cost_model=cost_model,
            )
            server.start()
            self._servers[cell] = server
            self._cell_of_region[region.region_id] = cell
        self.escalations: List[EscalationRecord] = []
        self._monitor = PeriodicProcess(
            engine, period=check_interval, action=self._sweep, kind=EventKind.CALLBACK
        )

    # ------------------------------------------------------------- routing
    @property
    def servers(self) -> List[REACTServer]:
        return list(self._servers.values())

    def cell_for(self, latitude: float, longitude: float) -> Tuple[int, int]:
        region = self._grid.locate(latitude, longitude)
        return self._cell_of_region[region.region_id]

    def add_worker(self, profile: WorkerProfile, behavior: WorkerBehavior) -> None:
        cell = self.cell_for(profile.latitude, profile.longitude)
        self._servers[cell].add_worker(profile, behavior)

    def submit_task(self, task: Task) -> None:
        cell = self.cell_for(task.latitude, task.longitude)
        self._servers[cell].submit_task(task)

    # ---------------------------------------------------------- escalation
    def siblings(self, cell: Tuple[int, int]) -> List[Tuple[int, int]]:
        """The other leaves under the same parent cell (tier above)."""
        pr, pc = cell[0] // 2, cell[1] // 2
        return [
            (r, c)
            for r in (2 * pr, 2 * pr + 1)
            for c in (2 * pc, 2 * pc + 1)
            if (r, c) != cell and (r, c) in self._servers
        ]

    def _best_target(
        self, candidates: List[Tuple[int, int]]
    ) -> Optional[Tuple[int, int]]:
        best, best_free = None, 0
        for cell in candidates:
            free = self._servers[cell].profiling.available_count
            if free > best_free:
                best, best_free = cell, free
        return best

    def _sweep(self, now: float) -> None:
        for cell, server in self._servers.items():
            stale = server.task_management.extract_unassigned(
                lambda t: (now - t.submitted_at) >= self._escalate_after
                and not t.is_expired(now)
            )
            if not stale:
                continue
            target = self._best_target(self.siblings(cell))
            network_wide = False
            if target is None:
                # the parent cell is starved too: go network-wide
                target = self._best_target(
                    [c for c in self._servers if c != cell]
                )
                network_wide = True
            if target is None:
                # nobody anywhere has a free worker; requeue locally
                for task in stale:
                    server.adopt_task(task)
                continue
            for task in stale:
                self._servers[target].adopt_task(task)
                self.escalations.append(
                    EscalationRecord(
                        time=now,
                        task_id=task.task_id,
                        from_cell=cell,
                        to_cell=target,
                        waited=now - task.submitted_at,
                        network_wide=network_wide,
                    )
                )

    def stop(self) -> None:
        self._monitor.stop()
        for server in self._servers.values():
            server.stop()

    # -------------------------------------------------------------- totals
    def aggregate_summary(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for server in self._servers.values():
            for key, value in server.drain_and_summary().items():
                if value is None or key in ("avg_worker_time", "avg_total_time",
                                            "on_time_fraction",
                                            "positive_feedback_fraction"):
                    continue
                totals[key] = totals.get(key, 0) + value
        if totals.get("received"):
            totals["on_time_fraction"] = round(
                totals.get("completed_on_time", 0) / totals["received"], 4
            )
        totals["escalations"] = len(self.escalations)
        return totals
